#!/usr/bin/env python3
"""Benchmark of linkhom: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a linkhom checkout; the library is imported from
``src/``.  Inputs are generated from the seed before timing starts, every
answer is checked against ground truth that does not call the library
(``truth.py``), and the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``setup_s``: median wall time of fresh interpreters that import the
  library and warm every cache the workload reads;
* ``ops_per_s``: verified operations per second of busy time;
* ``latency_p50_ms`` and ``latency_tail_ms``: the median, and the latency
  at the workload's tail percentile, the highest that keeps ten samples
  beyond it (the percentile and sample count are printed on the summary
  line);
* ``peak_rss_mb``: peak resident memory of this process, or for
  ``cli-cold`` of the largest child.

A run measures whole blocks of the workload's cells (see ``workloads.py``)
until ``--seconds`` of busy time have passed, so every run has the same mix.
Failed operations (Unknown verdicts, exceptions, unexpected exit codes)
are counted in ``failed``; a wrong answer aborts the run with
``"correct": false`` and exit code 1, and so does a miss of a library
cache inside the timed section of an in-process workload
(``python3 bench/selftest.py`` checks both).

With ``--trace 1`` the operations of ``--seconds / 2`` run once untraced
and then again with spans recorded at the library's public functions
(``spans.py``); the metrics are the per-layer ones, and the spans are
written to ``bench/out/trace-<workload>.npz``.

``closure-decide`` is not listed in ``BENCHMARK.json``: at the default
search budget some of its equivalent pairs end Unknown, which are failed
operations, and those take seconds each.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 3
LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def layer_metrics() -> dict[str, str]:
    """Name and unit of every metric a traced run reports."""
    from workloads import SUBCOMMANDS

    return {
        "braids.delete_strands.calls": "count",
        "braids.delete_strands.self_s": "s",
        "braids.compose.self_s": "s",
        "reduced_free.rfg_normal_form.calls": "count",
        "reduced_free.rfg_normal_form.self_s": "s",
        "reduced_free.artin_act.self_s": "s",
        "gamma.generator_matrix.misses": "count",
        "gamma.generator_matrix.build_s": "s",
        "gamma.gamma_apply.calls": "count",
        "gamma.gamma_apply.letters": "count",
        "gamma.gamma_apply.self_s": "s",
        "gamma.gamma_apply.object_results": "count",
        "gamma.gamma_matrix.calls": "count",
        "gamma.gamma_matrix.letters": "count",
        "gamma.gamma_matrix.self_s": "s",
        "claspers.extract_clasp_vector.calls": "count",
        "claspers.extract_clasp_vector.self_s": "s",
        "claspers.clasp_vector_to_braid.self_s": "s",
        "claspers.clasp_vector_to_braid.letters_out": "count",
        "closure.partial_conjugate.calls": "count",
        "closure.partial_conjugate.self_s": "s",
        "closure.closure_equivalent.calls": "count",
        "closure.closure_equivalent.self_s": "s",
        "closure.verdict.equivalent": "count",
        "closure.verdict.distinct": "count",
        "closure.verdict.unknown": "count",
        "closure.witness_moves.sum": "count",
        "closure.witness_moves.max": "count",
        "closure.replay_witness.self_s": "s",
        "intlattice.IntegerLattice.solve.calls": "count",
        "intlattice.IntegerLattice.solve.self_s": "s",
        "intlattice.IntegerLattice.canonical.calls": "count",
        "intlattice.IntegerLattice.canonical.self_s": "s",
        "intlattice.IntegerLattice.add.self_s": "s",
        "intlattice.kernel_basis.self_s": "s",
        "cli.import_s": "s",
        **{f"cli.process_s.{sub}": "s" for sub in SUBCOMMANDS},
        "cli.exit_code_mismatches": "count",
        "trace.ops": "count",
        "trace.spans": "count",
        "trace.slowdown": "ratio",
        "failed_ratio": "ratio",
    }


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path, if it is there."""
    if not (SRC / "linkhom" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return True


class RunFailed(Exception):
    """The run cannot be accepted: a wrong answer or a cold cache."""


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    verified: list[bool] = field(default_factory=list)
    strata: list[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def failed(self) -> int:
        return self.verified.count(False)


def _cache_functions(workload):
    if workload.name == "cli-cold":
        return []
    from linkhom import claspers, gamma

    return [gamma.generator_matrix, claspers.comb_clasper_braid,
            claspers.enumerate_comb_claspers]


def measure(workload, ops, caches, seconds=None, count=None, tracer=None) -> Phase:
    """Closed loop over ``ops``: ``count`` ops, or whole blocks of the
    workload's cells until ``seconds`` of busy time have passed.  With a
    ``tracer``, spans are tagged with the index of their operation."""
    from workloads import WrongAnswer

    phase = Phase()
    misses = [f.cache_info().misses for f in caches]
    block = len(workload.cells)
    k = 0
    while (k < count) if count else (phase.busy < seconds or k % block):
        op = ops[k % len(ops)]
        if tracer is not None:
            tracer.op = k
        start = time.perf_counter()
        try:
            result = workload.run(op)
            error = None
        except Exception as exc:  # a failed operation, not a failed run
            error = exc
        phase.latencies.append(time.perf_counter() - start)
        if error is None:
            try:
                ok = workload.check(op, result)
            except WrongAnswer as exc:
                raise RunFailed(f"op {k} ({op.stratum}): {exc}") from exc
        else:
            if not phase.failed:
                traceback.print_exception(error, file=sys.stderr)
            ok = False
        phase.verified.append(ok)
        phase.strata.append(op.stratum)
        k += 1
    for f, before in zip(caches, misses):
        if f.cache_info().misses != before:
            raise RunFailed(f"{f.__name__} missed its cache inside the timed section")
    return phase


def setup_seconds(workload) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                        "--setup-only"], check=True, cwd=HERE.parent)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def tail(latencies: list[float], percentile: float) -> tuple[float, float]:
    """Latency at the workload's tail percentile, and that percentile.

    Each workload fixes the highest percentile of :data:`LADDER` that keeps
    at least ten samples beyond it at its usual sample count, so that a
    faster program does not report a higher percentile.  A run with fewer
    samples falls back down the ladder.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in [percentile] + [q for q in LADDER if q < percentile]:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == LADDER[-1]:
            return ordered[max(rank, 1) - 1], p


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, ops, seconds):
    setup = setup_seconds(workload)
    workload.warm_up()
    phase = measure(workload, ops, _cache_functions(workload), seconds=seconds)
    value, pct = tail(phase.latencies, workload.tail_percentile)
    metrics = {
        "setup_s": _metric(setup, "s"),
        "ops_per_s": _metric(sum(phase.verified) / phase.busy, "1/s"),
        "latency_p50_ms": _metric(1000 * statistics.median(phase.latencies), "ms"),
        "latency_tail_ms": _metric(1000 * value, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(workload.name == "cli-cold"), "MB"),
    }
    n = len(phase.latencies)
    print(f"# {workload.name}: {n} ops in {phase.busy:.2f} s, failed_ratio "
          f"{phase.failed}/{n} = {phase.failed / n:.4f}, latency_tail_ms at p{pct:g} "
          f"of {n} samples")
    return phase, metrics


def traced(workload, ops, seconds):
    import spans
    from workloads import OUT

    tracer = spans.Tracer()
    caches = _cache_functions(workload)
    tracer.install(setup=True)
    try:
        workload.warm_up()
    finally:
        tracer.uninstall()
    plain = measure(workload, ops, caches, seconds=seconds / 2)
    if workload.name == "cli-cold":
        workload.trace_dir = OUT / "cli-trace"
        workload.trace_dir.mkdir(parents=True, exist_ok=True)
        workload.children = 0
    tracer.install()
    try:
        again = measure(workload, ops, caches, count=len(plain.latencies), tracer=tracer)
    finally:
        tracer.uninstall()
    if workload.name == "cli-cold":
        for k in range(len(again.latencies)):
            child = workload.trace_dir / f"child{k}.json"
            if child.exists():
                tracer.merge(json.loads(child.read_text()), k)
                child.unlink()
    values = tracer.totals()
    if workload.name == "cli-cold":
        values.update(cli_metrics(workload, plain))
    n = len(plain.latencies)
    values["trace.ops"] = n
    values["trace.slowdown"] = again.busy / plain.busy
    values["failed_ratio"] = plain.failed / n
    tracer.dump(OUT / f"trace-{workload.name}.npz")
    print(f"# {workload.name}: {n} ops traced, {values['trace.spans']:.0f} spans, "
          f"tracing slows the same ops by {values['trace.slowdown']:.3f}x")
    return plain, {k: _metric(values.get(k, 0), u) for k, u in layer_metrics().items()}


def cli_metrics(workload, phase: Phase) -> dict[str, float]:
    from workloads import child_env

    imports = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import linkhom.cli"], check=True,
                       env=child_env(), cwd=HERE.parent)
        imports.append(time.perf_counter() - start)
    out = {"cli.import_s": statistics.median(imports),
           "cli.exit_code_mismatches": workload.exit_code_mismatches}
    by_sub: dict[str, list[float]] = {}
    for stratum, dt in zip(phase.strata, phase.latencies):
        by_sub.setdefault(stratum, []).append(dt)
    for sub, values in by_sub.items():
        out[f"cli.process_s.{sub}"] = statistics.median(values)
    return out


def execute(name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns the result object and the exit code."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    ops = workload.generate(random.Random(seed))
    try:
        phase, metrics = (traced if trace else end_to_end)(workload, ops, seconds)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}, 1
    return {"correct": True, "attempted": len(phase.latencies), "failed": phase.failed,
            "metrics": metrics}, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pc-split-n5", "closure-decide", "braid-eq", "cli-cold"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm the workload's caches, then exit")
    args = parser.parse_args(argv)
    if not use_checkout_sources():
        print(f"run.py: no linkhom sources at {SRC}; run from a linkhom checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].warm_up()
        return 0
    result, code = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
