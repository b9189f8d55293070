"""The benchmark reaches into the library by name: keep those names alive.

``bench/spans.py`` wraps the functions it lists in ``TARGETS`` and
``SETUP_TARGETS`` for ``bench/run.py --trace 1``, and ``bench/run.py``
gates its timed section on the ``cache_info`` of three cached functions.
A rename in ``src/`` fails here instead of breaking those silently.
``bench/selftest.py`` also calls ``closure_equivalent`` with three
positional arguments, so it is run here as well.  These tests read and
execute ``bench/`` but write nothing to it.
"""

import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_trace_targets_and_cache_gate_resolve():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
    from linkhom import claspers, gamma

    mods = spans._modules()
    targets = spans.TARGETS + spans.SETUP_TARGETS

    def lookup(modname, attr):
        owner = mods[modname]
        for part in attr.split("."):
            owner = getattr(owner, part)
        return owner

    originals = [lookup(m, a) for m, a in targets]
    tracer = spans.Tracer()
    try:
        tracer.install(setup=True)
        for (modname, attr), original in zip(targets, originals):
            assert lookup(modname, attr) is not original, f"{modname}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    assert [lookup(m, a) for m, a in targets] == originals
    for cached in (gamma.generator_matrix, claspers.comb_clasper_braid,
                   claspers.enumerate_comb_claspers):
        assert callable(cached.cache_info), cached.__name__


def test_bench_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=BENCH.parent,
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
