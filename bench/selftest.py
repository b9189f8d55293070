#!/usr/bin/env python3
"""Self-test of the benchmark: runs that must fail do fail.

    python3 bench/selftest.py

Three short in-process runs, from the root of a linkhom checkout:

* an honest ``closure-decide`` run is accepted;
* a ``closure-decide`` run in which ``closure_equivalent`` is made to
  answer Distinct for equivalent pairs is refused as incorrect;
* a ``braid-eq`` run whose operations clear the generator-matrix cache,
  so that the timed section builds matrices, is refused as well.

Exits 0 when all three behave, 1 otherwise.
"""

from __future__ import annotations

import sys
from unittest import mock

import run


def _flip_equivalent(original):
    def closure_equivalent(v1, v2, budget=None):
        verdict = original(v1, v2, budget)
        if verdict.status == "equivalent":
            return type(verdict)("distinct", invariant="deliberately wrong")
        return verdict

    return closure_equivalent


def _clear_cache_first(original):
    from linkhom import gamma

    def run_op(op):
        gamma.generator_matrix.cache_clear()
        return original(op)

    return run_op


def main() -> int:
    if not run.use_checkout_sources():
        print("selftest.py: run from a linkhom checkout", file=sys.stderr)
        return 2
    from linkhom import closure
    from workloads import WORKLOADS

    checks = []
    result, _ = run.execute("closure-decide", 7, 0.5, False)
    checks.append(("honest run accepted", result["correct"]))

    with mock.patch.object(closure, "closure_equivalent",
                           _flip_equivalent(closure.closure_equivalent)):
        result, code = run.execute("closure-decide", 7, 0.5, False)
    checks.append(("wrong verdict refused", not result["correct"] and code == 1))

    workload = WORKLOADS["braid-eq"]
    with mock.patch.object(workload, "run", _clear_cache_first(workload.run)):
        result, code = run.execute("braid-eq", 7, 0.5, False)
    checks.append(("cache miss in timed section refused", not result["correct"] and code == 1))

    for label, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
