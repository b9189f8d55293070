"""Spans and counters for the traced run, recorded from outside the library.

:class:`Tracer` replaces a public function at every module attribute that
is bound to it (the defining module and every module that imported it by
name) with a wrapper that records one span: name, start, end, parent span
and the operation it belongs to.  Spans live in flat arrays in memory and
are written out once, at the end.  Self time is a span's duration minus
the durations of its direct children.

``gamma.generator_matrix`` is looked up once per letter, so it is wrapped
only where its misses are expected: during set-up and in CLI children.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

MODULES = ("braids", "reduced_free", "gamma", "claspers", "closure", "intlattice", "cli")

# (module, attribute) of every wrapped function; methods as Class.method
TARGETS = (
    ("braids", "delete_strands"),
    ("braids", "compose"),
    ("reduced_free", "rfg_normal_form"),
    ("reduced_free", "artin_act"),
    ("gamma", "gamma_apply"),
    ("gamma", "gamma_matrix"),
    ("claspers", "extract_clasp_vector"),
    ("claspers", "clasp_vector_to_braid"),
    ("closure", "partial_conjugate"),
    ("closure", "closure_equivalent"),
    ("closure", "replay_witness"),
    ("intlattice", "IntegerLattice.solve"),
    ("intlattice", "IntegerLattice.canonical"),
    ("intlattice", "IntegerLattice.add"),
    ("intlattice", "kernel_basis"),
    ("cli", "main"),
)
SETUP_TARGETS = (("gamma", "generator_matrix"),)


def _modules():
    import importlib

    return {name: importlib.import_module(f"linkhom.{name}") for name in MODULES}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, ops, starts, ends, stack = (
            self.name, self.parent, self.op_id, self.start, self.end, self.stack)

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, ends[sid] - starts[sid])
            return result

        return wrapper

    def _after_hooks(self, mods):
        c = self.counters

        def gamma_apply(args, result, _dt):
            c["gamma.gamma_apply.letters"] += len(args[0].letters)
            c["gamma.gamma_apply.object_results"] += result.dtype == object

        def gamma_matrix(args, _result, _dt):
            c["gamma.gamma_matrix.letters"] += len(args[0].letters)

        def to_braid(_args, result, _dt):
            c["claspers.clasp_vector_to_braid.letters_out"] += len(result.letters)

        def verdict(_args, result, _dt):
            c[f"closure.verdict.{result.status}"] += 1
            moves = len(result.witness or ())
            c["closure.witness_moves.sum"] += moves
            c["closure.witness_moves.max"] = max(c["closure.witness_moves.max"], moves)

        cache = mods["gamma"].generator_matrix
        depth = [0, 0]

        def generator_matrix(args, _result, dt):
            # only the outermost call: a miss for sigma^-1 builds sigma too
            if depth[0] == 1:
                misses = cache.cache_info().misses - depth[1]
                c["gamma.generator_matrix.misses"] += misses
                if misses:
                    c["gamma.generator_matrix.build_s"] += dt

        return {
            "gamma_apply": gamma_apply, "gamma_matrix": gamma_matrix,
            "clasp_vector_to_braid": to_braid, "closure_equivalent": verdict,
            "generator_matrix": (generator_matrix, cache, depth),
        }

    def install(self, setup: bool = False) -> None:
        """Wrap every target; with ``setup`` also the generator-matrix cache."""
        mods = _modules()
        hooks = self._after_hooks(mods)
        targets = TARGETS + (SETUP_TARGETS if setup else ())
        for modname, attr in targets:
            owner = mods[modname]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, meth)
            name = f"{modname}.{attr}"
            hook = hooks.get(meth)
            if meth == "generator_matrix":
                wrapper = self._counting_cache(name, original, *hook)
            else:
                wrapper = self._wrap(name, original, hook)
            if cls_name:
                self._patch(owner, meth, wrapper)
                continue
            import linkhom

            for mod in (linkhom, *mods.values()):
                if mod.__dict__.get(meth) is original:
                    self._patch(mod, meth, wrapper)

    def _counting_cache(self, name, original, hook, cache, depth):
        inner = self._wrap(name, original, hook)

        def wrapper(*args, **kwargs):
            depth[0] += 1
            if depth[0] == 1:
                depth[1] = cache.cache_info().misses
            try:
                return inner(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int64), np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.op_id, dtype=np.int64), np.frombuffer(self.start),
                np.frombuffer(self.end))

    def per_name(self) -> dict[str, tuple[int, float]]:
        """Calls and total self time of every span name."""
        if not self.start:
            return {}
        name, parent, _op, start, end = self.arrays()
        dur = end - start
        covered = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        calls = np.bincount(name, minlength=len(self.names))
        selft = np.bincount(name, weights=dur - covered, minlength=len(self.names))
        return {n: (int(calls[k]), float(selft[k])) for k, n in enumerate(self.names)}

    def merge(self, data: dict, op: int) -> None:
        """Add the spans and counters a child process wrote with :meth:`to_json`."""
        base = len(self.start)
        remap = [self._ids.setdefault(n, len(self._ids)) for n in data["names"]]
        for n in data["names"]:
            if self._ids[n] == len(self.names):
                self.names.append(n)
        self.name.extend(remap[k] for k in data["name"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.op_id.extend(op for _ in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        for key, value in data["counters"].items():
            if key.endswith(".max"):
                self.counters[key] = max(self.counters[key], value)
            else:
                self.counters[key] += value

    def to_json(self) -> dict:
        return {"names": self.names, "name": list(self.name), "parent": list(self.parent),
                "start": list(self.start), "end": list(self.end),
                "counters": dict(self.counters)}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        name, parent, op, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name, parent=parent, op=op,
                            start=start, end=end)

    def totals(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` of every span name, the
        counters, and ``trace.spans``."""
        out = dict(self.counters)
        for name, (calls, selft) in self.per_name().items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = selft
        out["trace.spans"] = len(self.start)
        return out
