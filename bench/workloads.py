"""The four benchmark workloads: seeded inputs, one operation, its check.

Each workload makes all of its operations from a ``random.Random`` before
timing starts, warms every cache its operations read, runs one operation
per call (closed loop, one client) and checks each answer against the
ground truth in :mod:`truth`, which never calls the code under test.

``check`` returns True for a verified answer and False for a failed one
(an Unknown verdict, an unexpected exit code); it raises
:class:`WrongAnswer` for an answer that contradicts the ground truth.
Operations call the library through module attributes, so that the
wrappers of a traced run see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import truth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
TABLES = truth.load_tables(SRC / "linkhom" / "move_tables.json")


class WrongAnswer(Exception):
    """An answer contradicts the ground truth: the run is aborted."""


@dataclass
class Op:
    stratum: str
    args: tuple
    expect: object


def _blocks(rng, cells, count):
    """``count`` blocks, each holding every cell once in a seeded order.

    A run stops only at the end of a block, so every run has the same mix
    of cells whatever its length.
    """
    out = []
    for _ in range(count):
        block = list(cells)
        rng.shuffle(block)
        out.extend(block)
    return out


def warm_generator_matrices(strands):
    from linkhom import gamma, reduced_free

    for n in strands:
        basis = reduced_free.enumerate_basic_commutators(n)
        for i in range(1, n):
            for sign in (1, -1):
                # same positional key as gamma_apply and gamma_matrix use
                gamma.generator_matrix(n, i, sign, basis.order)


def warm_clasp_caches(strands):
    from linkhom import claspers, closure

    closure.move_tables()
    for n in strands:
        for c in claspers.enumerate_comb_claspers(n):
            claspers.comb_clasper_braid(c, n)


def _verdict(verdict, expect: str, v1: truth.Vector, v2: truth.Vector) -> bool:
    if verdict.status == "unknown":
        return False
    if verdict.status != expect:
        raise WrongAnswer(f"verdict {verdict.status}, expected {expect}")
    if verdict.status == "equivalent":
        moves = [(m.table, m.row, m.multiplier) for m in verdict.witness]
        if truth.replay(v1, moves, TABLES) != v2:
            raise WrongAnswer("witness does not replay")
    return True


class PcSplitN5:
    """Word-level partial conjugation of a split 5-strand clasp vector,
    then closure equivalence of that result with the table-row result."""

    name = "pc-split-n5"
    # bound 10 gives braid words of about 4k letters, bound 2 about 1k
    cells = (2, 2, 2, 2, 10)
    tail_percentile = 95.0

    def generate(self, rng, blocks=80):
        from linkhom.claspers import ClaspVector
        from linkhom.closure import PartialConjugation

        rows = TABLES["n5-split-generating"]
        ops = []
        for bound in _blocks(rng, self.cells, blocks):
            row = rng.choice(rows)
            v = truth.random_vector(rng, 5, bound, 2)
            moved = truth.apply_row(v, row, 1)
            ops.append(Op(
                f"bound{bound}",
                (ClaspVector(5, v), PartialConjugation(*row["pc"]), ClaspVector(5, moved)),
                moved,
            ))
        return ops

    def warm_up(self):
        warm_generator_matrices((2, 3, 4, 5))
        warm_clasp_caches((4, 5))

    def run(self, op):
        from linkhom import closure

        v, pc, moved = op.args
        word = closure.partial_conjugate(v, pc)
        return word, closure.closure_equivalent(word, moved)

    def check(self, op, result):
        word, verdict = result
        moved = op.expect
        for degree in (1, 2, 3):
            if truth.degree_part(word.nu, degree) != truth.degree_part(moved, degree):
                raise WrongAnswer(f"word and table results differ in degree {degree}")
        return _verdict(verdict, "equivalent", word.nu, moved)


class ClosureDecide:
    """closure_equivalent on pairs equivalent by table-move replay or
    distinct by a perturbed invariant clasp number."""

    name = "closure-decide"
    # n -> (lowest random degree, tables replayed, degrees a distinct pair may
    # perturb); n = 5 vectors are split, with every degree-1 value zero
    spec = {
        4: (1, ("n4-partial-conjugations", "n4-closure-moves"), (1, 2, 3)),
        5: (2, ("n5-split-generating", "n5-split-closure-moves"), (2, 3, 4)),
    }

    cells = tuple((n, band, kind) for n in (4, 5) for band in (1, 10**3, 10**6)
                  for kind in ("equivalent", "distinct"))
    tail_percentile = 95.0

    def generate(self, rng, blocks=250):
        from linkhom.claspers import ClaspVector

        ops = []
        for n, band, kind in _blocks(rng, self.cells, blocks):
            min_degree, names, degrees = self.spec[n]
            v = truth.random_vector(rng, n, band, min_degree)
            moves = truth.random_moves(rng, TABLES, names, rng.randint(1, 6))
            if kind == "equivalent":
                v1, v2 = v, truth.replay(v, moves, TABLES)
            else:
                v1, moved, seq = truth.invariant_perturbation(rng, v, n, degrees)
                v2 = truth.replay(moved, moves, TABLES)
                if v2.get(seq, 0) == v1.get(seq, 0):
                    raise AssertionError("perturbed clasp number was not invariant")
            ops.append(Op(f"n{n}-{band}-{kind}",
                          (ClaspVector(n, v1), ClaspVector(n, v2)), kind))
        return ops

    def warm_up(self):
        warm_clasp_caches((4, 5))

    def run(self, op):
        from linkhom import closure

        return closure.closure_equivalent(*op.args)

    def check(self, op, verdict):
        v1, v2 = op.args
        return _verdict(verdict, op.expect, v1.nu, v2.nu)


class BraidEq:
    """braid_equal_lh on a random word against the same word with relators
    inserted, with or without one extra pure generator."""

    name = "braid-eq"
    # 20 word lengths on a geometric ladder from 20 to 800 letters at n = 4,
    # and 20 from 20 to 300 at n = 5, where a letter costs ~25 times more.
    # Neighbouring lengths differ by under 20%, so on a host whose speed
    # drifts, p50 and p95 move smoothly with the share of the run spent slow
    # instead of jumping from one length's latency to the next.
    cells = tuple((4, round(20 * 40 ** (k / 19))) for k in range(20)) + tuple(
        (5, round(20 * 15 ** (k / 19))) for k in range(20))
    tail_percentile = 95.0

    def generate(self, rng, blocks=20):
        from linkhom.braids import BraidWord

        ops = []
        for n, length in _blocks(rng, self.cells, blocks):
            w = truth.random_word(rng, n, length)
            equal = rng.random() < 0.5
            other = w
            if not equal:
                i = rng.randint(1, n - 1)
                j = rng.randint(i + 1, n)
                g = truth.pure_generator(n, i, j)
                other = w + (g if rng.random() < 0.5 else truth.invert(g))
            other = truth.insert_relators(rng, n, other, max(6, len(w) // 4))
            ops.append(Op(f"n{n}-len{length}", (BraidWord(n, w), BraidWord(n, other)), equal))
        return ops

    def warm_up(self):
        warm_generator_matrices((4, 5))

    def run(self, op):
        from linkhom import gamma

        return gamma.braid_equal_lh(*op.args)

    def check(self, op, equal):
        if equal is not op.expect:
            raise WrongAnswer(f"{op.stratum}: braid_equal_lh gave {equal}")
        return True


# ---------------------------------------------------------------------------
# cli-cold


SUBCOMMANDS = ("basis", "nf", "act", "gamma", "braid-eq", "clasp", "build",
               "pc", "closure-eq", "tables")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliCold:
    """One ``linkhom`` subcommand per fresh interpreter."""

    name = "cli-cold"
    trace_dir: Path | None = None  # set for a traced run: children record spans
    children = 0
    exit_code_mismatches = 0

    cells = tuple((sub, n) for sub in SUBCOMMANDS for n in (3, 4, 5))
    tail_percentile = 75.0

    def generate(self, rng, blocks=6):
        work = OUT / "cli"
        work.mkdir(parents=True, exist_ok=True)
        ops = []
        for k, (sub, n) in enumerate(_blocks(rng, self.cells, blocks)):
            ops.append(getattr(self, "_" + sub.replace("-", "_"))(rng, n, k, work))
        return ops

    def _file(self, work, k, tag, n, v):
        path = work / f"op{k}-{tag}.json"
        path.write_text(json.dumps({
            "n": n, "order": "degree-lex",
            "nu": {".".join(map(str, s)): x for s, x in v.items()},
        }))
        return str(path)

    def _basis(self, rng, n, k, work):
        return Op("basis", ("basis", "-n", str(n)), (0, n))

    def _nf(self, rng, n, k, work):
        word = [(rng.randint(1, n), rng.choice((1, -1))) for _ in range(10)]
        text = truth.format_x_word(word)
        return Op("nf", ("nf", "-n", str(n), text), (0, truth.exponent_sums(n, text)))

    def _act(self, rng, n, k, work):
        braid = truth.random_word(rng, n, 8)
        text = truth.format_x_word([(rng.randint(1, n), rng.choice((1, -1))) for _ in range(5)])
        expect = truth.abelian_image(n, braid, truth.exponent_sums(n, text))
        return Op("act", ("act", "-n", str(n), truth.format_braid(braid), text), (0, expect))

    def _gamma(self, rng, n, k, work):
        braid = truth.random_word(rng, n, 8)
        return Op("gamma", ("gamma", "-n", str(n), truth.format_braid(braid)), (0, (n, braid)))

    def _braid_eq(self, rng, n, k, work):
        w = truth.random_word(rng, n, 16)
        equal = rng.random() < 0.5
        other = w if equal else w + truth.pure_generator(n, 1, n)
        other = truth.insert_relators(rng, n, other, 6)
        return Op("braid-eq", ("braid-eq", "-n", str(n), truth.format_braid(w),
                               truth.format_braid(other)), (0 if equal else 1, equal))

    def _clasp(self, rng, n, k, work):
        v = truth.random_vector(rng, n, 1, 1)
        return Op("clasp", ("clasp", "-n", str(n), truth.format_braid(truth.vector_braid(n, v))),
                  (0, v))

    def _build(self, rng, n, k, work):
        v = truth.random_vector(rng, n, 2, 1)
        return Op("build", ("build", self._file(work, k, "v", n, v)), (0, (n, v)))

    def _pc(self, rng, n, k, work):
        if n == 3:
            v = truth.random_vector(rng, 3, 2, 1)
            i, j = rng.sample((1, 2, 3), 2)
            pc, row = (i, j, 1), None
        else:
            table = "n4-partial-conjugations" if n == 4 else "n5-split-generating"
            v = truth.random_vector(rng, n, 2, 1 if n == 4 else 2)
            row = rng.choice(TABLES[table])
            pc = row["pc"]
        expect = truth.apply_row(v, row, 1) if row else v
        args = ("pc", self._file(work, k, "v", n, v), "-i", str(pc[0]), "-j", str(pc[1]),
                "--sign", str(pc[2]))
        return Op("pc", args, (0, (n, expect)))

    def _closure_eq(self, rng, n, k, work):
        n = 4 if n == 3 else n
        min_degree, names, degrees = ClosureDecide.spec[n]
        v = truth.random_vector(rng, n, 2, min_degree)
        moves = truth.random_moves(rng, TABLES, names, 3)
        if rng.random() < 0.5:
            v1, v2, code = v, truth.replay(v, moves, TABLES), 0
        else:
            v1, moved, _seq = truth.invariant_perturbation(rng, v, n, degrees)
            v2, code = truth.replay(moved, moves, TABLES), 1
        args = ("closure-eq", self._file(work, k, "a", n, v1), self._file(work, k, "b", n, v2))
        return Op("closure-eq", args, (code, (v1, v2)))

    def _tables(self, rng, n, k, work):
        return Op("tables", ("tables",), (0, None))

    def warm_up(self):
        # set-up is the import alone: every child builds its own caches
        import linkhom.cli  # noqa: F401

    def run(self, op):
        command = [*op.args, "--format", "json"]
        if self.trace_dir is None:
            command = [sys.executable, "-m", "linkhom.cli", *command]
        else:
            child = Path(__file__).resolve().parent / "cli_child.py"
            out = self.trace_dir / f"child{self.children}.json"
            command = [sys.executable, str(child), str(out), *command]
        self.children += 1
        return subprocess.run(command, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=150)

    def check(self, op, proc):
        code, expect = op.expect
        if proc.returncode != code:
            if op.stratum in ("braid-eq", "closure-eq") and proc.returncode in (0, 1):
                raise WrongAnswer(f"{op.stratum} answered with exit code {proc.returncode}")
            self.exit_code_mismatches += 1
            return False
        out = json.loads(proc.stdout)
        getattr(self, "_check_" + op.stratum.replace("-", "_"))(out, expect)
        return True

    @staticmethod
    def _check_basis(out, n):
        keys = out["basis"]
        seqs = [tuple(int(p) for p in key.split(".")) for key in keys]
        if len(set(seqs)) != truth.basis_count(n) or len(seqs) != truth.basis_count(n):
            raise WrongAnswer(f"basis of rank {n} has {len(seqs)} elements")
        for s in seqs:
            if s[0] != min(s) or len(set(s)) != len(s) or max(s) > n:
                raise WrongAnswer(f"{s} is not a basic commutator")
        if [len(s) for s in seqs] != sorted(len(s) for s in seqs):
            raise WrongAnswer("basis is not ordered by weight")

    @staticmethod
    def _check_nf(out, sums):
        coeffs = out["coefficients"]
        if [coeffs.get(str(k + 1), 0) for k in range(len(sums))] != sums:
            raise WrongAnswer("weight-1 exponents differ from the exponent sums")

    @staticmethod
    def _check_act(out, sums):
        if truth.exponent_sums(len(sums), out["word"]) != sums:
            raise WrongAnswer("image has the wrong exponent sums")

    @staticmethod
    def _check_gamma(out, expect):
        n, braid = expect
        seqs = [tuple(int(p) for p in key.split(".")) for key in out["basis_order"]]
        rows = out["rows"]
        if len(seqs) != truth.basis_count(n) or len(rows) != len(seqs):
            raise WrongAnswer("matrix does not match the basis size")
        where = {s: r for r, s in enumerate(seqs)}
        for c, col in enumerate(seqs):
            for r, row in enumerate(seqs):
                if len(row) < len(col) and rows[r][c]:
                    raise WrongAnswer("matrix is not block triangular by weight")
            if len(col) == 1:
                unit = [0] * n
                unit[col[0] - 1] = 1
                image = truth.abelian_image(n, braid, unit).index(1) + 1
                for k in range(1, n + 1):
                    if rows[where[(k,)]][c] != (1 if k == image else 0):
                        raise WrongAnswer("weight-1 block is not the braid permutation")

    @staticmethod
    def _check_braid_eq(out, equal):
        if out["equal"] is not equal:
            raise WrongAnswer("braid-eq answered wrongly")

    @staticmethod
    def _nu(out):
        return {tuple(int(p) for p in key.split(".")): x for key, x in out["nu"].items()}

    def _check_clasp(self, out, v):
        if self._nu(out) != v:
            raise WrongAnswer("clasp numbers differ from the constructed vector")

    @staticmethod
    def _check_build(out, expect):
        n, v = expect
        word = truth.parse_braid(out["braid"])
        if truth.linking_numbers(n, word) != truth.degree_part(v, 1):
            raise WrongAnswer("built braid has the wrong linking numbers")

    def _check_pc(self, out, expect):
        n, moved = expect
        got = self._nu(out)
        for degree in range(1, n - 1):
            if truth.degree_part(got, degree) != truth.degree_part(moved, degree):
                raise WrongAnswer(f"pc result differs from the table in degree {degree}")

    @staticmethod
    def _check_closure_eq(out, expect):
        v1, v2 = expect
        if out["status"] == "equivalent":
            moves = [(m["table"], m["row"], m["multiplier"]) for m in out["witness"]]
            if truth.replay(v1, moves, TABLES) != v2:
                raise WrongAnswer("closure-eq witness does not replay")

    @staticmethod
    def _check_tables(out, _expect):
        for name, rows in out.items():
            for row in rows:
                want = TABLES[name][row["row"] - 1]
                got = sorted((tuple(int(p) for p in t.split(".")),
                              tuple((tuple(int(p) for p in s.split(".")), sign)
                                    for s, sign in pairs))
                             for t, pairs in row["increments"].items())
                if got != sorted(want["increments"]):
                    raise WrongAnswer(f"table {name} row {row['row']} differs from the data")
        if {k: len(v) for k, v in out.items()} != {k: len(v) for k, v in TABLES.items()}:
            raise WrongAnswer("tables output is missing rows")


WORKLOADS = {w.name: w for w in (PcSplitN5(), ClosureDecide(), BraidEq(), CliCold())}
