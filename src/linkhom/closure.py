"""Closure equivalence of pure braids: partial conjugations and move tables.

Two pure braids close to the same link, up to link-homotopy, exactly when
a sequence of partial conjugations joins them.  An i-th partial
conjugation splits a braid as (part not using strand i) * (loop class of
strand i) and conjugates the second factor by a generator of the free
part.  :func:`partial_conjugate` performs this on the probe columns of
the faithful representation: it applies the comb powers of the moved
braid to them through cached comb kernels and reads the clasp numbers
off the result, with no table input and no braid word.

For 3 and 4 strands, and for 5 strands when all pairwise degree-1
numbers vanish, the effect of every generating partial conjugation on
clasp numbers is a fixed increment table, embedded in
``move_tables.json`` alongside the closure-preserving conjugation moves
used to normalise the top degree.  The six 3-strand rows are the values
of :func:`partial_conjugate` on unit vectors; the tests derive them
again.  :func:`closure_equivalent` decides orbit membership degree by
degree.  Degree-1 values never move: unequal means distinct.  Each moving
degree then runs one layer step, an exact integer-lattice membership of
the residual among the changes of its generators: the table rows and,
where these cannot reach the target, the loops of the degree below.  At
3 strands the first moving degree is degree 1, which never moves.  Each
generator enters the witness in a compact form whose length does not
grow with its count.

There is no search, so the decision is total: Unknown means only that the
input is out of scope (5 strands with nonzero linking numbers).

Every Equivalent verdict carries a move-sequence witness and is replayed
before being returned; every Distinct verdict names the separating
invariant.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, partial
from importlib import resources

from .braids import BraidError, CertificationError
from .claspers import (
    ClaspVector,
    CombClasper,
    _json_int,
    comb_power_product,
    enumerate_comb_claspers,
    read_clasp_numbers,
)
from .intlattice import IntegerLattice, gcd_all
from .reduced_free import binomial

EQUIVALENT = "equivalent"
DISTINCT = "distinct"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class PartialConjugation:
    """Conjugate the loop class of ``strand`` by the generator of ``conjugator``."""

    strand: int
    conjugator: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.strand == self.conjugator:
            raise BraidError("partial conjugation needs two distinct strands")
        if min(self.strand, self.conjugator) < 1:
            raise BraidError("strand indices start at 1")
        if self.sign not in (1, -1):
            raise BraidError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True)
class MoveRow:
    """One table row: for each target sequence, the signed source sequences
    whose current values add onto it."""

    table: str
    n: int
    row: int
    pc: tuple[int, int, int] | None
    increments: tuple[tuple[tuple[int, ...], tuple[tuple[tuple[int, ...], int], ...]], ...]

    def targets(self) -> list[tuple[int, ...]]:
        return [t for t, _ in self.increments]

    def to_json(self) -> dict:
        return {
            "table": self.table,
            "n": self.n,
            "row": self.row,
            "pc": list(self.pc) if self.pc else None,
            "increments": {
                ".".join(map(str, t)): [[".".join(map(str, s)), sign] for s, sign in pairs]
                for t, pairs in self.increments
            },
        }


@dataclass(frozen=True)
class Move:
    """A replayable witness step: apply a table row with a multiplier."""

    table: str
    row: int
    multiplier: int

    def to_json(self) -> dict:
        return {"table": self.table, "row": self.row, "multiplier": self.multiplier}

    @classmethod
    def from_json(cls, data: dict) -> "Move":
        try:
            row, multiplier = _json_int(data["row"]), _json_int(data["multiplier"])
            return cls(str(data["table"]), row, multiplier)
        except (KeyError, TypeError) as exc:
            raise BraidError(f"invalid move object: {exc!r}") from exc


@dataclass
class OrbitVerdict:
    """Outcome of a closure-equivalence decision."""

    status: str
    witness: list[Move] | None = None
    invariant: str | None = None
    note: str | None = None

    def to_json(self) -> dict:
        out: dict = {
            "status": self.status,
            "witness": [m.to_json() for m in self.witness] if self.witness is not None else None,
            "invariant": self.invariant,
        }
        if self.note:
            out["note"] = self.note
        return out


def _seq(key: str) -> tuple[int, ...]:
    return tuple(int(p) for p in key.split("."))


def _validate_row(row: MoveRow) -> None:
    targets = set(row.targets())
    for target, pairs in row.increments:
        for source, sign in pairs:
            if len(source) >= len(target):
                raise BraidError(
                    f"{row.table} row {row.row}: source {source} not of lower degree than {target}"
                )
            if sign not in (1, -1):
                raise BraidError(f"{row.table} row {row.row}: bad sign {sign}")
            if source in targets:
                raise BraidError(
                    f"{row.table} row {row.row}: {source} is both source and target"
                )
        CombClasper(target)


@lru_cache(maxsize=None)
def _embedded_tables() -> dict[str, tuple[MoveRow, ...]]:
    raw = json.loads(resources.files("linkhom").joinpath("move_tables.json").read_text())
    tables: dict[str, list[MoveRow]] = {}
    for entry in raw:
        increments = tuple(
            sorted(
                (
                    _seq(target),
                    tuple((_seq(source), int(sign)) for source, sign in pairs),
                )
                for target, pairs in entry["increments"].items()
            )
        )
        row = MoveRow(
            table=entry["table"],
            n=int(entry["n"]),
            row=int(entry["row"]),
            pc=tuple(entry["pc"]) if entry["pc"] else None,
            increments=increments,
        )
        _validate_row(row)
        tables.setdefault(row.table, []).append(row)
    for name, rows in tables.items():
        rows.sort(key=lambda r: r.row)
        if [r.row for r in rows] != list(range(1, len(rows) + 1)):
            raise BraidError(f"table {name} has gaps in its row numbering")
    return {name: tuple(rows) for name, rows in tables.items()}


def move_tables() -> dict[str, tuple[MoveRow, ...]]:
    """The embedded move tables, keyed by table id."""
    return dict(_embedded_tables())


def apply_table_move(v: ClaspVector, row: MoveRow, multiplier: int) -> ClaspVector:
    """Add ``multiplier`` times each row increment, reading sources from ``v``.

    Sources are disjoint from targets within a row (validated at load), so
    the multiplier-k move coincides with k single applications.
    """
    if row.n != v.n:
        raise BraidError(f"table row for n={row.n} applied to a vector with n={v.n}")
    if multiplier == 0:
        return v
    changes: dict[tuple[int, ...], int] = {}
    for target, pairs in row.increments:
        delta = sum(sign * v.get(source) for source, sign in pairs)
        if delta:
            changes[target] = v.get(target) + multiplier * delta
    return v.updated(changes) if changes else v


def replay_witness(v: ClaspVector, witness: list[Move]) -> ClaspVector:
    for move in witness:
        v = apply_table_move(v, get_row(move.table, move.row, v.n), move.multiplier)
    return v


# ---------------------------------------------------------------------------
# Partial conjugation on the probe columns.


def partial_conjugate(v: ClaspVector, pc: PartialConjugation) -> ClaspVector:
    """Clasp numbers after an i-th partial conjugation, for any n.

    With b the comb product of ``v`` and i = ``pc.strand``, the braid splits
    as theta * (theta^-1 b), theta the sub-braid of the strands other than
    i.  Forgetting strand i keeps exactly the combs that avoid it, so theta
    is the comb product of those entries of ``v``.  The moved braid wraps
    the second factor in lambda, the degree-1 comb of ``pc``:
    theta lambda theta^-1 b lambda^-1.  Its comb powers are applied to the
    probe block through the cached comb kernels and the result is read
    out; no braid word is built and no table is involved.
    """
    from .gamma import probe_block  # imported here: decisions on tables need no numpy

    n = v.n
    i, j = pc.strand, pc.conjugator
    if max(i, j) > n:
        raise BraidError(f"strands ({i},{j}) out of range for a braid on {n} strands")
    b = [(c, e) for c in enumerate_comb_claspers(n) if (e := v.get(c.sequence))]
    theta = [(c, e) for c, e in b if i not in c.sequence]
    lam = CombClasper((min(i, j), max(i, j)))
    moved = (
        theta
        + [(lam, pc.sign)]
        + [(c, -e) for c, e in reversed(theta)]
        + b
        + [(lam, -pc.sign)]
    )
    return read_clasp_numbers(n, comb_power_product(moved, n, probe_block(n)))


def get_row(table: str, row: int, n: int | None = None) -> MoveRow:
    try:
        rows = _embedded_tables()[table]
    except KeyError as exc:
        raise BraidError(f"unknown move table {table!r}") from exc
    if not 1 <= row <= len(rows):
        raise BraidError(f"table {table} has no row {row}")
    found = rows[row - 1]
    if n is not None and found.n != n:
        raise BraidError(f"table {table} is for n={found.n}, not n={n}")
    return found


# ---------------------------------------------------------------------------
# Complete invariants for at most 3 strands.


def milnor_triplet(v: ClaspVector) -> tuple[tuple[int, int, int], int]:
    """Complete 3-component closure invariant: degree-1 values and the
    triple number reduced modulo their gcd (kept exact when the gcd is 0)."""
    if v.n != 3:
        raise BraidError(f"triple invariant needs n=3, got n={v.n}")
    d1 = (v.get((1, 2)), v.get((1, 3)), v.get((2, 3)))
    g = gcd_all(d1)
    t = v.get((1, 2, 3))
    return d1, (t % g if g else t)


# ---------------------------------------------------------------------------
# The layered decision procedure.


@lru_cache(maxsize=None)
def _degree_seqs(n: int, degree: int) -> tuple[tuple[int, ...], ...]:
    return tuple(c.sequence for c in enumerate_comb_claspers(n) if c.degree == degree)


def _values(v: ClaspVector, seqs: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    return tuple(v.get(s) for s in seqs)


def _increment_vector(row: MoveRow, seqs: tuple[tuple[int, ...], ...], lookup) -> tuple[int, ...]:
    """Row increments on the given targets, sources read through ``lookup``."""
    incs = dict(row.increments)
    out = []
    for seq in seqs:
        pairs = incs.get(seq, ())
        out.append(sum(sign * lookup(source) for source, sign in pairs))
    return tuple(out)


def _sub(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


_Steps = list[tuple[MoveRow, int]]


def _run(v: ClaspVector, steps: _Steps) -> ClaspVector:
    for row, m in steps:
        v = apply_table_move(v, row, m)
    return v


def _commutator(a: MoveRow, b: MoveRow, m: int) -> _Steps:
    """Row steps (a, m)(b, 1)(a, -m)(b, -1)."""
    return [(a, m), (b, 1), (a, -m), (b, -1)]


def _kernel_loop_power(loop: _Steps, c: int) -> _Steps:
    """The kernel loop [(r, k_r)] c times: one pass [(r, c k_r)], then the
    commutator with m = -C(c, 2) k_p k_q for each pair p < q (see
    ``_layered_decision``)."""
    steps = [(row, c * k) for row, k in loop]
    for (p, kp), (q, kq) in itertools.combinations(loop, 2):
        if m := -binomial(c, 2) * kp * kq:
            steps += _commutator(p, q, m)
    return steps


def _loops(rows: tuple[MoveRow, ...], relations: list[list[int]]):
    """Powers of the loops that return the degree of ``rows``: one per
    relation among their changes there, then each pair's commutator."""
    for relation in relations:
        yield partial(_kernel_loop_power, [(row, k) for row, k in zip(rows, relation) if k])
    for a, b in itertools.combinations(rows, 2):
        yield partial(_commutator, a, b)


def _certify(v1: ClaspVector, v2: ClaspVector, witness: list[Move]) -> OrbitVerdict:
    if replay_witness(v1, witness) != v2:
        raise CertificationError("witness failed to replay")
    return OrbitVerdict(EQUIVALENT, witness)


def _layered_decision(
    v1: ClaspVector,
    v2: ClaspVector,
    gen_rows: tuple[MoveRow, ...],
    free_rows: tuple[MoveRow, ...],
    mid_degree: int,
    top_degree: int,
) -> OrbitVerdict:
    """Decide the orbit on the mid and top degrees; total on its inputs.

    Every row step is simulated on the clasp vector by
    :func:`apply_table_move`.  On the two degrees that step acts as
    mid += D_r and top += C_r + L_r(mid): D_r is its constant mid
    increment, L_r the linear part of its top increment.  Within a row
    the sources are disjoint from the targets (checked by
    ``_validate_row``), so L_r D_r = 0.  This affine form is what makes
    each layer exact.

    Both degrees run one layer step on a lattice of generators: changes
    of that degree, each with its count-c power as row steps.  Outside
    the lattice is Distinct; inside, the solution is reduced modulo the
    lattice's relations and each count expanded into row steps, for a
    row the step (r, c).  The mid generators are ``gen_rows``.  The top
    ones are ``free_rows``, whose sources lie below the mid degree, and,
    only when these cannot reach the target, each mid loop that adds a
    new change: the kernel loop [(r, k_r)] of each relation
    sum_r k_r D_r = 0, and the commutator of each pair of rows.  Any
    other loop that returns the mid values with the same aggregate row
    multipliers differs from these by commutator terms, so the top
    membership is exact too.

    The commutator (a, m)(b, 1)(a, -m)(b, -1) changes the top by
    m (L_b D_a - L_a D_b) whatever its base point.  So a commutator loop
    with count c is the single commutator with m = c.  A kernel loop with
    count c is one pass [(r, c k_r)] plus corrections: the pass overshoots
    c repetitions by (c^2 - c) sum_{p<q} k_p k_q L_q D_p, and since
    sum_r k_r D_r = 0 this equals
    C(c, 2) sum_{p<q} k_p k_q (L_q D_p - L_p D_q), which is the
    commutator with m = -C(c, 2) k_p k_q for each pair p < q.  This holds
    for negative c as well, and C(c, 2) is an integer.  So the witness
    length does not depend on the counts.  It lists the mid steps, then
    the top powers.  Each top power returns the lower degrees, which are
    all that the top changes read, so their order does not matter;
    ``_certify`` replays the witness.
    """
    layers = (
        (mid_degree, gen_rows, "partial-conjugation increments"),
        (top_degree, free_rows,
         "increments realizable by partial conjugations and closure moves"),
    )
    w, path, below = v1, [], None
    for degree, rows, spanned_by in layers:
        seqs = _degree_seqs(v1.n, degree)
        start, target = _values(w, seqs), _values(v2, seqs)
        lattice = IntegerLattice(len(seqs), [_increment_vector(row, seqs, w.get) for row in rows])
        delta = _sub(target, start)
        solution = lattice.solve(delta)
        powers = []  # of the loops that enter the lattice after the rows
        if solution is None and below:
            below_seqs, loops = below
            returned = _values(w, below_seqs)
            for power in loops:
                end = _run(w, power(1))
                if _values(end, below_seqs) != returned:
                    raise CertificationError(
                        f"a top-degree loop moves the degree-{mid_degree} values"
                    )
                change = _sub(_values(end, seqs), start)
                if change not in lattice:
                    lattice.add(change)
                    powers.append(power)
            solution = lattice.solve(delta)
        if solution is None:
            return OrbitVerdict(
                DISTINCT,
                invariant=f"degree-{degree} clasp numbers modulo the lattice of {spanned_by}",
            )
        if lattice.kernel:
            solution = IntegerLattice(len(solution), lattice.kernel).canonical(solution)
        steps = [(row, c) for row, c in zip(rows, solution) if c]
        steps += [s for power, c in zip(powers, solution[len(rows):]) if c for s in power(c)]
        path += steps
        if degree != top_degree:  # the top degree is checked by the replay
            w = _run(w, steps)
            if _values(w, seqs) != target:
                raise CertificationError(
                    f"degree-{degree} lattice solution does not reach the target"
                )
            below = (seqs, _loops(rows, lattice.kernel))
    return _certify(v1, v2, [Move(row.table, row.row, m) for row, m in path])


def closure_equivalent(
    v1: ClaspVector, v2: ClaspVector, budget: object = None
) -> OrbitVerdict:
    """Decide whether two clasp vectors have link-homotopic closures.

    The decision is total for n <= 4 and for n = 5 when both vectors are
    algebraically split (all degree-1 values zero).  Equivalent verdicts
    carry a replayed witness; Distinct verdicts name a separating
    invariant; Unknown means only that the input is out of scope: n = 5
    with nonzero linking numbers.  Witness multipliers can run to
    thousands of digits.

    The third parameter is ignored; it is kept for callers that pass a budget.
    """
    if v1.n != v2.n:
        raise BraidError(f"strand counts differ: {v1.n} != {v2.n}")
    n = v1.n
    if n > 5:
        raise BraidError("the table-driven decision is implemented for n <= 5 only")

    if _values(v1, _degree_seqs(n, 1)) != _values(v2, _degree_seqs(n, 1)):
        return OrbitVerdict(
            DISTINCT, invariant="degree-1 clasp numbers (pairwise linking numbers)"
        )
    if v1 == v2:
        return _certify(v1, v2, [])
    if n == 5:
        if any(_values(v1, _degree_seqs(5, 1))):
            return OrbitVerdict(
                UNKNOWN,
                note="5-component decision is implemented only for algebraically "
                "split vectors (all degree-1 values zero)",
            )
        if _values(v1, _degree_seqs(5, 2)) != _values(v2, _degree_seqs(5, 2)):
            return OrbitVerdict(
                DISTINCT,
                invariant="degree-2 clasp numbers (invariant when all linking numbers vanish)",
            )
    tables = _embedded_tables()
    if n == 3:
        rows, moves = tables["n3-partial-conjugations"], ()
    elif n == 4:
        rows, moves = tables["n4-generating"], tables["n4-closure-moves"]
    else:
        rows, moves = tables["n5-split-generating"], tables["n5-split-closure-moves"]
    # the mid degree is n - 2 (at n = 3 it is degree 1, which never moves)
    # and the top degree is n - 1
    return _layered_decision(v1, v2, rows, moves, n - 2, n - 1)
