"""Ground truth for the benchmark, kept independent of the code under test.

Nothing here imports ``linkhom``.  Braid words are tuples of ``(i, sign)``
letters, clasp vectors are plain ``{sequence: value}`` dicts without zero
entries, and the move tables are read straight from the JSON data file.
Every expected answer the benchmark checks comes from one of:

* construction: replaying table rows, or inserting presentation relators
  into a braid word, never changes the class of the input;
* invariants: linking numbers, exponent sums, the basis count, the block
  structure of the representation, and clasp numbers that no move can
  change once every lower degree is zero.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

Letter = tuple[int, int]
Word = tuple[Letter, ...]
Vector = dict[tuple[int, ...], int]


# ---------------------------------------------------------------------------
# Move tables and clasp vectors.


def _seq(key: str) -> tuple[int, ...]:
    return tuple(int(p) for p in key.split("."))


def load_tables(path: Path) -> dict[str, list[dict]]:
    """Rows of every table in ``move_tables.json``, ordered by row number.

    Each row is ``{"row", "pc", "increments"}`` with ``increments`` a list
    of ``(target, ((source, sign), ...))``.
    """
    tables: dict[str, list[dict]] = {}
    for entry in json.loads(path.read_text()):
        tables.setdefault(entry["table"], []).append({
            "row": int(entry["row"]),
            "pc": tuple(entry["pc"]) if entry["pc"] else None,
            "increments": [
                (_seq(t), tuple((_seq(s), int(sign)) for s, sign in pairs))
                for t, pairs in entry["increments"].items()
            ],
        })
    for rows in tables.values():
        rows.sort(key=lambda r: r["row"])
    return tables


def combs(n: int) -> list[tuple[int, ...]]:
    """Comb sequences on n strands: distinct entries, minimal first, maximal
    last, ordered by degree and then lexicographically."""
    out = []
    for size in range(2, n + 1):
        for support in itertools.combinations(range(1, n + 1), size):
            for middle in itertools.permutations(support[1:-1]):
                out.append((support[0],) + middle + (support[-1],))
    out.sort(key=lambda s: (len(s), s))
    return out


def apply_row(v: Vector, row: dict, multiplier: int) -> Vector:
    """Add ``multiplier`` times each increment; sources are read from ``v``."""
    out = dict(v)
    for target, pairs in row["increments"]:
        delta = sum(sign * v.get(source, 0) for source, sign in pairs)
        value = v.get(target, 0) + multiplier * delta
        if value:
            out[target] = value
        else:
            out.pop(target, None)
    return out


def replay(v: Vector, moves, tables: dict[str, list[dict]]) -> Vector:
    """Apply ``(table, row, multiplier)`` moves in order."""
    for table, row, multiplier in moves:
        v = apply_row(v, tables[table][row - 1], multiplier)
    return v


def degree_part(v: Vector, degree: int) -> Vector:
    return {s: x for s, x in v.items() if len(s) == degree + 1}


def random_vector(rng: random.Random, n: int, bound: int, min_degree: int) -> Vector:
    out = {}
    for seq in combs(n):
        if len(seq) - 1 >= min_degree:
            value = rng.randint(-bound, bound)
            if value:
                out[seq] = value
    return out


def random_moves(rng: random.Random, tables: dict[str, list[dict]], names, count: int):
    moves = []
    for _ in range(count):
        name = rng.choice(names)
        moves.append((name, rng.randint(1, len(tables[name])), rng.choice((1, -1))))
    return moves


def invariant_perturbation(
    rng: random.Random, v: Vector, n: int, degrees: tuple[int, ...]
) -> tuple[Vector, Vector, tuple[int, ...]]:
    """Zero every degree below a random ``d`` and move one degree-d clasp
    number by one; returns the zeroed vector, the moved one and the moved
    sequence.

    Every table row adds to a target only multiples of strictly lower-degree
    sources, so once all degrees below ``d`` vanish no move changes any
    degree-d value: the result is distinct from the zeroed vector.
    """
    d = rng.choice(degrees)
    base = {s: x for s, x in v.items() if len(s) - 1 >= d}
    seq = rng.choice([s for s in combs(n) if len(s) - 1 == d])
    moved = dict(base)
    moved[seq] = moved.get(seq, 0) + rng.choice((1, -1))
    if not moved[seq]:
        del moved[seq]
    return base, moved, seq


# ---------------------------------------------------------------------------
# Braid words.


def invert(w: Word) -> Word:
    return tuple((i, -s) for i, s in reversed(w))


def pure_generator(n: int, i: int, j: int) -> Word:
    """A_ij = s_{j-1} .. s_{i+1} s_i^2 s_{i+1}^-1 .. s_{j-1}^-1."""
    if not 1 <= i < j <= n:
        raise ValueError(f"no pure generator A_{i},{j} on {n} strands")
    return (
        tuple((k, 1) for k in range(j - 1, i, -1))
        + ((i, 1), (i, 1))
        + tuple((k, -1) for k in range(i + 1, j))
    )


def commutator(a: Word, b: Word) -> Word:
    return a + b + invert(a) + invert(b)


def comb_braid(n: int, seq: tuple[int, ...]) -> Word:
    """Left-normed commutator [[A_{i1,m}, A_{i2,m}], ..] with m the last entry."""
    m = seq[-1]
    word = pure_generator(n, seq[0], m)
    for idx in seq[1:-1]:
        word = commutator(word, pure_generator(n, idx, m))
    return word


def vector_braid(n: int, v: Vector) -> Word:
    """Product of comb-braid powers in degree-lex order: the pure braid whose
    clasp numbers are ``v``."""
    out: list[Letter] = []
    for seq in combs(n):
        e = v.get(seq, 0)
        if e:
            block = comb_braid(n, seq) if e > 0 else invert(comb_braid(n, seq))
            out.extend(block * abs(e))
    return tuple(out)


def random_word(rng: random.Random, n: int, length: int) -> Word:
    return tuple((rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length))


def relator(rng: random.Random, n: int) -> Word:
    """A word trivial in the homotopy braid group.

    One of: a braid relation, a far commutation, or the link-homotopy
    relation [A_ij, l A_ij l^-1] with l a word in the A_kj, k < j
    (strand j may pass through itself).
    """
    kind = rng.randrange(3) if n >= 4 else rng.choice((0, 2))
    if kind == 0:
        i = rng.randint(1, n - 2)
        a, b = (i, 1), (i + 1, 1)
        r = (a, b, a) + invert((b, a, b))
    elif kind == 1:
        i = rng.randint(1, n - 3)
        j = rng.randint(i + 2, n - 1)
        r = commutator(((i, 1),), ((j, 1),))
    else:
        j = rng.randint(2, n)
        i = rng.randint(1, j - 1)
        a = pure_generator(n, i, j)
        lam: list[Letter] = []
        for _ in range(rng.randint(1, 2)):
            g = pure_generator(n, rng.randint(1, j - 1), j)
            lam.extend(g if rng.random() < 0.5 else invert(g))
        lam_t = tuple(lam)
        r = commutator(a, lam_t + a + invert(lam_t))
    return r if rng.random() < 0.5 else invert(r)


def insert_relators(rng: random.Random, n: int, w: Word, letters: int) -> Word:
    """Insert relators at random places, adding between ``letters - 6`` and
    ``letters`` letters (at least one relator; ``letters`` >= 6)."""
    out = list(w)
    left = letters
    while left >= 6 or left == letters:
        r = relator(rng, n)
        if len(r) <= left:
            at = rng.randint(0, len(out))
            out[at:at] = r
            left -= len(r)
    return tuple(out)


def linking_numbers(n: int, w: Word) -> Vector:
    """Pairwise linking numbers of a pure braid: half the signed crossings
    between each pair of strands."""
    perm = list(range(1, n + 1))
    twice: dict[tuple[int, int], int] = {}
    for i, sign in w:
        a, b = perm[i - 1], perm[i]
        key = (min(a, b), max(a, b))
        twice[key] = twice.get(key, 0) + sign
        perm[i - 1], perm[i] = b, a
    if perm != list(range(1, n + 1)):
        raise ValueError("linking numbers need a pure braid")
    return {k: v // 2 for k, v in twice.items() if v}


def abelian_image(n: int, w: Word, exponents: list[int]) -> list[int]:
    """Exponent sums of the image of a reduced-free-group element under the
    braid ``w``: each s_i swaps the sums of x_i and x_{i+1}, and the last
    letter of the word acts first."""
    out = list(exponents)
    for i, _sign in reversed(w):
        out[i - 1], out[i] = out[i], out[i - 1]
    return out


def format_braid(w: Word) -> str:
    return " ".join(f"s{i}" if s == 1 else f"s{i}^-1" for i, s in w)


def parse_braid(text: str) -> Word:
    out = []
    for token in text.split():
        body, _, exp = token.partition("^")
        out.append((int(body[1:]), -1 if exp else 1))
    return tuple(out)


def format_x_word(letters) -> str:
    return " ".join(f"x{k}" if s == 1 else f"x{k}^-1" for k, s in letters)


def exponent_sums(n: int, text: str) -> list[int]:
    out = [0] * n
    for token in text.split():
        body, _, exp = token.partition("^")
        out[int(body[1:]) - 1] += -1 if exp else 1
    return out


def basis_count(n: int) -> int:
    """Basic commutators of rank n: (w-1)! orderings of each w-subset."""
    return sum(math.comb(n, w) * math.factorial(w - 1) for w in range(1, n + 1))
