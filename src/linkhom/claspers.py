"""Clasp-number normal forms of pure braids.

Every pure braid is, up to link-homotopy, a unique ordered product of
powers of *comb* braids: one for each index sequence ``(i_1,..,i_l)``
with distinct entries, minimal first entry and maximal last entry.  The
comb braid of a sequence is the left-normed commutator
``[[..[A_{i_1,m}, A_{i_2,m}],..], A_{i_{l-1},m}]`` of pure generators,
where ``m = i_l``; for ``l = 2`` it is ``A_{i_1 i_2}`` itself.  The
integer exponents (*clasp numbers*) are a complete link-homotopy
invariant of the braid.

Extraction (:func:`extract_clasp_vector`) proceeds degree by degree.  The
key probe: the matrix of a comb braid sends the weight-one basis element
``(m)`` to ``(m) - (i_1,..,i_l)``, so restricting the braid to a support
set (forgetting the other strands) and applying the restricted matrix to
``(max)`` displays, with a minus sign, every clasp number with that exact
support.  After each degree the recognised ordered product is divided out
on the left and the next degree is processed.

Vectors are serialized as ``{"n": .., "order": "degree-lex",
"nu": {"1.2": .., ...}}`` with dot-joined sequences as keys.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .braids import (
    BraidError,
    BraidWord,
    CertificationError,
    compose,
    delete_strands,
    invert,
    pure_generator_word,
)
from .gamma import gamma_apply
from .reduced_free import BasicCommutator, enumerate_basic_commutators

CLASP_ORDER = "degree-lex"


@dataclass(frozen=True)
class CombClasper:
    """Index sequence with distinct entries, minimal first, maximal last."""

    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = self.sequence
        if len(seq) < 2:
            raise BraidError(f"comb sequence needs at least two strands, got {seq}")
        if len(set(seq)) != len(seq):
            raise BraidError(f"repeated strand in comb sequence {seq}")
        if seq[0] != min(seq) or seq[-1] != max(seq):
            raise BraidError(
                f"comb sequence {seq} must start at its minimum and end at its maximum"
            )

    @property
    def degree(self) -> int:
        return len(self.sequence) - 1

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.sequence)

    def key(self) -> str:
        return ".".join(map(str, self.sequence))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.sequence)) + ")"


@lru_cache(maxsize=None)
def enumerate_comb_claspers(n: int) -> tuple[CombClasper, ...]:
    """All comb sequences valid on n strands, by degree then lexicographically."""
    out: list[tuple[int, ...]] = []
    for size in range(2, n + 1):
        for support in itertools.combinations(range(1, n + 1), size):
            lo, hi = support[0], support[-1]
            for middle in itertools.permutations(support[1:-1]):
                out.append((lo,) + middle + (hi,))
    out.sort(key=lambda s: (len(s), s))
    return tuple(CombClasper(s) for s in out)


@lru_cache(maxsize=None)
def comb_clasper_braid(c: CombClasper, n: int) -> BraidWord:
    """Left-normed commutator of A_{i_k, max} generators realizing the comb."""
    seq = c.sequence
    if max(seq) > n:
        raise BraidError(f"comb sequence {seq} does not fit on {n} strands")
    m = seq[-1]
    word = pure_generator_word(n, seq[0], m)
    for idx in seq[1:-1]:
        nxt = pure_generator_word(n, idx, m)
        word = compose(word, nxt, invert(word), invert(nxt))
    return word


@dataclass(frozen=True)
class ClaspVector:
    """Clasp numbers of a pure braid on n strands, degree-lex order.

    ``nu`` maps comb sequences to integers; zero entries are dropped on
    construction so equality is value equality.
    """

    n: int
    nu: dict[tuple[int, ...], int] = field(default_factory=dict)
    order: str = CLASP_ORDER

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BraidError(f"strand count must be positive, got {self.n}")
        if self.order != CLASP_ORDER:
            raise BraidError(f"unsupported clasper order {self.order!r}")
        cleaned = {}
        for seq, value in self.nu.items():
            seq = tuple(seq)
            CombClasper(seq)
            if max(seq) > self.n:
                raise BraidError(f"comb sequence {seq} does not fit on {self.n} strands")
            if value:
                cleaned[seq] = int(value)
        object.__setattr__(self, "nu", cleaned)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClaspVector)
            and self.n == other.n
            and self.nu == other.nu
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.nu.items()))))

    def get(self, seq: tuple[int, ...]) -> int:
        return self.nu.get(tuple(seq), 0)

    def degree_part(self, degree: int) -> dict[tuple[int, ...], int]:
        return {s: v for s, v in self.nu.items() if len(s) == degree + 1}

    def degree_values(self, degree: int) -> tuple[int, ...]:
        """Values over all degree-``degree`` combs in enumeration order."""
        return tuple(
            self.get(c.sequence)
            for c in enumerate_comb_claspers(self.n)
            if c.degree == degree
        )

    def updated(self, changes: dict[tuple[int, ...], int]) -> "ClaspVector":
        out = dict(self.nu)
        for seq, value in changes.items():
            if value:
                out[tuple(seq)] = value
            else:
                out.pop(tuple(seq), None)
        return ClaspVector(self.n, out)

    def is_zero(self) -> bool:
        return not self.nu

    def to_json(self) -> dict:
        keys = sorted(self.nu, key=lambda s: (len(s), s))
        return {
            "n": self.n,
            "order": self.order,
            "nu": {".".join(map(str, s)): self.nu[s] for s in keys},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClaspVector":
        try:
            n = int(data["n"])
            order = data.get("order", CLASP_ORDER)
            nu = {
                tuple(int(p) for p in key.split(".")): int(value)
                for key, value in data.get("nu", {}).items()
            }
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise BraidError(f"invalid clasp vector object: {exc}") from exc
        return cls(n, nu, order)


def clasp_vector_to_braid(v: ClaspVector) -> BraidWord:
    """Ordered product of comb-braid powers in degree-lex order."""
    word = BraidWord.identity(v.n)
    for c in enumerate_comb_claspers(v.n):
        e = v.get(c.sequence)
        if e:
            word = word * comb_clasper_braid(c, v.n) ** e
    return word


def _probe_coefficients(word: BraidWord) -> dict[tuple[int, ...], int]:
    """Clasp numbers of full support read from one matrix-vector probe.

    ``word`` must be (link-homotopic to) a product of comb braids whose
    support is the full strand set.  Applies the word's matrix to the
    weight-one basis element of the last strand and reads the top-weight
    clasp-shaped coefficients; everything else must vanish.
    """
    rank = word.strands
    basis = enumerate_basic_commutators(rank)
    vec = np.zeros(len(basis), dtype=np.int64)
    probe = BasicCommutator((rank,))
    vec[basis.index_of(probe)] = 1
    vec = gamma_apply(word, vec, basis)

    out: dict[tuple[int, ...], int] = {}
    for k, alpha in enumerate(basis.elements):
        value = int(vec[k])
        if alpha == probe:
            if value != 1:
                raise CertificationError("probe readout lost the unit coefficient")
            continue
        seq = alpha.sequence
        full = alpha.weight == rank
        comb_shaped = full and seq[-1] == rank
        if comb_shaped:
            if value:
                out[seq] = -value
        elif value:
            raise CertificationError(f"probe readout has an unexpected coefficient at {alpha}")
    return out


def extract_clasp_vector(b: BraidWord) -> ClaspVector:
    """The unique clasp numbers of a pure braid.

    Degree by degree: for every support set the strand-forgetting
    restriction of the residual is probed, the recognised clasp numbers
    are recorded, and the ordered degree part is divided out on the left
    before moving on.
    """
    if not b.is_pure():
        raise BraidError("clasp numbers are defined for pure braids only")
    n = b.strands
    residual = b
    nu: dict[tuple[int, ...], int] = {}
    combs = enumerate_comb_claspers(n)
    for degree in range(1, n):
        for support in itertools.combinations(range(1, n + 1), degree + 1):
            restricted = delete_strands(residual, support)
            found = _probe_coefficients(restricted)
            for local_seq, value in found.items():
                global_seq = tuple(support[k - 1] for k in local_seq)
                nu[global_seq] = value
        peel = BraidWord.identity(n)
        for c in combs:
            if c.degree == degree and nu.get(c.sequence):
                peel = peel * comb_clasper_braid(c, n) ** nu[c.sequence]
        residual = compose(invert(peel), residual)
    return ClaspVector(n, nu)
