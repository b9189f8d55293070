"""The reduced free group and its square-free Magnus calculus.

The reduced free group RF_n is the quotient of the free group on
``x_1 .. x_n`` by all relations ``[x_i, w x_i w^{-1}] = 1``; equivalently,
every iterated commutator that uses some generator twice dies.  Elements
are stored as freely reduced words (:class:`ReducedWord`).

Three structures make RF_n computable:

* :class:`MagnusSeries`: the ring of integer polynomials in
  noncommuting variables ``X_1 .. X_n`` where any monomial with a repeated
  variable is zero.  The expansion ``x_i -> 1 + X_i`` is multiplicative on
  RF_n, the inverse letter expands to ``1 - X_i`` as ``X_i^2 = 0``, and
  powers are binomial sums that stop at degree ``rank``.

* :class:`BasicCommutator`: left-normed brackets
  ``[i_1,..,i_l] = [[..[x_{i_1},x_{i_2}],..],x_{i_l}]`` on distinct indices
  with ``i_1`` minimal.  Ordered by weight, these form a basis: every
  element of RF_n is an ordered product of their integer powers with
  unique exponents.

* :func:`rfg_normal_form`: computes those exponents by weight peeling.
  The expansion of ``[i_1,..,i_l]`` is ``1 + X_{i_1}..X_{i_l} + (tail)``
  where the tail has the same degree, uses each variable once, and never
  starts with ``X_{i_1}``; so once all lighter factors are peeled off, the
  coefficient of ``X_{i_1}..X_{i_l}`` in the residual series is exactly
  the exponent ``e`` of ``[i_1,..,i_l]``, peeled off by its ``-e`` power.

The braid group acts on RF_n through :func:`artin_act`.  The generator
images are pinned by the golden matrices of the linear representation
(see :mod:`linkhom.gamma`): sigma_i sends ``x_i -> x_{i+1}`` and
``x_{i+1} -> x_{i+1}^{-1} x_i x_{i+1}``, fixing the rest.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .braids import BraidError, BraidWord, CertificationError, free_reduce

Monomial = tuple[int, ...]
Letter = tuple[int, int]

_REDUCED_TOKEN = re.compile(r"^x(\d+)(\^-1)?$")


class RankError(ValueError):
    """Operands live over different ranks, or an index is out of range."""


@dataclass(frozen=True)
class ReducedWord:
    """A freely reduced word in the generators x_1 .. x_rank of RF_rank."""

    rank: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise RankError(f"rank must be positive, got {self.rank}")
        for idx, sign in self.letters:
            if not 1 <= idx <= self.rank:
                raise RankError(f"generator index {idx} out of range for rank {self.rank}")
            if sign not in (1, -1):
                raise RankError(f"letter sign must be +1 or -1, got {sign}")

    @classmethod
    def identity(cls, rank: int) -> "ReducedWord":
        return cls(rank, ())

    @classmethod
    def generator(cls, rank: int, k: int, sign: int = 1) -> "ReducedWord":
        return cls(rank, ((k, sign),))

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        if self.rank != other.rank:
            raise RankError(f"rank mismatch: {self.rank} != {other.rank}")
        return ReducedWord(self.rank, free_reduce(self.letters + other.letters))

    def __pow__(self, exponent: int) -> "ReducedWord":
        word = self if exponent >= 0 else self.inverse()
        return ReducedWord(self.rank, free_reduce(word.letters * abs(exponent)))

    def inverse(self) -> "ReducedWord":
        return ReducedWord(self.rank, tuple((i, -s) for i, s in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return " ".join(f"x{i}" if s == 1 else f"x{i}^-1" for i, s in self.letters)


def group_commutator(u: ReducedWord, v: ReducedWord) -> ReducedWord:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def parse_reduced_word(text: str, rank: int | None = None) -> ReducedWord:
    """Parse whitespace-separated ``x<k>`` / ``x<k>^-1`` tokens.

    Without ``rank`` the rank is the largest index in the word, at least 1.
    """
    tokens = text.split()
    letters: list[Letter] = []
    for token in tokens:
        m = _REDUCED_TOKEN.match(token)
        if not m:
            raise RankError(f"malformed token {token!r}")
        letters.append((int(m.group(1)), -1 if m.group(2) else 1))
    if rank is None:
        rank = max([1] + [idx for idx, _ in letters])
    for token, (idx, _) in zip(tokens, letters):
        if not 1 <= idx <= rank:
            raise RankError(f"token {token!r}: index out of range for rank {rank}")
    return ReducedWord(rank, tuple(letters))


# ---------------------------------------------------------------------------
# The square-free truncated Magnus ring.


@dataclass(frozen=True)
class MagnusSeries:
    """Integer combination of square-free monomials in X_1 .. X_rank.

    ``coefficients`` maps index tuples (the empty tuple is the constant
    term) to nonzero integers; monomials with repeated indices are never
    stored.
    """

    rank: int
    coefficients: dict[Monomial, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for mono in self.coefficients:
            if len(set(mono)) != len(mono):
                raise RankError(f"monomial {mono} has a repeated index")
            if mono and not all(1 <= i <= self.rank for i in mono):
                raise RankError(f"monomial {mono} out of range for rank {self.rank}")

    @classmethod
    def one(cls, rank: int) -> "MagnusSeries":
        return cls(rank, {(): 1})

    def coefficient(self, mono: Monomial) -> int:
        return self.coefficients.get(tuple(mono), 0)

    def __mul__(self, other: "MagnusSeries") -> "MagnusSeries":
        return series_multiply(self, other)

    def __pow__(self, exponent: int) -> "MagnusSeries":
        """``(c + Q)^e = sum_j C(e, j) c^(e - j) Q^j``, ``c`` the constant term, over
        ``j <= rank`` since ``Q^(rank + 1) = 0``; a negative ``e`` needs c = 1."""
        c = self.coefficient(())
        if exponent < 0 and c != 1:
            raise RankError("series is invertible here only with constant term 1")
        q = MagnusSeries(self.rank, {m: v for m, v in self.coefficients.items() if m})
        out: dict[Monomial, int] = {}
        term = MagnusSeries.one(self.rank)
        for j in range(min(exponent, self.rank) + 1 if exponent >= 0 else self.rank + 1):
            # c = 1 when e < 0, and 1 ** -2 would be the float 1.0
            scale = binomial(exponent, j) * (c ** (exponent - j) if exponent >= 0 else 1)
            for m, v in term.coefficients.items():
                out[m] = out.get(m, 0) + scale * v
            term = series_multiply(term, q)
            if not term.coefficients:
                break
        return MagnusSeries(self.rank, {m: v for m, v in out.items() if v})

    def is_one(self) -> bool:
        return self.coefficients == {(): 1}

    def to_json(self) -> dict:
        keys = sorted(self.coefficients, key=lambda m: (len(m), m))
        return {
            "rank": self.rank,
            "coefficients": {".".join(map(str, m)): self.coefficients[m] for m in keys},
        }


def series_multiply(a: MagnusSeries, b: MagnusSeries) -> MagnusSeries:
    """Distributive product; any concatenation with a repeated index is dropped."""
    if a.rank != b.rank:
        raise RankError(f"rank mismatch: {a.rank} != {b.rank}")
    out: dict[Monomial, int] = {}
    for ma, ca in a.coefficients.items():
        set_a = set(ma)
        for mb, cb in b.coefficients.items():
            if set_a & set(mb):
                continue
            mono = ma + mb
            val = out.get(mono, 0) + ca * cb
            if val:
                out[mono] = val
            else:
                out.pop(mono, None)
    return MagnusSeries(a.rank, out)


def binomial(e: int, j: int) -> int:
    """``C(e, j)`` for any integer ``e``: the coefficient of ``t^j`` in ``(1 + t)^e``."""
    return math.comb(e, j) if e >= 0 else (-1) ** j * math.comb(j - e - 1, j)


def _multiply_by_letter(series: MagnusSeries, k: int, sign: int) -> MagnusSeries:
    """series * (1 + sign X_k), exploiting X_k^2 = 0."""
    out = dict(series.coefficients)
    for mono, coeff in series.coefficients.items():
        if k in mono:
            continue
        new = mono + (k,)
        val = out.get(new, 0) + sign * coeff
        if val:
            out[new] = val
        else:
            out.pop(new, None)
    return MagnusSeries(series.rank, out)


def magnus_expand(w: ReducedWord) -> MagnusSeries:
    """Multiplicative expansion x_k -> 1 + X_k, x_k^{-1} -> 1 - X_k."""
    admit_strands(w.rank)  # a series can hold a term for every basis element
    series = MagnusSeries.one(w.rank)
    for k, sign in w.letters:
        series = _multiply_by_letter(series, k, sign)
    return series


# ---------------------------------------------------------------------------
# Basic commutators and the normal-form basis.


@dataclass(frozen=True)
class BasicCommutator:
    """Left-normed bracket [i_1,..,i_l], distinct indices, i_1 minimal."""

    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        seq = self.sequence
        if not seq:
            raise RankError("empty commutator sequence")
        if len(set(seq)) != len(seq):
            raise RankError(f"repeated index in commutator {seq}")
        if seq[0] != min(seq):
            raise RankError(f"first index of {seq} must be minimal")

    @property
    def weight(self) -> int:
        return len(self.sequence)

    def key(self) -> str:
        return ".".join(map(str, self.sequence))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.sequence)) + ")"


@lru_cache(maxsize=None)
def commutator_word(rank: int, sequence: tuple[int, ...]) -> ReducedWord:
    """Expand [i_1,..,i_l] to a word via [a, b] = a b a^-1 b^-1, left-normed."""
    word = ReducedWord.generator(rank, sequence[0])
    for idx in sequence[1:]:
        word = group_commutator(word, ReducedWord.generator(rank, idx))
    return word


ORDER_TAGS = ("weight-lex", "weight-revlex")


def _order_key(tag: str, seq: tuple[int, ...]):
    if tag == "weight-lex":
        return (len(seq), seq)
    if tag == "weight-revlex":
        return (len(seq), tuple(-i for i in seq))
    raise RankError(f"unknown basis order tag {tag!r} (choose from {ORDER_TAGS})")


@dataclass(frozen=True)
class CommutatorBasis:
    """The ordered family of all basic commutators of rank ``rank``.

    Both supported order tags sort by weight first; weight-compatible
    orders are exactly the ones the peeling normal form can use.  The tag
    travels with every serialized exponent vector because the exponents
    (unlike the linear representation) depend on it.
    """

    rank: int
    order: str
    elements: tuple[BasicCommutator, ...]
    index: dict[BasicCommutator, int] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, alpha: BasicCommutator) -> int:
        return self.index[alpha]

    def weight_range(self, weight: int) -> range:
        lo = 0
        while lo < len(self.elements) and self.elements[lo].weight < weight:
            lo += 1
        hi = lo
        while hi < len(self.elements) and self.elements[hi].weight == weight:
            hi += 1
        return range(lo, hi)


@lru_cache(maxsize=None)
def enumerate_basic_commutators(n: int, order: str = "weight-lex") -> CommutatorBasis:
    """All sequences (i_1,..,i_l), l <= n, distinct entries, i_1 minimal."""
    admit_strands(n)  # the basis grows about tenfold per strand
    if n < 1:
        raise RankError(f"rank must be positive, got {n}")
    seqs: list[tuple[int, ...]] = []
    for first in range(1, n + 1):
        rest = list(range(first + 1, n + 1))
        for length in range(0, len(rest) + 1):
            for tail in itertools.permutations(rest, length):
                seqs.append((first,) + tail)
    seqs.sort(key=lambda s: _order_key(order, s))
    elements = tuple(BasicCommutator(s) for s in seqs)
    return CommutatorBasis(n, order, elements, {a: k for k, a in enumerate(elements)})


def basis_size_formula(n: int) -> int:
    """Closed form for the basis cardinality: sum of k!/l! over 0 <= l <= k < n."""
    return sum(
        math.factorial(k) // math.factorial(l) for k in range(n) for l in range(k + 1)
    )


# The representation is admitted up to 7 strands, a basis of 2372.  At 8
# strands (16072) one dense matrix alone takes 2 GB.
MAX_STRANDS = 7
MAX_BASIS_SIZE = basis_size_formula(MAX_STRANDS)
MAX_BUILD_LETTERS = 10**6  # a braid or image word this long takes 1-2 s and 150-230 MB


class LimitError(ValueError):
    """A well-formed input beyond the admitted size of the basis."""


def admit_strands(n: int) -> None:
    """Refuse, before any allocation, a strand count whose basis is too large.

    The basis size grows with n, so past the limit only the first size
    beyond it is computed: a huge n costs nothing to refuse.
    """
    if n > MAX_STRANDS:
        size = basis_size_formula(MAX_STRANDS + 1)
        raise LimitError(
            f"{n} strands need a basis of {'at least ' if n > MAX_STRANDS + 1 else ''}"
            f"{size} commutators, above the limit of {MAX_BASIS_SIZE} "
            f"({MAX_STRANDS} strands)"
        )


@lru_cache(maxsize=None)
def _commutator_series(rank: int, sequence: tuple[int, ...]) -> MagnusSeries:
    return magnus_expand(commutator_word(rank, sequence))


# ---------------------------------------------------------------------------
# Normal form.


@dataclass(frozen=True)
class ExponentVector:
    """Exponents of an element of RF_n over a commutator basis, in basis order."""

    basis: CommutatorBasis
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.basis):
            raise RankError("exponent vector length does not match basis size")

    def __getitem__(self, alpha: BasicCommutator) -> int:
        return self.values[self.basis.index_of(alpha)]

    def as_dict(self) -> dict[tuple[int, ...], int]:
        return {
            a.sequence: v for a, v in zip(self.basis.elements, self.values) if v != 0
        }

    def is_zero(self) -> bool:
        return not any(self.values)

    def nonzero(self) -> Iterator[tuple[BasicCommutator, int]]:
        for alpha, v in zip(self.basis.elements, self.values):
            if v:
                yield alpha, v

    def to_json(self) -> dict:
        return {
            "rank": self.basis.rank,
            "order": self.basis.order,
            "coefficients": {a.key(): v for a, v in self.nonzero()},
        }


def rfg_normal_form(w: ReducedWord, basis: CommutatorBasis | None = None) -> ExponentVector:
    """Unique exponents with ``w`` = ordered product of basic-commutator powers.

    Weight peeling on the Magnus expansion: at weight t the coefficient of
    X^alpha is read off for every weight-t basis element, then the residual
    is multiplied on the left by each of their series to the power -e, in
    basis order.  The final residual must be 1; this is checked.
    """
    if basis is None:
        basis = enumerate_basic_commutators(w.rank)
    if basis.rank != w.rank:
        raise RankError(f"rank mismatch: word {w.rank}, basis {basis.rank}")
    n = w.rank
    values = [0] * len(basis)
    residual = magnus_expand(w)
    for weight in range(1, n + 1):
        rng = basis.weight_range(weight)
        for k in rng:
            values[k] = residual.coefficient(basis.elements[k].sequence)
        for k in rng:
            if values[k]:
                power = _commutator_series(n, basis.elements[k].sequence) ** -values[k]
                residual = series_multiply(power, residual)
    if not residual.is_one():
        raise CertificationError("peeling left a nontrivial residual series")
    return ExponentVector(basis, tuple(values))


# ---------------------------------------------------------------------------
# Braid action.


def _act_letter(i: int, braid_sign: int, k: int, s: int) -> tuple[Letter, ...]:
    """Image of the group letter x_k^s under sigma_i^{braid_sign}."""
    if braid_sign == 1:
        if k == i:
            return ((i + 1, s),)
        if k == i + 1:
            # x_{i+1} -> x_{i+1}^{-1} x_i x_{i+1}
            if s == 1:
                return ((i + 1, -1), (i, 1), (i + 1, 1))
            return ((i + 1, -1), (i, -1), (i + 1, 1))
    else:
        if k == i + 1:
            return ((i, s),)
        if k == i:
            # x_i -> x_i x_{i+1} x_i^{-1}
            if s == 1:
                return ((i, 1), (i + 1, 1), (i, -1))
            return ((i, 1), (i + 1, -1), (i, -1))
    return ((k, s),)


def artin_act(b: BraidWord, w: ReducedWord) -> ReducedWord:
    """Action of a braid on RF_n, with the product braid acting as the
    composition of the factors' actions (last letter applied first),
    refused once the image passes :data:`MAX_BUILD_LETTERS` letters."""
    if b.strands != w.rank:
        raise BraidError(f"braid on {b.strands} strands cannot act on rank {w.rank}")
    letters = w.letters
    for i, sign in reversed(b.letters):
        letters = free_reduce(image for k, s in letters for image in _act_letter(i, sign, k, s))
        if len(letters) > MAX_BUILD_LETTERS:
            raise LimitError(f"the image has {len(letters)} letters, "
                             f"above the limit of {MAX_BUILD_LETTERS}")
    return ReducedWord(w.rank, letters)
