"""The faithful linear representation of the homotopy braid group.

A braid on n strands acts on the reduced free group RF_n; reading each
generator image through the commutator normal form linearises the action
into an integer matrix indexed by the basic-commutator basis.  The matrix
of a braid ``b`` has, as its column for the basis element ``alpha``, the
exponent vector of the action of ``b`` on the commutator word of
``alpha``.  Columns are images, so matrices compose in braid order:
``gamma(a b) = gamma(a) @ gamma(b)``.

Two roads to the generator matrices exist and are kept strictly apart so
they can check each other:

* the closed form (:func:`gamma_generator_closed_form`): a seven-way case
  split on where i and i+1 sit inside the index sequence, including the
  signed sum over reversed subsequences when i leads and i+1 follows.
  This is the production route: :func:`generator_matrix` builds sigma_i
  from it, derives sigma_i^-1 exactly as ``sigma_i (sigma_i^2)^-1 = 2
  sigma_i - sigma_i^3``, and caches both as :class:`SparseKernel`.
  :func:`gamma_apply` freely reduces the word, then applies it from its
  last letter to a vector or a block: on at most five strands the whole
  block takes two letters at a time, by one float64 product with the
  cached dense matrix of each pair, while a bound keeps every value below
  2**53; on more strands, and for the rest of a word once that bound
  fails, letter by letter through the kernels, ``_NARROW`` columns at a
  time;
* the definitional route (:func:`gamma_matrix_definitional`): act on each
  basis commutator word, then take the normal form; it is the oracle the
  tests compare the closed form against.

Equality of the two on every basis element is an acceptance requirement,
not an implementation detail.

Equality of braids (:func:`braid_equal_lh`) is decided on the probe
block ``P = [(2) .. (n)]`` of weight-one columns alone: its weight-one
rows fix the permutation, and for a pure braid ``gamma(b) @ P`` fixes
the clasp numbers, a complete invariant.  The full matrix
(:func:`gamma_matrix`) is formed only for ``linkhom gamma`` and as the
test oracle.

A braid in the d-th lower central series term of the pure braid group,
such as a comb braid of degree d, has ``gamma(b) = I + N`` with ``N``
raising weight by at least d; :class:`UnipotentKernel` keeps that ``N``
as a :class:`SparseKernel`.  For a comb braid and for ``sigma_i^2 =
A_{i,i+1}``, a second ``N`` repeats a strand, which vanishes in RF_n; so
``N^2 = 0`` and a power ``I + e N`` is one sparse product, and exponent
-1 gives the inverse.

Every cached matrix is built by one exact sparse product of kernels
(:func:`_sparse_product`): a signed sum of products of
:class:`SparseKernel`, summed in int64 under one row-sum bound and
refused past it, with no identity block pushed through any loop.  It
gives sigma_i^-1, each comb kernel ``N``, whose factors
:func:`linkhom.claspers.comb_kernel` names, and each letter pair; it
also certifies sigma_i^-1 by ``sigma_i sigma_i^-1 = I``.

A caller's vector or block takes each sparse step in one loop
(:func:`_run_steps`).  There are three kinds: ``G x`` into a new array;
``x += e N x`` in place, for one power; and ``x += sum c_k N_k x`` in
place, one pass for a run of powers of members of a :class:`_KernelFamily`,
kernels whose reach r has ``2r >= n``.  Their products are zero, since
RF_n is nilpotent of class n - 1, so such a run is ``I + sum e_k N_k``.
Arithmetic is float64 on the letter pairs and int64 in that loop while a
running bound proves it exact, and Python integers beyond, so all results
are exact regardless of word length; they are int64 or Python integers,
never floats.
Inputs of any integer or bool dtype, or objects that are each an
integer, are taken exactly; floats are refused.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .braids import BraidWord, BraidError, CertificationError, Letter, free_reduce, permutation_of
from .reduced_free import (  # the size limit is re-exported from here
    MAX_BASIS_SIZE,
    MAX_STRANDS,
    BasicCommutator,
    CommutatorBasis,
    LimitError,
    RankError,
    admit_strands,
    artin_act,
    commutator_word,
    enumerate_basic_commutators,
    rfg_normal_form,
)

_INT64_SAFE = 2**62
# float64 holds every integer of absolute value up to this exactly (IEEE 754).
_FLOAT_EXACT = 2**53
# The step loop (:func:`_run_steps`) applies a vector, or a block this many
# columns at a time, stacked end to end so that one gather, scale
# and run sum covers all its columns.  Per letter at n = 5, stacked
# against one column after another: 8 against 31 us at 4 columns, 14
# against 47 us at 8.
_NARROW = 8
# On at most this many strands a vector or block takes the letters two at
# a time, by one float64 product with the cached dense matrix of
# their product (:func:`_apply_pairs`).  A step there is a few
# microseconds, so numpy's per-call overhead counts, and one BLAS product
# beats a sparse kernel's gather, scale and run sum.  Per pair on
# the probe block (12 pairs in turn, 2-vCPU VM): 1.3 against 2.5 us at
# n = 4, 2.6 against 7.8 us at n = 5, where a matrix takes 63 KB.  At
# n = 6 a matrix takes 1.4 MB and the product costs 82 against 32 us
# sparse, so six strands and up go letter by letter.
_PAIR_STRANDS = 5


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    a = np.abs(a)  # wraps int64's least value to itself, which reads right as uint64
    return int((a.view(np.uint64) if a.dtype == np.int64 else a).max())


def _bound(x: np.ndarray) -> int | None:
    """``max|x|`` for int64, None for Python integers (no bound needed)."""
    return None if x.dtype == object else _max_abs(x)


def _check_input(x: np.ndarray, size: int) -> None:
    """Refuse anything but a vector or block with one row per basis element."""
    if x.ndim not in (1, 2) or x.shape[0] != size:
        raise RankError(f"input of shape {x.shape} does not match basis size {size}")


def _index(entry: object) -> int:
    try:
        return operator.index(entry)
    except TypeError:
        raise TypeError(f"input entry {entry!r} is not integer") from None


def _exact_integers(x: np.ndarray) -> np.ndarray:
    """``x`` as int64, or as Python integers where int64 cannot hold it (a
    uint64 past 2**63) or where ``x`` holds objects, each of which must be
    an integer.  Other dtypes are refused: truncating a float would go
    unnoticed."""
    if x.dtype == object:
        return np.frompyfunc(_index, 1, 1)(x)
    if x.dtype == np.int64:
        return x
    if x.dtype.kind not in "biu":
        raise TypeError(f"input of dtype {x.dtype} is not integer")
    if x.dtype == np.uint64 and x.size and x.max() >= 2**63:
        return x.astype(object)
    return x.astype(np.int64)


@dataclass(frozen=True, eq=False)
class SparseKernel:
    """A sparse integer matrix ``M`` as runs of its nonzero rows (read-only).

    Row ``rows[k]`` holds ``coeffs`` at ``cols`` from ``starts[k]`` to the
    next start.  ``M @ x`` for ``width`` columns stacked end to end is one
    gather, scale and run sum over the entries repeated once per column
    (cached per width), so a block of a few columns costs about what a
    vector does.  ``x`` may hold int64 or Python integers.  ``row_sum`` is
    the largest absolute row sum of ``M``, so ``max|M @ x| <= row_sum *
    max|x|``, and no partial sum exceeds that bound either.
    """

    size: int
    rows: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    coeffs: np.ndarray
    row_sum: int
    tiles: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of_entries(
        cls, size: int, rows: np.ndarray, cols: np.ndarray, coeffs: np.ndarray
    ) -> SparseKernel:
        """From entries listed row by row (``np.nonzero`` order)."""
        kept, starts = np.unique(rows, return_index=True)
        row_sum = int(np.add.reduceat(np.abs(coeffs), starts).max()) if len(starts) else 0
        for a in (kept, starts, cols, coeffs):
            a.flags.writeable = False
        return cls(size, kept, starts, cols, coeffs, row_sum)

    @classmethod
    def from_dense(cls, g: np.ndarray) -> SparseKernel:
        """A generator matrix, which must have no zero row."""
        if not np.count_nonzero(g, axis=1).all():  # a zero row makes G singular
            raise CertificationError("generator matrix has a zero row")
        rows, cols = np.nonzero(g)
        return cls.of_entries(len(g), rows, cols, g[rows, cols])

    def _tile(self, width: int) -> tuple[np.ndarray | None, ...]:
        tile = self.tiles.get(width)
        if tile is None:
            shift = np.arange(width)[:, None]
            full = len(self.rows) == self.size  # no row to scatter into zeros
            tile = (
                None if full else (self.rows + self.size * shift).ravel(),
                (self.starts + len(self.cols) * shift).ravel(),
                (self.cols + self.size * shift).ravel(),
                np.tile(self.coeffs, width),
            )
            self.tiles[width] = tile
        return tile

    def apply(self, x: np.ndarray, width: int) -> np.ndarray:
        """``M @ x`` for ``x`` holding ``width`` stacked columns."""
        rows, starts, cols, coeffs = self._tile(width)
        sums = np.add.reduceat(coeffs * x[cols], starts) if len(cols) else x[:0]
        if rows is None:
            return sums
        out = np.zeros(x.shape, x.dtype)
        out[rows] = sums
        return out

    def add_into(self, y: np.ndarray, width: int, e: int) -> None:
        """``y += e M y`` in place, for ``y`` holding ``width`` stacked
        columns and ``M`` with at least one entry and a zero row, as the
        ``N`` of a unipotent kernel has: only ``M``'s nonzero rows change."""
        rows, starts, cols, coeffs = self._tile(width)
        y[rows] += e * np.add.reduceat(coeffs * y[cols], starts)


def _entry_rows(kernel: SparseKernel) -> np.ndarray:
    """The row of each of the kernel's entries, in the order of ``cols``."""
    return np.repeat(kernel.rows, np.diff(np.append(kernel.starts, len(kernel.cols))))


def _join(
    rows: np.ndarray, cols: np.ndarray, coeffs: np.ndarray, right: SparseKernel
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of ``L @ M``, unsummed, for ``L`` given by its entries: each
    entry meets the run of ``M``'s row at its column."""
    at = np.searchsorted(right.rows, cols)
    hit = at < len(right.rows)
    hit[hit] = right.rows[at[hit]] == cols[hit]  # M has a nonzero row there
    rows, coeffs, at = rows[hit], coeffs[hit], at[hit]
    starts = right.starts[at]
    lengths = np.append(right.starts[1:], len(right.cols))[at] - starts
    # the joined terms of one entry read its run from the start, in turn
    picks = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    coeffs = np.repeat(coeffs, lengths) * right.coeffs[picks]
    return np.repeat(rows, lengths), right.cols[picks], coeffs


def _summed(
    size: int, rows: np.ndarray, cols: np.ndarray, coeffs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries with equal row and column summed, zeros dropped, row by row."""
    if not len(rows):
        return rows, cols, coeffs
    keys = rows * size + cols
    order = np.argsort(keys)
    keys, coeffs = keys[order], coeffs[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(coeffs, first)
    kept = sums != 0
    keys = keys[first][kept]
    return keys // size, keys % size, sums[kept]


def _sparse_product(
    terms: Sequence[tuple[int, Sequence[SparseKernel]]], size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``sum c M_1 .. M_k`` over the terms ``(c, (M_1, .., M_k))`` (exact), as
    its nonzero entries listed row by row: rows, columns and coefficients.

    The empty product is ``I``.  Each product starts at its first factor's
    entries and joins the column of each entry with the next factor's row
    runs; equal entries are summed after each join.  A product's largest
    absolute row sum is at most the product of its factors' ``row_sum``, so
    ``sum |c| prod row_sum`` bounds every entry and partial sum.  The sums
    run in int64 below ``_INT64_SAFE`` and raise
    :class:`CertificationError` at or past it: no identity block, no float
    and no Python integer.
    """
    scales = [abs(c) * math.prod(kernel.row_sum for kernel in chain) for c, chain in terms]
    if sum(scales) >= _INT64_SAFE:
        raise CertificationError("sparse product is too large to sum exactly in int64")
    identity = np.arange(size)
    parts = [(identity[:0], identity[:0], identity[:0])]
    for (c, chain), scale in zip(terms, scales):
        if not scale:  # c = 0 or a zero factor: nothing to add
            continue
        if chain:
            first = chain[0]
            rows, cols, coeffs = _entry_rows(first), first.cols, first.coeffs
        else:
            rows, cols, coeffs = identity, identity, np.ones(size, np.int64)
        for kernel in chain[1:]:
            rows, cols, coeffs = _summed(size, *_join(rows, cols, coeffs, kernel))
        parts.append((rows, cols, c * coeffs))
    return _summed(size, *(np.concatenate(a) for a in zip(*parts)))


def _kernel_steps(kernels: Sequence[SparseKernel]) -> list[tuple]:
    """The steps of :func:`_run_steps` that apply the kernels' matrices in turn."""
    return [(kernel.row_sum, kernel, None) for kernel in kernels]


def _run_steps(steps: Sequence[tuple], x: np.ndarray) -> np.ndarray:
    """``x`` after ``steps``, first to last, for a vector or a block of any
    width (exact), as a new array.

    There are three kinds of step.  ``(factor, kernel, None)`` applies the
    kernel's matrix ``G``.  ``(factor, kernel, e)`` applies ``(I + N)^e = I
    + e N`` for the kernel's matrix ``N``, with ``N^2 = 0``, in place: only
    the nonzero rows of ``N`` change.  ``(factor, family, c)`` applies ``I
    + sum c_k N_k`` over a :class:`_KernelFamily`, in place too.  ``factor``
    bounds how much the step can raise ``max|x|``: ``row_sum``, ``1 + |e|
    row_sum``, and ``1 + sum |c_k| row_sum_k``.  A block wider than
    ``_NARROW`` runs ``_NARROW`` columns at a time, the results joined (as
    Python integers if any of them turned to Python integers).  The
    columns are stacked end to end, so each step is one sparse pass.  They
    stay int64 while a running bound proves it safe: the last scanned
    ``max|x|`` times the factors of the steps taken since, which bounds
    every result and partial sum.  When the bound reaches 2**62, ``x`` is scanned again; if the
    bound is still that large, the rest runs on Python integers.
    """
    if not steps:  # as when letter pairs took the whole word: nothing to scan
        return x.copy()
    if x.ndim == 2 and x.shape[1] > _NARROW:
        return np.hstack([_run_steps(steps, x[:, k : k + _NARROW])
                          for k in range(0, x.shape[1], _NARROW)])
    y = x.T.flatten()
    width = 1 if x.ndim == 1 else x.shape[1]
    bound = _bound(y)
    for factor, kernel, e in steps:
        if bound is not None:
            bound *= factor
            if bound >= _INT64_SAFE:
                bound = _max_abs(y) * factor
                if bound >= _INT64_SAFE:
                    y, bound = y.astype(object), None
            if bound == 0:  # y is zero, and e N y in int64 would overflow for |e| >= 2**63
                continue
        if e is None:
            y = kernel.apply(y, width)
        else:
            kernel.add_into(y, width, e)
    return y.reshape(x.shape[::-1]).T


@lru_cache(maxsize=None)
def _weights(n: int) -> np.ndarray:
    """The weight of each basis element on n strands, ascending in every
    basis order (read-only)."""
    weights = np.array([alpha.weight for alpha in enumerate_basic_commutators(n).elements])
    weights.flags.writeable = False
    return weights


@dataclass(frozen=True, eq=False)
class UnipotentKernel:
    """``gamma(b) = I + N`` for a braid ``b`` whose ``N`` raises weight by ``reach``.

    A braid in the d-th lower central series term of the pure braid group
    sends each generator of RF_n to itself times commutators of weight at
    least d + 1, so ``N`` sends weight w to weights w + d and up; a comb
    braid of degree d is such a braid.  ``N`` is given as a signed sum of
    products of sparse kernels and computed by :func:`_sparse_product`.
    Only the columns of weight at most ``n - reach`` can be nonzero, so
    only those are kept, and each of their entries is checked to raise
    weight by ``reach``.  No nonzero row of ``N`` may index a nonzero
    column, which certifies ``N^2 = 0`` once for every power, so ``(I +
    N)^e = I + e N`` is one step of :func:`_run_steps`.  ``N`` is kept as
    the sparse kernel ``nil``, with its certified ``reach``.
    """

    nil: SparseKernel
    reach: int

    @classmethod
    def of_terms(
        cls, terms: Sequence[tuple[int, Sequence[SparseKernel]]], reach: int, basis: CommutatorBasis
    ) -> UnipotentKernel:
        """From ``N = sum c M_1 .. M_k`` over ``terms`` (:func:`_sparse_product`),
        kept on the basis columns it needs."""
        n, m = basis.rank, len(basis)
        if not 1 <= reach < n:
            raise BraidError(f"weight reach {reach} out of range for {n} strands")
        weights = _weights(n)
        width = int(np.searchsorted(weights, n - reach, side="right"))
        rows, cols, coeffs = _sparse_product(terms, m)
        kept = cols < width
        rows, cols, coeffs = rows[kept], cols[kept], coeffs[kept]
        if (weights[rows] < weights[cols] + reach).any():
            raise CertificationError(f"gamma(b) - I does not raise weight by {reach}")
        nonzero_cols = np.zeros(m, dtype=bool)
        nonzero_cols[cols] = True
        if nonzero_cols[rows].any():
            raise CertificationError("gamma(b) - I does not square to zero")
        return cls(SparseKernel.of_entries(m, rows, cols, coeffs), reach)


@dataclass(frozen=True, eq=False)
class _KernelFamily:
    """``sum_k c_k N_k`` over the ``N`` of unipotent kernels on n strands
    whose reaches r all have ``2r >= n`` (read-only).

    Each member keeps only the columns of weight at most ``n - r <= r`` and
    raises weight by r (:meth:`UnipotentKernel.of_terms` certifies both),
    so its nonzero rows have weight above r.  So no member's nonzero row
    indexes any member's nonzero column, every product ``N_j N_k`` is zero,
    and a run of the members' powers is ``I + sum e_k N_k`` in any order,
    with a repeated member's exponents added.  ``row_sums`` holds each
    member's ``row_sum``, ``entries`` every member's entries sorted by row
    (its own ``row_sum`` is not used), and ``member`` the member of each
    entry; one pass gathers, scales each entry by its member's coefficient
    and takes one run sum per row.
    """

    row_sums: tuple[int, ...]
    entries: SparseKernel
    member: np.ndarray
    tiles: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of_kernels(cls, kernels: Sequence[UnipotentKernel], n: int) -> _KernelFamily:
        if any(2 * kernel.reach < n for kernel in kernels):
            raise CertificationError(f"a kernel family on {n} strands needs every reach to be at "
                                     f"least {n}/2, so that its products vanish")
        members = tuple(kernel.nil for kernel in kernels)
        rows = np.concatenate([_entry_rows(nil) for nil in members])
        order = np.argsort(rows, kind="stable")
        cols, coeffs = (np.concatenate([getattr(nil, a) for nil in members])[order]
                        for a in ("cols", "coeffs"))
        member = np.repeat(np.arange(len(members)), [len(nil.cols) for nil in members])[order]
        entries = SparseKernel.of_entries(members[0].size, rows[order], cols, coeffs)
        return cls(tuple(nil.row_sum for nil in members), entries, member)

    def add_into(self, y: np.ndarray, width: int, c: Sequence[int]) -> None:
        """``y += sum c_k N_k y`` in place, for ``y`` holding ``width``
        stacked columns; every ``c_k`` fits ``y``'s dtype."""
        rows, starts, cols, coeffs = self.entries._tile(width)
        member = self.tiles.get(width)
        if member is None:
            member = self.tiles[width] = np.tile(self.member, width)
        scale = np.array(c, dtype=y.dtype)[member] * coeffs
        y[rows] += np.add.reduceat(scale * y[cols], starts)


def _power_steps(
    factors: Sequence[tuple[UnipotentKernel | tuple[_KernelFamily, int], int]]
) -> list[tuple]:
    """The steps of :func:`_run_steps` for ``b_1^e_1 .. b_k^e_k``, last first.

    A factor's kernel is a :class:`UnipotentKernel`, whose power is one step,
    or a member ``(family, k)`` of a :class:`_KernelFamily`: consecutive
    members of one family take one step, with their exponents added by
    member.  ``(I + N)^e`` is I for e = 0 and for N = 0, where ``e N x``
    would overflow int64 for a huge e, so those take no step and do not end
    a run, and a run whose exponents cancel takes none either.
    """
    runs: list = []
    for kernel, e in reversed(factors):
        if type(kernel) is tuple:
            family, k = kernel
            if not (runs and runs[-1][1] is family):
                runs.append([None, family, [0] * len(family.row_sums)])
            runs[-1][2][k] += e
        elif e and kernel.nil.row_sum:
            runs.append((1 + abs(e) * kernel.nil.row_sum, kernel.nil, e))
    steps = []
    for step in runs:
        if type(step) is list:
            _, family, c = step
            c = [e if row_sum else 0 for e, row_sum in zip(c, family.row_sums)]
            factor = 1 + sum(abs(e) * row_sum for e, row_sum in zip(c, family.row_sums))
            if factor == 1:
                continue
            step = factor, family, c
        steps.append(step)
    return steps


def apply_power_product(
    factors: list[tuple[UnipotentKernel, int]], x: np.ndarray
) -> np.ndarray:
    """``gamma(b_1^e_1 .. b_k^e_k) @ x`` from the kernels of the ``b_i``, last
    first, as a new array (exact)."""
    return _apply_powers(factors, x, {kernel.nil.size for kernel, _ in factors})


def _apply_powers(
    factors: Sequence[tuple[UnipotentKernel | tuple[_KernelFamily, int], int]],
    x: np.ndarray,
    sizes: Sequence[int],
) -> np.ndarray:
    """:func:`apply_power_product` for kernels or family members
    (:func:`_power_steps`) that act on ``sizes`` basis elements."""
    x = np.asarray(x)
    for size in sizes:
        _check_input(x, size)
    return _run_steps(_power_steps(factors), _exact_integers(x))


@dataclass(frozen=True)
class GammaMatrix:
    """Integer matrix of the representation in a fixed commutator basis."""

    basis: CommutatorBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = len(self.basis)
        if self.matrix.shape != (m, m):
            raise RankError(f"matrix shape {self.matrix.shape} does not match basis size {m}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GammaMatrix)
            and self.basis.rank == other.basis.rank
            and self.basis.order == other.basis.order
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def column(self, col: BasicCommutator) -> dict[BasicCommutator, int]:
        j = self.basis.index_of(col)
        return {
            self.basis.elements[r]: int(v)
            for r, v in enumerate(self.matrix[:, j])
            if v != 0
        }

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.matrix, np.eye(len(self.basis), dtype=self.matrix.dtype)))

    def to_json(self) -> dict:
        return {
            "basis_order": [a.key() for a in self.basis.elements],
            "rows": [[int(v) for v in row] for row in self.matrix],
        }


def _definitional_column(b: BraidWord, alpha: BasicCommutator, basis: CommutatorBasis) -> list[int]:
    image = artin_act(b, commutator_word(basis.rank, alpha.sequence))
    return list(rfg_normal_form(image, basis).values)


def _certified_inverse(plus: SparseKernel, basis: CommutatorBasis) -> SparseKernel:
    """Exact inverse of a generator matrix ``G``, as ``G (G^2)^-1 = 2G - G^3``.

    ``sigma_i^2 = A_{i,i+1}`` is a pure braid, so ``G^2 = I + N`` with ``N``
    raising weight and squaring to zero (both checked by
    :meth:`UnipotentKernel.of_terms`), and ``(G^2)^-1 = I - N``.  So ``G^-1
    = G - G N``, one sparse product (:func:`_sparse_product`), certified
    by another: ``G G^-1 - I`` must have no entry.  Both run in int64 under
    the product's bound, so the check is exact, and a generator too large
    for it raises :class:`CertificationError`.
    """
    m = len(basis)
    nil = UnipotentKernel.of_terms([(1, (plus, plus)), (-1, ())], 1, basis).nil
    inverse = SparseKernel.of_entries(m, *_sparse_product([(1, (plus,)), (-1, (plus, nil))], m))
    if len(_sparse_product([(1, (plus, inverse)), (-1, ())], m)[0]):
        raise CertificationError("derived inverse is not the matrix inverse")
    return inverse


@lru_cache(maxsize=None)
def generator_matrix(n: int, i: int, sign: int, order: str, /) -> SparseKernel:
    """Kernel of sigma_i^{sign} on n strands (cached).

    sigma_i comes from the closed form; sigma_i^-1 is derived from its
    kernel by exact sparse products and certified
    (:func:`_certified_inverse`).  Every argument is positional and
    required, so each kernel has one cache key and is built once.
    """
    if not 1 <= i <= n - 1:
        raise BraidError(f"generator index {i} out of range for {n} strands")
    if sign == 1:
        return SparseKernel.from_dense(closed_form_generator_matrix(n, i, order))
    if sign != -1:
        raise BraidError(f"generator exponent must be 1 or -1, got {sign}")
    basis = enumerate_basic_commutators(n, order)
    return _certified_inverse(generator_matrix(n, i, 1, order), basis)


@dataclass(frozen=True, eq=False)
class _DensePair:
    """``G_first @ G_second`` as a dense float64 matrix (read-only).

    Its entries are integers and ``row_sum``, its largest absolute row sum,
    is below 2**53, so float64 holds every entry exactly.
    """

    matrix: np.ndarray
    row_sum: int


@lru_cache(maxsize=None)
def _letter_pair(n: int, first: Letter, second: Letter, order: str, /) -> _DensePair:
    """``G_first @ G_second``, the product of two letters' kernels (cached).

    It is one sparse product (:func:`_sparse_product`), densified in
    column-major order, which BLAS takes without a transpose (about 10%
    faster per product on blocks of 3 to 8 columns at n = 4 and 5); its
    row sum is taken on the integers, before the float64 copy.
    """
    chain = (generator_matrix(n, *first, order), generator_matrix(n, *second, order))
    m = chain[0].size
    rows, cols, coeffs = _sparse_product([(1, chain)], m)
    product = np.zeros((m, m), np.int64, order="F")
    product[rows, cols] = coeffs
    row_sum = int(np.abs(product).sum(axis=1).max())
    if row_sum >= _FLOAT_EXACT:
        raise CertificationError("letter pair is too large for exact float64 products")
    matrix = product.astype(np.float64)
    matrix.flags.writeable = False
    return _DensePair(matrix, row_sum)


def _apply_pairs(
    n: int, letters: tuple[Letter, ...], x: np.ndarray, order: str
) -> tuple[np.ndarray, tuple[Letter, ...]]:
    """Apply ``letters``, listed last first, two at a time by float64 products
    (:func:`_letter_pair`) while that is exact.

    A step runs only while ``max|x|`` times the pair's row sum, a bound of
    every product and partial sum in it, stays below 2**53 and below
    ``_INT64_SAFE``: float64 holds each such integer exactly, whatever the
    summation order.  The bound is carried and rescanned as in
    :func:`_run_steps`.  Returns ``x`` after the steps taken, back in int64,
    and the letters left: the word's first letter when their count is
    odd, or the whole rest once the bound fails.  Python integers, or
    int64 past the bound, take no step.
    """
    if len(letters) < 2:
        return x, letters
    limit = min(_FLOAT_EXACT, _INT64_SAFE)
    bound = _bound(x)
    if bound is None or bound >= limit:
        return x, letters
    y = x.astype(np.float64)
    k = 0
    while k + 1 < len(letters):
        first, second = letters[k + 1], letters[k]
        if abs(first[0] - second[0]) >= 2 and second < first:
            first, second = second, first  # far generators commute: one key for both orders
        pair = _letter_pair(n, first, second, order)
        bound *= pair.row_sum
        if bound >= limit:
            bound = _max_abs(y) * pair.row_sum
            if bound >= limit:
                break
        y = np.dot(pair.matrix, y)
        k += 2
    return y.astype(np.int64), letters[k:]


def _apply_word(b: BraidWord, x: np.ndarray, order: str) -> np.ndarray:
    """``gamma(b) @ x`` from the last letter of the freely reduced word (exact).

    sigma_i sigma_i^-1 = 1, so free reduction leaves gamma(b) as it is.  On
    at most ``_PAIR_STRANDS`` strands the whole vector or block first takes
    the letters two at a time (:func:`_apply_pairs`); the letters left, and
    every letter on more strands, take one step of :func:`_run_steps` each,
    the sparse kernel of the generator.  The result is a new array, even
    for the empty word.
    """
    n = b.strands
    letters = free_reduce(reversed(b.letters))
    if n <= _PAIR_STRANDS:
        x, letters = _apply_pairs(n, letters, x, order)
    kernels = [generator_matrix(n, i, sign, order) for i, sign in letters]
    return _run_steps(_kernel_steps(kernels), x)


def _checked_basis(b: BraidWord, basis: CommutatorBasis | None) -> CommutatorBasis:
    """``basis``, or by default the weight-lex basis on ``b``'s strands,
    refused with :class:`RankError` unless its rank is ``b``'s strand count."""
    if basis is None:
        basis = enumerate_basic_commutators(b.strands)
    if basis.rank != b.strands:
        raise RankError(f"rank mismatch: braid {b.strands}, basis {basis.rank}")
    return basis


def gamma_matrix(b: BraidWord, basis: CommutatorBasis | None = None) -> GammaMatrix:
    """Matrix of a braid word: product of the generator matrices in word order."""
    basis = _checked_basis(b, basis)
    return GammaMatrix(basis, _apply_word(b, np.eye(len(basis), dtype=np.int64), basis.order))


def gamma_matrix_definitional(b: BraidWord, basis: CommutatorBasis | None = None) -> GammaMatrix:
    """Matrix computed column by column from the action of the whole word.

    Exponentially slower than :func:`gamma_matrix` on long words; kept as the
    independent oracle for the closed form and the homomorphism property.
    """
    basis = _checked_basis(b, basis)
    m = len(basis)
    mat = np.zeros((m, m), dtype=np.int64)
    for c, alpha in enumerate(basis.elements):
        mat[:, c] = _definitional_column(b, alpha, basis)
    return GammaMatrix(basis, mat)


def gamma_apply(b: BraidWord, vector: np.ndarray, basis: CommutatorBasis) -> np.ndarray:
    """gamma(b) @ vector without forming the product matrix (exact), as a new array."""
    basis = _checked_basis(b, basis)
    x = np.asarray(vector)
    _check_input(x, len(basis))
    return _apply_word(b, _exact_integers(x), basis.order)


@lru_cache(maxsize=None)
def probe_block(n: int) -> np.ndarray:
    """The weight-one basis columns of strands 2..n: the probe block P (read-only)."""
    basis = enumerate_basic_commutators(n)
    block = np.zeros((len(basis), n - 1), dtype=np.int64)
    for col, m in enumerate(range(2, n + 1)):
        block[basis.index_of(BasicCommutator((m,))), col] = 1
    block.flags.writeable = False
    return block


def braid_equal_lh(a: BraidWord, b: BraidWord) -> bool:
    """Link-homotopy equality of braids, decided on the probe block P.

    ``a`` and ``b`` are equal exactly when ``gamma(a) @ P`` and
    ``gamma(b) @ P`` are, so no square matrix is formed:

    * the weight-one rows of ``gamma(x) @ P`` show where x sends strands
      2..n, which fixes its permutation; so equal blocks mean equal
      permutations, and ``b^-1 a`` is pure;
    * then ``gamma(b^-1 a) @ P = P``, and the clasp numbers of a pure braid
      are a function of that block alone
      (:func:`linkhom.claspers.read_clasp_numbers`); so ``b^-1 a`` has the
      clasp numbers of the identity, all 0, and is trivial.

    Unequal blocks mean unequal matrices, hence unequal braids.
    """
    if a.strands != b.strands:
        raise BraidError(f"strand count mismatch: {a.strands} != {b.strands}")
    n = a.strands
    basis = enumerate_basic_commutators(n)
    probes = probe_block(n)
    return bool(np.array_equal(gamma_apply(a, probes, basis), gamma_apply(b, probes, basis)))


# ---------------------------------------------------------------------------
# Closed-form generator images.


def gamma_generator_closed_form(
    i: int, alpha: BasicCommutator, n: int
) -> dict[BasicCommutator, int]:
    """Image of a basis element under sigma_i as a signed commutator sum.

    Case split on the positions of i and i+1 in the sequence; exactly one
    case applies.  With I, J, K denoting (possibly empty, for I only where
    stated nonempty) subsequences avoiding i and i+1:

      (a) (I)           -> (I)                 neither index occurs
      (b) (J,i,K)       -> (J,i+1,K)           only i occurs
      (c) (i+1,K)       -> (i,K) + (i,i+1,K)   only i+1 occurs, leading
      (d) (I,i+1,K)     -> (I,i,K) + (I,i,i+1,K) - (I,i+1,i,K)
      (e) (I,i,J,i+1,K) -> (I,i+1,J,i,K)       both occur, i first of the two
      (f) (I,i+1,J,i,K) -> (I,i,J,i+1,K)       both occur, i+1 first of the two
      (g) (i,J,i+1,K)   -> sum over subsequences J' of J of
                           (-1)^{|J'|+1} (i, reverse(J'), i+1, J-J', K)
    """
    if not 1 <= i <= n - 1:
        raise BraidError(f"generator index {i} out of range for {n} strands")
    seq = alpha.sequence
    if seq and max(seq) > n:
        raise RankError(f"commutator {seq} out of range for rank {n}")
    pos_i = seq.index(i) if i in seq else None
    pos_i1 = seq.index(i + 1) if i + 1 in seq else None

    if pos_i is None and pos_i1 is None:  # (a)
        return {alpha: 1}

    if pos_i is not None and pos_i1 is None:  # (b)
        out = seq[:pos_i] + (i + 1,) + seq[pos_i + 1 :]
        return {BasicCommutator(out): 1}

    if pos_i is None and pos_i1 is not None:
        head, tail = seq[:pos_i1], seq[pos_i1 + 1 :]
        if pos_i1 == 0:  # (c)
            return {
                BasicCommutator((i,) + tail): 1,
                BasicCommutator((i, i + 1) + tail): 1,
            }
        return {  # (d)
            BasicCommutator(head + (i,) + tail): 1,
            BasicCommutator(head + (i, i + 1) + tail): 1,
            BasicCommutator(head + (i + 1, i) + tail): -1,
        }

    if pos_i1 < pos_i or pos_i > 0:  # (f) and (e): swap i and i+1
        swapped = list(seq)
        swapped[pos_i], swapped[pos_i1] = i + 1, i
        return {BasicCommutator(tuple(swapped)): 1}

    # (g): i leads, i+1 occurs later.
    middle = seq[1:pos_i1]
    tail = seq[pos_i1 + 1 :]
    out: dict[BasicCommutator, int] = {}
    for size in range(len(middle) + 1):
        for picked in itertools.combinations(range(len(middle)), size):
            chosen = tuple(middle[p] for p in picked)
            rest = tuple(middle[p] for p in range(len(middle)) if p not in picked)
            target = BasicCommutator(
                (i,) + tuple(reversed(chosen)) + (i + 1,) + rest + tail
            )
            sign = 1 if size % 2 else -1
            out[target] = out.get(target, 0) + sign
    return out


def closed_form_generator_matrix(n: int, i: int, order: str = "weight-lex") -> np.ndarray:
    """Matrix of sigma_i assembled from the closed form (production route)."""
    basis = enumerate_basic_commutators(n, order)
    m = len(basis)
    mat = np.zeros((m, m), dtype=np.int64)
    for c, alpha in enumerate(basis.elements):
        for target, coeff in gamma_generator_closed_form(i, alpha, n).items():
            mat[basis.index_of(target), c] += coeff
    return mat


# ---------------------------------------------------------------------------
# Structural verification.


@dataclass
class StructureReport:
    """Outcome of the shape checks on a braid's matrix."""

    pure: bool
    block_triangular: bool
    permutation_block_ok: bool
    pair_block_ok: bool
    diagonal_blocks_identity: bool | None
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def structure_report(m: GammaMatrix, b: BraidWord) -> StructureReport:
    """Verify block triangularity by weight and the two leading diagonal blocks.

    The weight-1 diagonal block must permute the basis like the braid's
    permutation; the weight-2 block must act on index pairs by the same
    permutation, with a sign when the images need reordering.  When the
    braid is pure every diagonal block must be the identity.
    """
    basis = m.basis
    q = permutation_of(b)
    violations: list[str] = []

    weights = [alpha.weight for alpha in basis.elements]
    triangular = True
    for r in range(len(basis)):
        for c in range(len(basis)):
            if m.matrix[r, c] != 0 and weights[r] < weights[c]:
                triangular = False
                violations.append(
                    f"entry ({basis.elements[r]}, {basis.elements[c]}) above the diagonal blocks"
                )

    perm_ok = True
    for c in basis.weight_range(1):
        col = basis.elements[c]
        expect = BasicCommutator((q(col.sequence[0]),))
        for r in basis.weight_range(1):
            want = 1 if basis.elements[r] == expect else 0
            if m.matrix[r, c] != want:
                perm_ok = False
                violations.append(f"weight-1 block at column {col} differs from the permutation")
                break

    pair_ok = True
    for c in basis.weight_range(2):
        col = basis.elements[c]
        k, j = col.sequence
        qk, qj = q(k), q(j)
        expect = BasicCommutator((qk, qj)) if qk < qj else BasicCommutator((qj, qk))
        expect_sign = 1 if qk < qj else -1
        for r in basis.weight_range(2):
            want = expect_sign if basis.elements[r] == expect else 0
            if m.matrix[r, c] != want:
                pair_ok = False
                violations.append(f"weight-2 block at column {col} differs from the signed pair action")
                break

    pure = q.is_identity()
    diag_identity: bool | None = None
    if pure:
        diag_identity = True
        for weight in range(1, basis.rank + 1):
            rng = basis.weight_range(weight)
            for r in rng:
                for c in rng:
                    want = 1 if r == c else 0
                    if m.matrix[r, c] != want:
                        diag_identity = False
                        violations.append(f"weight-{weight} diagonal block is not the identity")
                        break
                if diag_identity is False:
                    break
            if diag_identity is False:
                break

    return StructureReport(
        pure=pure,
        block_triangular=triangular,
        permutation_block_ok=perm_ok,
        pair_block_ok=pair_ok,
        diagonal_blocks_identity=diag_identity,
        violations=violations,
    )
