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
  from it, derives sigma_i^-1 exactly as ``sigma_i (sigma_i^2)^-1``, and
  caches both as sparse gather-scatter kernels.  :func:`gamma_apply`
  freely reduces the word, then applies it from its last letter: a
  vector or narrow block on at most five strands two letters at a time,
  by one float64 product with the cached dense matrix of each pair, while
  a bound keeps every value below 2**53; anything else, and the rest of
  a word once that bound fails, letter by letter through the kernels;
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
sparse and applies any power of ``I + N`` as a short binomial sum, so a
power costs the same whatever its exponent.  ``sigma_i^2 = A_{i,i+1}`` is
such a braid, so exponent -1 gives the inverse of its matrix.

Arithmetic is float64 on the letter pairs and int64 elsewhere while a
running bound proves it exact, and Python integers beyond, so all
results are exact regardless of word length; they are int64 or Python
integers, never floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable

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
    binomial,
    commutator_word,
    enumerate_basic_commutators,
    rfg_normal_form,
)

_INT64_SAFE = 2**62
# float64 holds every integer of absolute value up to this exactly (IEEE 754).
_FLOAT_EXACT = 2**53
# Blocks of at most this many columns are applied as stacked columns by
# summing runs, wider ones by layers.  Per letter at n = 5: 8 against 31 us
# at 4 columns, 14 against 47 us at 8; at n = 6 the layers win from about
# 16 columns on.
_NARROW = 8
# On at most this many strands a vector or narrow block takes the letters
# two at a time, by one float64 product with the cached dense matrix of
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
    return int(np.abs(a).max())


def _bound(x: np.ndarray) -> int | None:
    """``max|x|`` for int64, None for Python integers (no bound needed)."""
    return None if x.dtype == object else _max_abs(x)


def _headroom(x: np.ndarray, bound: int | None, factor: int) -> tuple[np.ndarray, int | None]:
    """Prepare ``x`` for a step that multiplies ``max|x|`` by at most ``factor``.

    ``bound`` is a known bound of ``max|x|`` (see :func:`_bound`); the
    returned bound covers the step's result and every partial sum in it.
    ``x`` stays int64 while that bound is below 2**62, rescanning ``x`` once
    the running product gets there, and turns into Python integers (bound
    None) if the rescan does not help.
    """
    if bound is None:
        return x, None
    bound *= factor
    if bound >= _INT64_SAFE:
        bound = _max_abs(x) * factor
        if bound >= _INT64_SAFE:
            return x.astype(object), None
    return x, bound


def _narrow(x: np.ndarray) -> bool:
    return x.ndim == 1 or x.shape[1] <= _NARROW


def _stack(x: np.ndarray) -> tuple[np.ndarray, int | None]:
    """A vector or narrow block as one vector, its columns end to end, and
    its width; a wide block stays as it is, with width None."""
    if not _narrow(x):
        return x, None
    if x.ndim == 1:
        return x, 1
    return x.T.ravel(), x.shape[1]


def _unstack(x: np.ndarray, shape: tuple[int, ...], width: int | None) -> np.ndarray:
    return x if width is None else x.reshape(shape[::-1]).T


@dataclass(frozen=True, eq=False)
class _Runs:
    """A sparse matrix as runs of its nonzero rows, applied to stacked columns.

    Row ``rows[k]`` holds ``coeffs`` at ``cols`` from ``starts[k]`` to the
    next start.  ``M @ x`` for ``width`` columns stacked end to end is one
    gather, scale and run sum over the entries repeated once per column
    (cached per width), so a narrow block costs about what a vector does.
    """

    size: int
    rows: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    coeffs: np.ndarray
    tiles: dict = field(default_factory=dict, repr=False)

    @classmethod
    def of_entries(cls, size: int, rows: np.ndarray, cols: np.ndarray, coeffs: np.ndarray) -> _Runs:
        """From entries listed row by row (``np.nonzero`` order)."""
        kept, starts = np.unique(rows, return_index=True)
        for a in (kept, starts, cols, coeffs):
            a.flags.writeable = False
        return cls(size, kept, starts, cols, coeffs)

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


@dataclass(frozen=True, eq=False)
class GeneratorKernel:
    """One generator matrix ``G`` in gather-scatter form (read-only).

    ``runs`` lists the nonzero entries of ``G`` row by row; ``G @ x`` for a
    vector or a narrow block, stacked into one vector (see :func:`_stack`),
    sums them run by run.  A wide block goes by layers instead, because
    gathering whole long rows is slow: layer k holds the k-th entry of
    every row that has one, so its rows are distinct and one gather, scale
    and scatter-add applies it.  The first layer covers every row in
    order.  ``x`` may hold int64 or Python integers.  ``row_sum`` is the
    largest absolute row sum of ``G``, so ``max|G @ x| <= row_sum * max|x|``,
    and no partial sum exceeds that bound either.
    """

    runs: _Runs
    row_sum: int

    @classmethod
    def from_dense(cls, g: np.ndarray) -> GeneratorKernel:
        # both products need nonempty rows: np.add.reduceat reads an empty
        # run as the next entry, not as 0, and the first layer is every row
        if not np.count_nonzero(g, axis=1).all():
            raise CertificationError("generator matrix has a zero row")
        rows, cols = np.nonzero(g)
        runs = _Runs.of_entries(len(g), rows, cols, g[rows, cols])
        return cls(runs, int(np.abs(g).sum(axis=1).max()))

    @cached_property
    def layers(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Built at the first wide block; vectors and narrow blocks never read them."""
        runs = self.runs
        lengths = np.diff(runs.starts, append=len(runs.cols))
        rows = np.repeat(runs.rows, lengths)
        rank = np.arange(len(rows)) - np.repeat(runs.starts, lengths)
        layers = tuple(
            (rows[rank == k], runs.cols[rank == k], runs.coeffs[rank == k, None])
            for k in range(int(lengths.max()))
        )
        for a in itertools.chain(*layers):
            a.flags.writeable = False
        return layers

    def apply(self, x: np.ndarray, width: int = 1) -> np.ndarray:
        """``G @ x`` for a wide block, or for ``width`` columns stacked in a vector."""
        if x.ndim == 1:
            return self.runs.apply(x, width)
        (_, cols, coeffs), *rest = self.layers
        out = coeffs * x[cols]
        for rows, cols, coeffs in rest:
            out[rows] += coeffs * x[cols]
        return out


@dataclass(frozen=True, eq=False)
class UnipotentKernel:
    """``gamma(b) = I + N`` for a braid ``b`` whose ``N`` raises weight by ``reach``.

    A braid in the d-th lower central series term of the pure braid group
    sends each generator of RF_n to itself times commutators of weight at
    least d + 1, so ``N`` sends weight w to weights w + d and up; a comb
    braid of degree d is such a braid.  Only the columns of weight at most
    ``n - reach`` can be nonzero, so only those are computed, and each of
    their entries is checked to raise weight by ``reach``.  Weights run
    from 1 to n and ``(depth + 1) * reach >= n`` for ``depth = (n - 1) //
    reach``, so that check certifies ``N^(depth + 1) = 0`` once for every
    power.  ``N`` is kept only as runs of its nonzero rows; ``row_sum`` is
    its largest absolute row sum.
    """

    depth: int
    runs: _Runs
    row_sum: int

    @classmethod
    def of_images(cls, images: Callable, reach: int, basis: CommutatorBasis) -> UnipotentKernel:
        """From ``images(x) = (I + N) @ x``, read on the basis columns it needs."""
        n, m = basis.rank, len(basis)
        if not 1 <= reach < n:
            raise BraidError(f"weight reach {reach} out of range for {n} strands")
        width = basis.weight_range(n - reach + 1).start
        weights = np.array([alpha.weight for alpha in basis.elements])
        identity = np.eye(m, width, dtype=np.int64)
        nil = images(identity) - identity
        rows, cols = np.nonzero(nil)
        if (weights[rows] < weights[cols] + reach).any():
            raise CertificationError(f"gamma(b) - I does not raise weight by {reach}")
        runs = _Runs.of_entries(m, rows, cols, nil[rows, cols])
        row_sum = int(np.add.reduceat(np.abs(runs.coeffs), runs.starts).max()) if len(rows) else 0
        return cls((n - 1) // reach, runs, row_sum)

    def power(
        self, x: np.ndarray, width: int, e: int, bound: int | None
    ) -> tuple[np.ndarray, int | None]:
        """``(I + N)^e @ x`` as ``sum_j C(e, j) N^j x``, exactly.

        ``x`` holds ``width`` stacked columns and ``bound`` bounds
        ``max|x|``; the returned bound covers the result (see
        :func:`_headroom`).  The sum stops at the first vanishing term, and
        at ``depth``, past which the powers of ``N`` vanish (certified by
        :meth:`of_images`).  For e > 0 the binomials vanish past e, so the
        sum stops there.
        """
        if e == 0:
            return x, bound
        last = min(self.depth, e) if e > 0 else self.depth
        binomials = [binomial(e, j) for j in range(1, last + 1)]
        factor = 1 + sum(
            max(1, abs(c)) * self.row_sum**j for j, c in enumerate(binomials, start=1)
        )
        x, bound = _headroom(x, bound, factor)
        out = term = x
        for c in binomials:
            term = self.runs.apply(term, width)
            if not term.any():
                break
            out = out + c * term
        return out, bound


def apply_power_product(
    factors: list[tuple[UnipotentKernel, int]], x: np.ndarray
) -> np.ndarray:
    """``gamma(b_1^e_1 .. b_k^e_k) @ x`` from the kernels of the ``b_i``, last
    first, as a new array."""
    shape = x.shape
    width = shape[1] if x.ndim == 2 else 1
    x = x.T.flatten()
    bound = _bound(x)
    for kernel, e in reversed(factors):
        x, bound = kernel.power(x, width, e, bound)
    return _unstack(x, shape, width)


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


def _certified_inverse(plus: GeneratorKernel, basis: CommutatorBasis) -> np.ndarray:
    """Exact inverse of a generator matrix ``G``, as ``G (G^2)^-1``.

    ``sigma_i^2 = A_{i,i+1}`` is a pure braid, so ``G^2 = I + N`` with ``N``
    raising weight (checked by :meth:`UnipotentKernel.of_images`), and
    ``(G^2)^-1`` is the terminating series of :meth:`UnipotentKernel.power`.
    It is applied to the identity in blocks of ``_NARROW`` columns, then
    ``G``.  The result is certified by ``G @ G^-1 = I``, computed where the
    row-sum bound shows int64 cannot wrap, so the check is exact.
    """
    m = len(basis)
    square = UnipotentKernel.of_images(lambda x: _apply_kernels((plus, plus), x), 1, basis)
    inv = np.empty((m, m), np.int64)
    for start in range(0, m, _NARROW):
        identity = np.eye(m, min(_NARROW, m - start), -start, np.int64)
        block = _apply_kernels((plus,), apply_power_product([(square, -1)], identity))
        if _max_abs(block) * plus.row_sum >= _INT64_SAFE:
            raise CertificationError("derived inverse is too large to certify in int64")
        inv[:, start : start + _NARROW] = block
        if not np.array_equal(_apply_kernels((plus,), block), identity):
            raise CertificationError("derived inverse is not the matrix inverse")
    return inv


@lru_cache(maxsize=None)
def generator_matrix(n: int, i: int, sign: int, order: str, /) -> GeneratorKernel:
    """Kernel of sigma_i^{sign} on n strands (cached).

    sigma_i comes from the closed form; sigma_i^-1 is derived from its
    kernel exactly and certified (:func:`_certified_inverse`).  Every
    argument is positional and required, so each kernel has one cache key
    and is built once.
    """
    if not 1 <= i <= n - 1:
        raise BraidError(f"generator index {i} out of range for {n} strands")
    if sign == 1:
        return GeneratorKernel.from_dense(closed_form_generator_matrix(n, i, order))
    if sign != -1:
        raise BraidError(f"generator exponent must be 1 or -1, got {sign}")
    plus = generator_matrix(n, i, 1, order)
    basis = enumerate_basic_commutators(n, order)
    return GeneratorKernel.from_dense(_certified_inverse(plus, basis))


def _apply_kernels(kernels: Iterable[GeneratorKernel], x: np.ndarray) -> np.ndarray:
    """``G_1 @ .. @ G_k @ x`` for the kernels listed last first (exact).

    Stays in int64 while a running bound proves it safe: the last scanned
    ``max|x|`` times the row sums of the kernels applied since.  When the
    bound reaches 2**62, ``x`` is scanned again; if the bound is still that
    large, the rest runs on Python integers.
    """
    shape = x.shape
    x, width = _stack(x)
    bound = _bound(x)
    for kernel in kernels:
        x, bound = _headroom(x, bound, kernel.row_sum)
        x = kernel.apply(x, width)
    return _unstack(x, shape, width)


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
    """``G_first @ G_second``, the product of two letters' kernels (cached)."""
    first_kernel = generator_matrix(n, *first, order)
    identity = np.eye(first_kernel.runs.size, dtype=np.int64)
    product = _apply_kernels((generator_matrix(n, *second, order), first_kernel), identity)
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
    :func:`_headroom`.  Returns ``x`` after the steps taken, back in int64,
    and the letters left: the word's first letter when their count is
    odd, or the whole rest once the bound fails.  Python integers, or
    int64 past the bound, take no step.
    """
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
    at most ``_PAIR_STRANDS`` strands a vector or narrow block first takes
    the letters two at a time (:func:`_apply_pairs`); the letters left, and
    every letter of anything else, take one generator kernel each.  The
    result is a new array, even for the empty word.
    """
    n = b.strands
    letters = free_reduce(reversed(b.letters))
    if not letters:
        return x.copy()
    if n <= _PAIR_STRANDS and _narrow(x):
        x, letters = _apply_pairs(n, letters, x, order)
    return _apply_kernels((generator_matrix(n, i, sign, order) for i, sign in letters), x)


def gamma_matrix(b: BraidWord, basis: CommutatorBasis | None = None) -> GammaMatrix:
    """Matrix of a braid word: product of the generator matrices in word order."""
    if basis is None:
        basis = enumerate_basic_commutators(b.strands)
    if basis.rank != b.strands:
        raise RankError(f"rank mismatch: braid {b.strands}, basis {basis.rank}")
    return GammaMatrix(basis, _apply_word(b, np.eye(len(basis), dtype=np.int64), basis.order))


def gamma_matrix_definitional(b: BraidWord, basis: CommutatorBasis | None = None) -> GammaMatrix:
    """Matrix computed column by column from the action of the whole word.

    Exponentially slower than :func:`gamma_matrix` on long words; kept as the
    independent oracle for the closed form and the homomorphism property.
    """
    if basis is None:
        basis = enumerate_basic_commutators(b.strands)
    if basis.rank != b.strands:
        raise RankError(f"rank mismatch: braid {b.strands}, basis {basis.rank}")
    m = len(basis)
    mat = np.zeros((m, m), dtype=np.int64)
    for c, alpha in enumerate(basis.elements):
        mat[:, c] = _definitional_column(b, alpha, basis)
    return GammaMatrix(basis, mat)


def gamma_apply(b: BraidWord, vector: np.ndarray, basis: CommutatorBasis) -> np.ndarray:
    """gamma(b) @ vector without forming the product matrix (exact), as a new array."""
    if basis.rank != b.strands:
        raise RankError(f"rank mismatch: braid {b.strands}, basis {basis.rank}")
    return _apply_word(b, np.asarray(vector), basis.order)


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

    assert pos_i is not None and pos_i1 is not None
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
