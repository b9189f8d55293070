"""Clasp-number normal forms of pure braids.

Every pure braid is, up to link-homotopy, a unique ordered product of
powers of *comb* braids: one for each index sequence ``(i_1,..,i_l)``
with distinct entries, minimal first entry and maximal last entry.  The
comb braid of a sequence is the left-normed commutator
``[[..[A_{i_1,m}, A_{i_2,m}],..], A_{i_{l-1},m}]`` of pure generators,
where ``m = i_l``; for ``l = 2`` it is ``A_{i_1 i_2}`` itself.  The
integer exponents (*clasp numbers*) are a complete link-homotopy
invariant of the braid.

Extraction works on the probe block ``P = [(2) .. (n)]`` of weight-one
basis columns: the braid's matrix is applied to ``P`` once, and the clasp
numbers are read off ``gamma(b) @ P`` degree by degree
(:func:`read_clasp_numbers`).  The key probe: the matrix of a comb braid
sends ``(m)`` to ``(m) - (i_1,..,i_l)``, and for a pure braid the rows
and columns of commutators with indices in a support set S form the
matrix of the braid with every strand outside S forgotten.  So column
``max S``, read on the rows inside S, displays with a minus sign every
clasp number of exact support S once the lower degrees are gone.  After
each degree its ordered comb product is divided out on the left, by
applying the comb powers with negated exponents to the probes through
cached comb kernels (:func:`comb_power_product`); no strand is deleted
and no braid word is built.  In the loop that applies sparse kernels to
vectors in :mod:`linkhom.gamma`, each power ``I + e N`` is one step in
place, and each run of consecutive powers of one degree d with ``2d >=
n`` is one step: such kernels multiply to zero, so the run is ``I + sum
e N``, one sparse pass through the family of the degree's kernels.  A
table per n maps each comb sequence to its kernel or to its family and
member.  Each kernel is built on first use, and a family holds the
kernels of its degree built so far: it is built again when new combs
join it.  Each comb kernel ``N`` is one
:class:`linkhom.gamma.SparseKernel`, built by the exact sparse product
of kernels there: :func:`comb_kernel` only names the factors, the
generator kernels of the word of ``A_{i,m}`` at degree 1 and the
commutator of two lower kernels above.  The word-level route (strand
deletion and a residual word) is kept in the tests as the oracle.

Only the functions that work on matrices (comb kernels, comb powers and
the probe readout) import :mod:`linkhom.gamma`, and numpy with it, and
only when called: vectors, comb enumeration and comb braid words stay
plain integer bookkeeping.

Vectors are serialized as ``{"n": .., "order": "degree-lex",
"nu": {"1.2": .., ...}}`` with dot-joined sequences as keys.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .braids import (
    BraidError,
    BraidWord,
    CertificationError,
    compose,
    invert,
    pure_generator_word,
)
from .reduced_free import (
    MAX_BUILD_LETTERS, LimitError, RankError, admit_strands, enumerate_basic_commutators
)

if TYPE_CHECKING:
    import numpy as np

    from .gamma import UnipotentKernel

CLASP_ORDER = "degree-lex"


@dataclass(frozen=True)
class CombClasper:
    """Index sequence with distinct entries, minimal first, maximal last."""

    sequence: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_comb_sequence(self.sequence)

    @property
    def degree(self) -> int:
        return len(self.sequence) - 1

    def key(self) -> str:
        return ".".join(map(str, self.sequence))

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.sequence)) + ")"


def _check_comb_sequence(seq: tuple[int, ...]) -> None:
    if len(seq) < 2:
        raise BraidError(f"comb sequence needs at least two strands, got {seq}")
    if len(set(seq)) != len(seq):
        raise BraidError(f"repeated strand in comb sequence {seq}")
    if seq[0] != min(seq) or seq[-1] != max(seq):
        raise BraidError(f"comb sequence {seq} must start at its minimum and end at its maximum")
    if seq[0] < 1:
        raise BraidError(f"comb sequence {seq} has a strand index below 1")


@lru_cache(maxsize=None)
def enumerate_comb_claspers(n: int) -> tuple[CombClasper, ...]:
    """All comb sequences valid on n strands, by degree then lexicographically."""
    admit_strands(n)  # their number grows factorially with n
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
    """Clasp numbers of a pure braid on n strands.

    ``nu`` maps comb sequences to integers, kept as Python ints; zero
    entries are dropped on construction, so the generated equality on ``n``
    and ``nu`` is value equality.  The comb order is always degree-lex
    (:data:`CLASP_ORDER`), the order of :func:`enumerate_comb_claspers` and
    of the product in :func:`clasp_vector_to_braid`: the JSON form carries
    it as ``"order"``, and :meth:`from_json` refuses any other.
    """

    n: int
    nu: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise BraidError(f"strand count must be positive, got {self.n}")
        cleaned = {}
        for seq, value in self.nu.items():
            seq = tuple(seq)
            self._check_key(seq)
            value = _integer(value)
            if value:
                cleaned[seq] = value
        object.__setattr__(self, "nu", cleaned)

    def _check_key(self, seq: tuple[int, ...]) -> None:
        _check_comb_sequence(seq)
        if seq[-1] > self.n:
            raise BraidError(f"comb sequence {seq} does not fit on {self.n} strands")

    @classmethod
    def _trusted(cls, n: int, nu: dict[tuple[int, ...], int]) -> ClaspVector:
        """A vector whose keys are comb sequences that fit on ``n >= 1``
        strands and whose values are nonzero Python integers, unchecked."""
        v = object.__new__(cls)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "nu", nu)
        return v

    def __hash__(self) -> int:
        return hash((self.n, tuple(sorted(self.nu.items()))))

    def get(self, seq: tuple[int, ...]) -> int:
        return self.nu.get(tuple(seq), 0)

    def degree_part(self, degree: int) -> dict[tuple[int, ...], int]:
        return {s: v for s, v in self.nu.items() if len(s) == degree + 1}

    def updated(self, changes: dict[tuple[int, ...], int]) -> "ClaspVector":
        """The vector with ``changes`` written over it; only their values and
        the keys new to it are checked, as the constructor checks them."""
        out = dict(self.nu)
        for seq, value in changes.items():
            seq = tuple(seq)
            value = _integer(value)
            if value:
                if seq not in out:
                    self._check_key(seq)
                out[seq] = value
            else:
                out.pop(seq, None)
        return ClaspVector._trusted(self.n, out)

    def to_json(self) -> dict:
        keys = sorted(self.nu, key=lambda s: (len(s), s))
        return {
            "n": self.n,
            "order": CLASP_ORDER,
            "nu": {".".join(map(str, s)): self.nu[s] for s in keys},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ClaspVector":
        try:
            n = _integer(data["n"])
            order = data.get("order", CLASP_ORDER)
            # checked by the constructor
            nu = {_comb_of_key(key): value for key, value in data.get("nu", {}).items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise BraidError(f"invalid clasp vector object: {exc}") from exc
        # before anything enumerates combs: there are ~10^7 at 12 strands
        admit_strands(n)
        if order != CLASP_ORDER:
            raise BraidError(f"unsupported clasper order {order!r}")
        return cls(n, nu)


def _comb_of_key(key: str) -> tuple[int, ...]:
    """The sequence of a key written as :meth:`ClaspVector.to_json` writes it.
    ``int()`` also reads ``"01"``, ``" 1"``, ``"+1"``, ``"1_0"`` and non-ASCII
    digits, so two keys could name one comb and merge: any spelling but the
    written one raises ValueError."""
    seq = tuple(int(p) for p in key.split("."))
    if ".".join(map(str, seq)) != key:
        raise ValueError(f"comb key {key!r} is not written as {'.'.join(map(str, seq))!r}")
    return seq


def _integer(value: object) -> int:
    """A Python or numpy integer as a Python int; ``int()`` would truncate
    1.5 and accept true, so floats (2.0 too), fractions, strings and bools
    raise :class:`BraidError`."""
    if type(value) is bool or not hasattr(value, "__index__"):
        raise BraidError(f"expected an integer, got {value!r}")
    return operator.index(value)


def clasp_vector_to_braid(v: ClaspVector) -> BraidWord:
    """Ordered product of comb-braid powers in degree-lex order, refused if it
    would have more than :data:`MAX_BUILD_LETTERS` letters before reduction."""
    powers = [(c, e) for c in enumerate_comb_claspers(v.n) if (e := v.get(c.sequence))]
    letters = sum(abs(e) * len(comb_clasper_braid(c, v.n)) for c, e in powers)
    if letters > MAX_BUILD_LETTERS:
        raise LimitError(f"the braid word of this clasp vector has up to {letters} letters, "
                         f"above the limit of {MAX_BUILD_LETTERS}")
    word = BraidWord.identity(v.n)
    for c, e in powers:
        word = word * comb_clasper_braid(c, v.n) ** e
    return word


@lru_cache(maxsize=None)
def comb_kernel(c: CombClasper, n: int) -> UnipotentKernel:
    """gamma of the comb braid as ``I + N``, ``N^2 = 0``, kept as ``N`` (cached).

    ``N`` is named here as a signed sum of products of sparse kernels, and
    :meth:`linkhom.gamma.UnipotentKernel.of_terms` computes and certifies
    it.  At degree 1, ``I + N`` is the product of the generator kernels of
    the word of ``A_{i,m}``.  A comb ``(i_1,..,i_l)`` of higher degree is
    the commutator ``[p, a]`` of its parent comb ``p = (i_1,..,i_{l-2},
    i_l)`` and ``a = A_{i_{l-1}, i_l}`` (:func:`comb_clasper_braid`).  With
    ``P^2 = A^2 = 0`` for their kernels, ``(I + P)(I + A)(I - P)(I - A) -
    I`` expands exactly to ``PA - AP - PAP + APA + PAPA``.
    """
    from .gamma import UnipotentKernel, generator_matrix

    basis = enumerate_basic_commutators(n)
    seq = c.sequence
    if c.degree == 1:
        word = comb_clasper_braid(c, n)
        chain = tuple(generator_matrix(n, i, sign, basis.order) for i, sign in word.letters)
        return UnipotentKernel.of_terms([(1, chain), (-1, ())], 1, basis)
    p, a = (comb_kernel(CombClasper(s), n).nil for s in (seq[:-2] + seq[-1:], seq[-2:]))
    terms = [(1, (p, a)), (-1, (a, p)), (-1, (p, a, p)), (1, (a, p, a)), (1, (p, a, p, a))]
    return UnipotentKernel.of_terms(terms, c.degree, basis)


@lru_cache(maxsize=None)
def _comb_table(n: int) -> dict[tuple[int, ...], object]:
    """Each comb sequence on n strands whose power has been applied, mapped
    to its kernel, or to its ``(family, member index)`` when twice its
    degree is at least n (filled by :func:`_enter_combs`)."""
    admit_strands(n)
    return {}


def _enter_combs(combs: list[CombClasper], n: int) -> None:
    """Enter the combs that are new to the comb table of n strands, with
    their kernels built on this first use.  The new combs of a degree d
    with ``2d >= n`` join the family of the degree's combs entered before,
    built again once with them, so no kernel is built before a power of its
    comb is applied."""
    from .gamma import _KernelFamily

    table = _comb_table(n)
    joining: dict[int, dict[tuple[int, ...], None]] = {}
    for c in combs:
        if c.sequence in table:
            continue
        kernel = comb_kernel(c, n)  # refuses a comb that does not fit on n strands
        if 2 * c.degree < n:
            table[c.sequence] = kernel
        else:
            joining.setdefault(len(c.sequence), {})[c.sequence] = None
    for size, new in joining.items():
        old = sorted((entry[1], seq) for seq, entry in table.items() if len(seq) == size)
        seqs = [seq for _, seq in old] + list(new)
        family = _KernelFamily.of_kernels([comb_kernel(CombClasper(s), n) for s in seqs], n)
        table.update((seq, (family, k)) for k, seq in enumerate(seqs))


def comb_power_product(factors: list[tuple[CombClasper, int]], n: int, x: np.ndarray) -> np.ndarray:
    """gamma(c_1^e_1 .. c_k^e_k) @ x for comb braids c_i on n strands (exact).

    A comb of degree d has ``gamma(c) = I + N`` with ``N`` raising weight by
    d, and RF_n is nilpotent of class n - 1, so the kernels of two combs
    whose degrees sum to n or more multiply to zero.  So each run of
    consecutive factors of one degree d with ``2d >= n`` is ``I + sum e N``
    and takes one sparse pass through the family of that degree's kernels
    (:func:`_enter_combs`); every other power ``I + e N`` takes its own.
    Both kinds go to :func:`linkhom.gamma.apply_power_product` with the
    size of the basis on n strands, which ``x`` must match.
    """
    from .gamma import apply_power_product

    table = _comb_table(n)
    try:
        kernels = [(table[c.sequence], e) for c, e in factors]
    except KeyError:
        _enter_combs([c for c, _ in factors], n)
        kernels = [(table[c.sequence], e) for c, e in factors]
    return apply_power_product(kernels, x, len(enumerate_basic_commutators(n)))


@dataclass(frozen=True)
class _DegreeReadout:
    """Where one degree's clasp numbers sit in ``gamma(b) @ P``.

    The support S is read from the probe column of ``max S``, on the rows
    of commutators with indices in S: the unit row ``(max S)``, the
    comb-shaped rows (support S, ending at ``max S``) holding minus the
    clasp numbers, and the stray rows, which must vanish.
    """

    unit: tuple[np.ndarray, np.ndarray]
    combs: tuple[np.ndarray, np.ndarray]
    claspers: tuple[CombClasper, ...]
    stray: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=None)
def _readout_plan(n: int) -> tuple[_DegreeReadout, ...]:
    basis = enumerate_basic_commutators(n)
    plan = []
    for degree in range(1, n):
        unit, combs, stray = [], [], []
        for support in itertools.combinations(range(1, n + 1), degree + 1):
            col = support[-1] - 2
            inside = set(support)
            for k, alpha in enumerate(basis.elements):
                seq = alpha.sequence
                if not inside.issuperset(seq):
                    continue
                if seq == (support[-1],):
                    unit.append((k, col))
                elif len(seq) == len(support) and seq[-1] == support[-1]:
                    combs.append((seq, k, col))
                else:
                    stray.append((k, col))
        combs.sort()  # degree-lex, the order of the peeled product
        plan.append(_DegreeReadout(
            _cells(unit),
            _cells([cell for _, *cell in combs]),
            tuple(CombClasper(seq) for seq, *_ in combs),
            _cells(stray),
        ))
    return tuple(plan)


def _cells(cells: list) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) pairs as the index arrays of a fancy lookup."""
    import numpy as np

    rows, cols = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    return rows, cols


def read_clasp_numbers(n: int, probes: np.ndarray) -> ClaspVector:
    """The clasp numbers of a pure braid ``b`` from ``gamma(b) @ P``.

    Degree by degree: every support of the degree is read from its probe
    column (see :class:`_DegreeReadout`), then the degree's ordered comb
    product is divided out on the left by applying its comb powers with
    negated exponents to the probes.  When every degree is peeled the
    probes must be P again.  A readout that breaks any of this raises
    :class:`CertificationError`; probes of any shape but one row per basis
    element and one column per strand 2..n raise :class:`RankError`, and
    float probes ``TypeError``.
    """
    import numpy as np

    from .gamma import _exact_integers, probe_block

    basis = enumerate_basic_commutators(n)
    if probes.shape != (len(basis), n - 1):
        raise RankError(f"probes of shape {probes.shape} are not {len(basis)} by {n - 1}")
    probes = _exact_integers(probes)
    nu: dict[tuple[int, ...], int] = {}
    for plan in _readout_plan(n):
        if (probes[plan.unit] != 1).any():
            raise CertificationError("probe readout lost the unit coefficient")
        stray = probes[plan.stray] != 0
        if stray.any():
            alpha = basis.elements[plan.stray[0][np.flatnonzero(stray)[0]]]
            raise CertificationError(f"probe readout has an unexpected coefficient at {alpha}")
        found = [(c, -int(value)) for c, value in zip(plan.claspers, probes[plan.combs]) if value]
        if found:
            nu.update((c.sequence, value) for c, value in found)
            probes = comb_power_product([(c, -value) for c, value in reversed(found)], n, probes)
    if not np.array_equal(probes, probe_block(n)):
        raise CertificationError("the peeled probes are not the probe block")
    return ClaspVector._trusted(n, nu)  # the plan's combs fit on n strands


def extract_clasp_vector(b: BraidWord) -> ClaspVector:
    """The unique clasp numbers of a pure braid.

    Applies the braid's matrix once to the probe block and reads the clasp
    numbers off it with :func:`read_clasp_numbers`; no strand is deleted
    and no word is built.
    """
    from .gamma import gamma_apply, probe_block

    n = b.strands
    admit_strands(n)  # before is_pure() builds a permutation of n entries
    if not b.is_pure():
        raise BraidError("clasp numbers are defined for pure braids only")
    probes = gamma_apply(b, probe_block(n), enumerate_basic_commutators(n))
    return read_clasp_numbers(n, probes)
