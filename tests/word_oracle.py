"""Independent oracles the tests check the library against.

The library computes each answer by one production route; these are the
older or definitional routes, kept only here:

* the representation by its definition (:func:`gamma_matrix_definitional`):
  act on each basis commutator word, then take the normal form, the
  oracle for the closed-form generator matrices;
* the block structure every braid's matrix must have
  (:func:`structure_report`);
* the complete 3-component closure invariant (:func:`milnor_triplet`);
* clasp extraction and partial conjugation on braid words.  The library
  reads clasp numbers off ``gamma(b)`` applied to the probe columns and
  never builds or cuts a braid word on that route.  The word-level
  routes forget the strands outside each support, probe the restricted
  braid's own matrix, and divide the recognised degree out of a growing
  residual word; and build the partially conjugated braid word itself.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from linkhom.braids import (
    BraidError,
    BraidWord,
    CertificationError,
    compose,
    delete_strand,
    delete_strands,
    invert,
    permutation_of,
)
from linkhom.claspers import (
    ClaspVector,
    CombClasper,
    clasp_vector_to_braid,
    comb_clasper_braid,
    enumerate_comb_claspers,
)
from linkhom.gamma import GammaMatrix, _checked_basis, gamma_apply
from linkhom.reduced_free import (
    BasicCommutator,
    CommutatorBasis,
    artin_act,
    commutator_word,
    enumerate_basic_commutators,
    rfg_normal_form,
)


def gamma_matrix_definitional(b: BraidWord, basis: CommutatorBasis | None = None) -> GammaMatrix:
    """Matrix computed column by column from the action of the whole word.

    Exponentially slower than :func:`linkhom.gamma.gamma_matrix` on long
    words; the independent oracle for the closed form and the homomorphism
    property.
    """
    basis = _checked_basis(b, basis)
    m = len(basis)
    mat = np.zeros((m, m), dtype=np.int64)
    for c, alpha in enumerate(basis.elements):
        image = artin_act(b, commutator_word(basis.rank, alpha.sequence))
        mat[:, c] = rfg_normal_form(image, basis).values
    return GammaMatrix(basis, mat)


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

    The matrix's basis must have ``b``'s strand count as its rank, refused
    with :class:`~linkhom.reduced_free.RankError` otherwise.  The weight-1
    diagonal block must permute the basis like the braid's permutation;
    the weight-2 block must act on index pairs by the same permutation,
    with a sign when the images need reordering.  When the braid is pure
    every diagonal block must be the identity.  Each check is one array
    comparison: the entries above the diagonal blocks are listed row by
    row, then each weight-1 and weight-2 column that differs from its
    expected signed permutation block, then the first diagonal block of a
    pure braid that is not the identity.
    """
    basis, matrix = _checked_basis(b, m.basis), m.matrix
    q = permutation_of(b)
    weights = np.array([alpha.weight for alpha in basis.elements])
    above = np.argwhere((matrix != 0) & (weights[:, None] < weights[None, :]))
    violations = [f"entry ({basis.elements[r]}, {basis.elements[c]}) above the diagonal blocks"
                  for r, c in above]

    def diagonal(weight: int) -> slice:
        return slice(*np.searchsorted(weights, (weight, weight + 1)))

    def differing_columns(weight: int, image) -> list[BasicCommutator]:
        """The columns of the weight's diagonal block that differ from the
        block sending each element to ``sign`` times ``target``, for
        ``image(*alpha.sequence) = (target, sign)``."""
        block = diagonal(weight)
        elements = basis.elements[block]
        expect = np.zeros((len(elements), len(elements)), np.int64)
        for c, alpha in enumerate(elements):
            target, sign = image(*alpha.sequence)
            expect[basis.index_of(BasicCommutator(target)) - block.start, c] = sign
        differs = (matrix[block, block] != expect).any(axis=0)
        return [elements[c] for c in np.flatnonzero(differs)]

    def pair_image(k: int, j: int) -> tuple[tuple[int, int], int]:
        qk, qj = q(k), q(j)
        return ((qk, qj), 1) if qk < qj else ((qj, qk), -1)

    perm_cols = differing_columns(1, lambda k: ((q(k),), 1))
    violations += [f"weight-1 block at column {col} differs from the permutation" for col in perm_cols]
    pair_cols = differing_columns(2, pair_image)
    violations += [f"weight-2 block at column {col} differs from the signed pair action"
                   for col in pair_cols]

    pure = q.is_identity()
    diag_identity: bool | None = None
    if pure:
        diag_identity = True
        for weight in range(1, basis.rank + 1):
            block = diagonal(weight)
            if not np.array_equal(matrix[block, block], np.eye(block.stop - block.start, dtype=np.int64)):
                diag_identity = False
                violations.append(f"weight-{weight} diagonal block is not the identity")
                break

    return StructureReport(
        pure=pure,
        block_triangular=not len(above),
        permutation_block_ok=not perm_cols,
        pair_block_ok=not pair_cols,
        diagonal_blocks_identity=diag_identity,
        violations=violations,
    )


def milnor_triplet(v: ClaspVector) -> tuple[tuple[int, int, int], int]:
    """Complete 3-component closure invariant: degree-1 values and the
    triple number reduced modulo their gcd (kept exact when the gcd is 0)."""
    if v.n != 3:
        raise BraidError(f"triple invariant needs n=3, got n={v.n}")
    d1 = (v.get((1, 2)), v.get((1, 3)), v.get((2, 3)))
    g = math.gcd(*d1)
    t = v.get((1, 2, 3))
    return d1, (t % g if g else t)


def probe_coefficients(word: BraidWord) -> dict[tuple[int, ...], int]:
    """Clasp numbers of full support, read from one matrix-vector probe.

    ``word`` must be a product of comb braids whose support is the full
    strand set: its matrix sends the weight-one element of the last strand
    to itself minus the clasp numbers on the full-weight commutators that
    end there, and nothing else.
    """
    rank = word.strands
    basis = enumerate_basic_commutators(rank)
    probe = BasicCommutator((rank,))
    vec = np.zeros(len(basis), dtype=np.int64)
    vec[basis.index_of(probe)] = 1
    vec = gamma_apply(word, vec, basis)
    out = {}
    for k, alpha in enumerate(basis.elements):
        value = int(vec[k])
        if alpha == probe:
            if value != 1:
                raise CertificationError("probe readout lost the unit coefficient")
        elif alpha.weight == rank and alpha.sequence[-1] == rank:
            if value:
                out[alpha.sequence] = -value
        elif value:
            raise CertificationError(f"probe readout has an unexpected coefficient at {alpha}")
    return out


def word_extract_clasp_vector(b: BraidWord) -> ClaspVector:
    """Clasp numbers by strand deletion: probe every support's restriction
    of the residual, then divide the degree's comb product out on the left."""
    n = b.strands
    residual = b
    nu = {}
    combs = enumerate_comb_claspers(n)
    for degree in range(1, n):
        for support in itertools.combinations(range(1, n + 1), degree + 1):
            found = probe_coefficients(delete_strands(residual, support))
            for local_seq, value in found.items():
                nu[tuple(support[k - 1] for k in local_seq)] = value
        peel = BraidWord.identity(n)
        for c in combs:
            if c.degree == degree and nu.get(c.sequence):
                peel = peel * comb_clasper_braid(c, n) ** nu[c.sequence]
        residual = compose(invert(peel), residual)
    return ClaspVector(n, nu)


def partial_conjugate_word(b: BraidWord, pc) -> BraidWord:
    """theta lambda theta^-1 b lambda^-1, theta recovered by deleting strand i."""
    n = b.strands
    i, j = pc.strand, pc.conjugator
    reduced = word_extract_clasp_vector(delete_strand(b, i))
    lifted = {
        tuple(k if k < i else k + 1 for k in seq): value
        for seq, value in reduced.nu.items()
    }
    theta = clasp_vector_to_braid(ClaspVector(n, lifted))
    lam = comb_clasper_braid(CombClasper((min(i, j), max(i, j))), n) ** pc.sign
    return compose(theta, lam, invert(theta), b, invert(lam))


def word_partial_conjugate(v: ClaspVector, pc) -> ClaspVector:
    return word_extract_clasp_vector(partial_conjugate_word(clasp_vector_to_braid(v), pc))
