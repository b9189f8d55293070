"""Word-level oracles for clasp extraction and partial conjugation.

The library reads clasp numbers off ``gamma(b)`` applied to the probe
columns and never builds or cuts a braid word on that route.  These are
the older, independent routes: forget the strands outside each support,
probe the restricted braid's own matrix, and divide the recognised
degree out of a growing residual word; and build the partially
conjugated braid word itself.
"""

import itertools

import numpy as np

from linkhom.braids import (
    BraidWord,
    CertificationError,
    compose,
    delete_strand,
    delete_strands,
    invert,
)
from linkhom.claspers import (
    ClaspVector,
    CombClasper,
    clasp_vector_to_braid,
    comb_clasper_braid,
    enumerate_comb_claspers,
)
from linkhom.gamma import gamma_apply
from linkhom.reduced_free import BasicCommutator, enumerate_basic_commutators


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
