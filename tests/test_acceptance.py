"""Acceptance suite.

One test per criterion, each an exact check (integer equality throughout,
no tolerances).  Every test prints a single line

    PASS  criterion <k>: <summary>  [<elapsed>s, limit <limit>s]

on success; run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they complete.
"""

import itertools
import random
import time

import numpy as np

from linkhom.braids import BraidWord, compose, parse_braid_word, pure_generator_word
from linkhom.claspers import (
    ClaspVector,
    clasp_vector_to_braid,
    extract_clasp_vector,
)
from linkhom.closure import (
    EQUIVALENT,
    PartialConjugation,
    apply_table_move,
    closure_equivalent,
    move_tables,
    partial_conjugate,
    replay_witness,
    _degree_seqs,
    _increment_vector,
)
from linkhom.gamma import gamma_matrix
from linkhom.intlattice import IntegerLattice
from linkhom.reduced_free import (
    ORDER_TAGS,
    ReducedWord,
    artin_act,
    basis_size_formula,
    enumerate_basic_commutators,
    rfg_normal_form,
)
from conftest import random_braid, random_clasp_vector, random_pure_braid
from test_gamma import GOLD_SIGMA1, GOLD_SIGMA2
from word_oracle import gamma_matrix_definitional, milnor_triplet, structure_report


class timer:
    def __init__(self, number: int, summary: str, limit: float):
        self.number, self.summary, self.limit = number, summary, limit

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"{status}  criterion {self.number}: {self.summary}  "
            f"[{elapsed:.2f}s, limit {self.limit:.0f}s]"
        )
        assert elapsed < self.limit, f"criterion {self.number} exceeded its time limit"
        return False


def test_criterion_01_golden_matrices():
    with timer(1, "golden 8x8 generator matrices on 3 strands", 1):
        m1 = gamma_matrix(parse_braid_word("s1", 3)).matrix
        m2 = gamma_matrix(parse_braid_word("s2", 3)).matrix
        assert np.array_equal(m1, GOLD_SIGMA1)
        assert np.array_equal(m2, GOLD_SIGMA2)


def test_criterion_02_basis_counts():
    with timer(2, "basis sizes 1,3,8,24,89,415 for n=1..6", 1):
        expected = [1, 3, 8, 24, 89, 415]
        for n, size in zip(range(1, 7), expected):
            basis = enumerate_basic_commutators(n)
            assert len(basis) == size
            assert basis_size_formula(n) == size
            # sequences are pairwise distinct and admissible by construction;
            # confirm count once more by direct enumeration
            brute = sum(
                1
                for length in range(1, n + 1)
                for seq in itertools.permutations(range(1, n + 1), length)
                if seq[0] == min(seq)
            )
            assert brute == size


def test_criterion_03_homomorphism_suite():
    with timer(3, "gamma(ab) = gamma(a) gamma(b), 200 random pairs per n in {3,4,5}", 120):
        rng = random.Random(301)
        for n in (3, 4, 5):
            for _ in range(200):
                a = random_braid(rng, n, rng.randint(0, 10))
                b = random_braid(rng, n, rng.randint(0, 10))
                product = gamma_matrix(compose(a, b)).matrix
                split = gamma_matrix(a).matrix @ gamma_matrix(b).matrix
                assert np.array_equal(product, split)


def _commutator(a, b):
    return compose(a, b, a.inverse(), b.inverse())


def test_criterion_04_presentation_suite():
    with timer(4, "all relator families map to the identity for n in {3,4}", 120):
        rng = random.Random(401)
        for n in (3, 4):
            A = {
                (i, j): pure_generator_word(n, i, j)
                for i in range(1, n)
                for j in range(i + 1, n + 1)
            }
            idx = sorted(A)
            relators = []
            for (r, s) in idx:
                for (i, j) in idx:
                    if s < i or (r < i and j < s):
                        relators.append(_commutator(A[r, s], A[i, j]))
            for r, s, j in itertools.combinations(range(1, n + 1), 3):
                relators.append(compose(
                    _commutator(A[r, s], A[r, j]),
                    _commutator(A[r, j], A[s, j]).inverse(),
                ))
                relators.append(compose(
                    _commutator(A[r, j], A[s, j]),
                    _commutator(A[s, j], A[r, s]).inverse(),
                ))
            for r, s, i, j in itertools.combinations(range(1, n + 1), 4):
                relators.append(compose(
                    _commutator(A[r, i], A[s, j]),
                    _commutator(_commutator(A[i, j], A[r, j]), A[s, j]).inverse(),
                ))
            gens = list(A.values())
            for (i, j) in idx:
                for _ in range(50):
                    lam = BraidWord.identity(n)
                    for _ in range(rng.randint(0, 4)):
                        lam = compose(lam, rng.choice(gens) ** rng.choice((1, -1)))
                    conj = compose(lam, A[i, j], lam.inverse())
                    relators.append(_commutator(A[i, j], conj))
            for relator in relators:
                assert gamma_matrix(relator).is_identity()


def test_criterion_05_normal_form_uniqueness_and_faithfulness():
    with timer(5, "clasp round trips (200 per n in {3,4,5}) and 200 pure words per n in {3,4}", 300):
        from linkhom.gamma import braid_equal_lh

        rng = random.Random(501)
        for n in (3, 4, 5):
            for _ in range(200):
                v = random_clasp_vector(rng, n, bound=2)
                assert extract_clasp_vector(clasp_vector_to_braid(v)) == v
        for n in (3, 4):
            for _ in range(200):
                word = random_pure_braid(rng, n, rng.randint(0, 12))
                rebuilt = clasp_vector_to_braid(extract_clasp_vector(word))
                assert braid_equal_lh(word, rebuilt)


def test_criterion_06_closed_form_oracle():
    summary = (
        "closed-form generator matrices and their derived inverses equal the "
        "definitional action, n in {2,3,4,5}, both basis orders"
    )
    with timer(6, summary, 60):
        for n in (2, 3, 4, 5):
            for order in ORDER_TAGS:
                basis = enumerate_basic_commutators(n, order)
                for i in range(1, n):
                    for sign in (1, -1):
                        # the applied kernel against the definitional action
                        letter = BraidWord(n, ((i, sign),))
                        assert gamma_matrix(letter, basis) == gamma_matrix_definitional(letter, basis)
        # the eight-term signed-sum instance is pinned separately
        from linkhom.gamma import gamma_generator_closed_form
        from linkhom.reduced_free import BasicCommutator

        out = gamma_generator_closed_form(1, BasicCommutator((1, 3, 4, 5, 2)), 5)
        assert len(out) == 8
        assert sum(out.values()) == 0
        assert out[BasicCommutator((1, 5, 4, 3, 2))] == 1
        assert out[BasicCommutator((1, 2, 3, 4, 5))] == -1


def test_criterion_07_table_reproduction_n4():
    with timer(7, "word-level conjugation reproduces all 12 table rows, 50 vectors each", 300):
        rng = random.Random(701)
        tables = move_tables()
        top = _degree_seqs(4, 3)
        for row in tables["n4-partial-conjugations"]:
            i, j, sign = row.pc
            for _ in range(50):
                v = random_clasp_vector(rng, 4, bound=2)
                word = partial_conjugate(v, PartialConjugation(i, j, sign))
                table = apply_table_move(v, row, 1)
                # empty cells leave values unchanged: degrees 1 and 2 agree
                # exactly; the top degree agrees modulo the closure moves
                # (exactly an equality whenever that lattice is trivial)
                assert word.degree_part(1) == table.degree_part(1)
                assert word.degree_part(2) == table.degree_part(2)
                free = IntegerLattice(
                    len(top),
                    [
                        _increment_vector(r, top, v.get)
                        for r in tables["n4-closure-moves"]
                    ],
                )
                diff = tuple(word.get(s) - table.get(s) for s in top)
                assert diff in free
                if free.rank == 0:
                    assert word == table
                verdict = closure_equivalent(word, table)
                assert verdict.status == EQUIVALENT


def test_criterion_08_five_component_split_consistency():
    with timer(8, "word-level conjugations match the 15 generating rows on 50 split vectors", 600):
        rng = random.Random(801)
        tables = move_tables()
        top = _degree_seqs(5, 4)
        for _ in range(50):
            v = random_clasp_vector(rng, 5, bound=2, min_degree=2)
            for row in tables["n5-split-generating"]:
                i, j, sign = row.pc
                word = partial_conjugate(v, PartialConjugation(i, j, sign))
                table = apply_table_move(v, row, 1)
                for degree in (1, 2, 3):
                    assert word.degree_part(degree) == table.degree_part(degree)
                free = IntegerLattice(
                    len(top),
                    [
                        _increment_vector(r, top, v.get)
                        for r in tables["n5-split-closure-moves"]
                    ],
                )
                diff = tuple(word.get(s) - table.get(s) for s in top)
                assert diff in free
                verdict = closure_equivalent(word, table)
                assert verdict.status == EQUIVALENT
                assert replay_witness(word, verdict.witness) == table


def test_criterion_09_classification_spot_checks():
    with timer(9, "small-component classification spot checks", 1):
        assert closure_equivalent(
            ClaspVector(2, {(1, 2): 3}), ClaspVector(2, {(1, 2): 3})
        ).status == "equivalent"
        assert closure_equivalent(
            ClaspVector(2, {(1, 2): 3}), ClaspVector(2, {(1, 2): 2})
        ).status == "distinct"
        assert closure_equivalent(
            ClaspVector(3, {(1, 2, 3): 1}), ClaspVector(3, {})
        ).status == "distinct"
        v = ClaspVector(3, {(1, 2): 2, (1, 3): 4, (2, 3): 6, (1, 2, 3): 7})
        assert milnor_triplet(v) == ((2, 4, 6), 1)
        assert milnor_triplet(ClaspVector(3, {(1, 2, 3): 4})) == ((0, 0, 0), 4)
        w = ClaspVector(3, {(1, 2): 2, (1, 3): 4, (2, 3): 6, (1, 2, 3): 1})
        assert closure_equivalent(v, w).status == "equivalent"


def test_criterion_10_support_confinement_and_blocks():
    with timer(10, "support confinement and block structure, 100 braids per n in {3,4,5}", 120):
        rng = random.Random(1001)
        for n in (3, 4, 5):
            for _ in range(100):
                braid = random_braid(rng, n, rng.randint(0, 10))
                q = braid.permutation()
                j = rng.randint(1, n)
                vec = rfg_normal_form(artin_act(braid, ReducedWord.generator(n, j)))
                for alpha, value in vec.nonzero():
                    assert q(j) in alpha.sequence
                report = structure_report(gamma_matrix(braid), braid)
                assert report.ok, report.violations
