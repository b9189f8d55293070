import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkhom import gamma
from linkhom.braids import (
    BraidError,
    BraidWord,
    CertificationError,
    compose,
    free_reduce,
    parse_braid_word,
    pure_generator_word,
)
from linkhom.gamma import (
    GammaMatrix,
    SparseKernel,
    UnipotentKernel,
    _certified_inverse,
    _kernel_steps,
    _max_abs,
    _run_steps,
    _sparse_product,
    braid_equal_lh,
    closed_form_generator_matrix,
    gamma_apply,
    gamma_generator_closed_form,
    gamma_matrix,
    gamma_matrix_definitional,
    probe_block,
    structure_report,
)
from linkhom.claspers import (
    CombClasper,
    clasp_vector_to_braid,
    comb_clasper_braid,
    comb_kernel,
    enumerate_comb_claspers,
    extract_clasp_vector,
)
from linkhom.reduced_free import ORDER_TAGS, BasicCommutator, RankError, enumerate_basic_commutators
from conftest import exact_determinant, random_braid, random_clasp_vector, random_pure_braid

# Golden 8x8 matrices of the two generators on three strands, basis order
# (1),(2),(3),(12),(13),(23),(123),(132); columns are images.
GOLD_SIGMA1 = np.array([
    [0, 1, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, -1, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, -1, -1],
    [0, 0, 0, 0, 0, 0, 0, 1],
])
GOLD_SIGMA2 = np.array([
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, -1, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 1],
    [0, 0, 0, 0, -1, 0, 1, 0],
])


def test_golden_matrices():
    m1 = gamma_matrix(parse_braid_word("s1", 3))
    m2 = gamma_matrix(parse_braid_word("s2", 3))
    assert np.array_equal(m1.matrix, GOLD_SIGMA1)
    assert np.array_equal(m2.matrix, GOLD_SIGMA2)


def test_identity_matrix():
    assert gamma_matrix(BraidWord.identity(3)).is_identity()
    word = compose(BraidWord.sigma(3, 1), BraidWord.sigma(3, 1, -1))
    assert gamma_matrix(word).is_identity()


def test_inverse_generator_is_matrix_inverse():
    for n in (2, 3, 4, 5, 6):
        for i in range(1, n):
            plus = gamma_matrix(BraidWord.sigma(n, i)).matrix
            minus = gamma_matrix(BraidWord.sigma(n, i, -1)).matrix
            assert np.array_equal(plus @ minus, np.eye(len(plus), dtype=np.int64))
            assert np.array_equal(minus @ plus, np.eye(len(plus), dtype=np.int64))


def test_generator_kernel_has_one_cache_key():
    # every argument is positional and required: the call forms that would
    # give the same kernel a second cache entry are refused, building nothing
    gm = gamma.generator_matrix
    kernel = gm(4, 2, -1, "weight-revlex")
    before = gm.cache_info()
    assert gm(4, 2, -1, "weight-revlex") is kernel
    with pytest.raises(TypeError):
        gm(4, 2, -1)
    with pytest.raises(TypeError):
        gm(4, 2, -1, order="weight-revlex")
    after = gm.cache_info()
    assert after.currsize == before.currsize
    assert after.hits == before.hits + 1


def test_derived_inverse_at_seven_strands():
    # words are freely reduced before any kernel is applied, so the kernels
    # of sigma_1 and its derived inverse are multiplied here directly: I
    # both ways
    order = enumerate_basic_commutators(7).order
    plus, minus = (gamma.generator_matrix(7, 1, sign, order) for sign in (1, -1))
    identity = np.eye(plus.size, dtype=np.int64)
    for kernels in ((plus, minus), (minus, plus)):
        assert np.array_equal(_run_steps(_kernel_steps(kernels), identity), identity)


def test_derived_inverse_cancels_its_generator_on_random_blocks(rng):
    # gamma_apply cancels sigma_i sigma_i^-1 before applying anything, so
    # the two kernels are applied in turn here.  Widths 1 and 5 are stacked
    # whole, 12 goes 8 columns and then 4.
    for n in (3, 4, 5, 6):
        order = enumerate_basic_commutators(n).order
        for i in range(1, n):
            plus, minus = (gamma.generator_matrix(n, i, sign, order) for sign in (1, -1))
            m = plus.size
            blocks = [np.array([rng.randint(-99, 99) for _ in range(m)], dtype=np.int64)]
            for width in (1, 5, 12):
                entries = [rng.randint(-99, 99) for _ in range(m * width)]
                blocks.append(np.array(entries, dtype=np.int64).reshape(m, width))
            for x in blocks:
                assert np.array_equal(_run_steps(_kernel_steps((plus, minus)), x), x)
                assert np.array_equal(_run_steps(_kernel_steps((minus, plus)), x), x)


def test_inverse_certification_rejects_corrupted_generators():
    basis = enumerate_basic_commutators(3)
    good = closed_form_generator_matrix(3, 1)
    # weight-1 block [[0,1,1],[1,0,0],[0,0,1]] squares to a non-identity,
    # so G^2 - I does not raise weight
    not_involution = good.copy()
    not_involution[0, 2] = 1
    with pytest.raises(CertificationError, match="raise weight"):
        _certified_inverse(SparseKernel.from_dense(not_involution), basis)
    # the top-weight block [[-1,-1],[1,1]] squares to 0; N is never read
    # on top-weight columns, so only the final G @ G^-1 = I sees it
    top = basis.weight_range(3).start
    singular_top = good.copy()
    singular_top[top + 1, top] = 1
    with pytest.raises(CertificationError, match="not the matrix inverse"):
        _certified_inverse(SparseKernel.from_dense(singular_top), basis)
    # an inverse whose certificate could wrap around in int64
    huge = good.copy()
    huge[basis.index_of(BasicCommutator((1, 2))), 0] = 2**61
    with pytest.raises(CertificationError, match="too large"):
        _certified_inverse(SparseKernel.from_dense(huge), basis)
    with pytest.raises(CertificationError):
        SparseKernel.from_dense(np.eye(3, dtype=np.int64) - np.diag([0, 0, 1]))
    # an image two weights up is no defect: I - N inverts it exactly
    skips_weight = good.copy()
    skips_weight[basis.index_of(BasicCommutator((1, 2, 3))), 0] = 1
    inverse = _certified_inverse(SparseKernel.from_dense(skips_weight), basis)
    inverse = _run_steps(_kernel_steps([inverse]), np.eye(len(basis), dtype=np.int64))
    assert np.array_equal(skips_weight @ inverse, np.eye(len(basis), dtype=np.int64))


def test_unipotent_kernels_must_square_to_zero():
    # a1,2 a2,3 and a1,2 a3,4 are pure, so gamma - I raises weight, but
    # their N is a sum of two comb kernels with a nonzero product
    for text, n in (("a1,2 a2,3", 3), ("a1,2 a3,4", 4)):
        word, basis = parse_braid_word(text, n), enumerate_basic_commutators(n)
        chain = [gamma.generator_matrix(n, i, sign, basis.order) for i, sign in word.letters]
        with pytest.raises(CertificationError, match="does not square to zero"):
            UnipotentKernel.of_terms([(1, chain), (-1, ())], 1, basis)


def _kernel_of(m):
    return SparseKernel.of_entries(len(m), *np.nonzero(m), m[np.nonzero(m)])


def _dense_product(terms, size):
    """The object-dtype oracle of :func:`_sparse_product`: sum c M_1 .. M_k."""
    out = np.zeros((size, size), dtype=object)
    for c, chain in terms:
        product = np.eye(size, dtype=np.int64).astype(object)
        for matrix in chain:
            product = product @ matrix.astype(object)
        out = out + c * product
    return out


@st.composite
def product_terms(draw):
    """One to three signed chains of zero to four sparse integer matrices of
    one size, with small entries or entries up to 2**33, whose products may
    pass 2**62."""
    size = draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 0, 1, -1)) | st.integers(-3, 3) | st.integers(-2**33, 2**33)
    matrix = st.lists(entry, min_size=size * size, max_size=size * size).map(
        lambda e: np.array(e, dtype=np.int64).reshape(size, size))
    chain = st.lists(matrix, max_size=4)
    terms = draw(st.lists(st.tuples(st.integers(-3, 3), chain), min_size=1, max_size=3))
    return size, terms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(product_terms())
def test_sparse_product_matches_the_dense_product(drawn):
    # the result lists the nonzero entries of the exact sum row by row; a
    # bound of 2**62 or more, sum |c| prod row_sum, is refused rather than
    # wrapped
    size, terms = drawn
    kernels = [(c, [_kernel_of(m) for m in chain]) for c, chain in terms]
    row_sum = lambda m: max(sum(abs(int(v)) for v in row) for row in m)
    bound = sum(abs(c) * math.prod(row_sum(m) for m in chain) for c, chain in terms)
    if bound >= 2**62:
        with pytest.raises(CertificationError, match="too large"):
            _sparse_product(kernels, size)
        return
    rows, cols, coeffs = _sparse_product(kernels, size)
    expect = _dense_product(terms, size)
    assert coeffs.dtype == np.int64 and coeffs.all()
    assert [rows.tolist(), cols.tolist()] == [a.tolist() for a in np.nonzero(expect)]
    assert coeffs.tolist() == expect[rows, cols].tolist()


def test_sparse_product_edge_cases():
    kernel = _kernel_of(np.array([[2, -1, 0], [0, 0, 3], [0, 0, 0]], dtype=np.int64))
    shift = _kernel_of(np.eye(3, k=1, dtype=np.int64))
    # the empty product is I, and entries that cancel are dropped
    assert [a.tolist() for a in _sparse_product([(1, ())], 3)] == [[0, 1, 2]] * 2 + [[1, 1, 1]]
    for terms in ([(1, (kernel,)), (-1, (kernel,))], [(1, (shift, shift, shift))], []):
        assert all(len(a) == 0 for a in _sparse_product(terms, 3))
    rows, cols, coeffs = _sparse_product([(1, (kernel, kernel)), (-4, ()), (4, ())], 3)
    assert (rows.tolist(), cols.tolist(), coeffs.tolist()) == ([0, 0, 0], [0, 1, 2], [4, -2, -3])
    # the bound is sum |c| prod row_sum: just below 2**62 the sum is exact,
    # at 2**62 it is refused
    big, below = (_kernel_of(np.array([[v]], dtype=np.int64)) for v in (2**31, 2**31 - 1))
    assert _sparse_product([(-1, (big, below))], 1)[2].tolist() == [2**31 - 2**62]
    assert _sparse_product([(2**62 - 1, ())], 1)[2].tolist() == [2**62 - 1]
    for terms in ([(1, (big, big))], [(2**62, ())], [(2**61, ()), (-(2**61), ())],
                  [(-1, (big, big, big))]):
        with pytest.raises(CertificationError, match="too large"):
            _sparse_product(terms, 1)


def test_braid_relations_hold():
    # gamma must factor through the braid group: adjacent generators braid,
    # distant ones commute
    for n in (3, 4, 5, 6):
        for i in range(1, n - 1):
            lhs = parse_braid_word(f"s{i} s{i + 1} s{i}", n)
            rhs = parse_braid_word(f"s{i + 1} s{i} s{i + 1}", n)
            assert gamma_matrix(lhs) == gamma_matrix(rhs)
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                lhs = parse_braid_word(f"s{i} s{j}", n)
                rhs = parse_braid_word(f"s{j} s{i}", n)
                assert gamma_matrix(lhs) == gamma_matrix(rhs)


def test_homomorphism_random(rng):
    for n in (3, 4):
        for _ in range(15):
            a = random_braid(rng, n, rng.randint(0, 8))
            b = random_braid(rng, n, rng.randint(0, 8))
            prod = gamma_matrix(compose(a, b)).matrix
            assert np.array_equal(prod, gamma_matrix(a).matrix @ gamma_matrix(b).matrix)


def test_matrix_agrees_with_whole_word_action(rng):
    # the per-letter product must equal the column-by-column computation
    # from the action of the entire word
    for _ in range(8):
        word = random_braid(rng, 3, rng.randint(0, 6))
        assert gamma_matrix_definitional(word) == gamma_matrix(word)


def test_determinants_are_units(rng):
    for n in (3, 4):
        for _ in range(6):
            word = random_braid(rng, n, rng.randint(0, 8))
            det = exact_determinant(gamma_matrix(word).matrix.tolist())
            assert det in (1, -1)


def test_order_independence(rng):
    # changing the basis order permutes rows/columns but never the values:
    # compare entries as maps (row sequence, column sequence) -> value
    for _ in range(6):
        word = random_braid(rng, 3, rng.randint(0, 6))
        lex = gamma_matrix(word, enumerate_basic_commutators(3, "weight-lex"))
        rev = gamma_matrix(word, enumerate_basic_commutators(3, "weight-revlex"))
        assert as_map(lex) == as_map(rev)


def as_map(m):
    """Entries keyed by (row sequence, column sequence): order-free form."""
    rows, cols = np.nonzero(m.matrix)
    return {
        (m.basis.elements[r].sequence, m.basis.elements[c].sequence): int(m.matrix[r, c])
        for r, c in zip(rows, cols)
    }


# ---------------------------------------------------------------------------
# Closed-form generator images


def test_closed_form_fixed_and_shift():
    # (a): untouched sequence
    out = gamma_generator_closed_form(1, BasicCommutator((3,)), 3)
    assert out == {BasicCommutator((3,)): 1}
    # (b): i -> i+1
    out = gamma_generator_closed_form(1, BasicCommutator((1, 3)), 3)
    assert out == {BasicCommutator((2, 3)): 1}


def test_closed_form_leading_cases():
    # (c): gamma(sigma_1)(2) = (1) + (12)
    out = gamma_generator_closed_form(1, BasicCommutator((2,)), 3)
    assert out == {BasicCommutator((1,)): 1, BasicCommutator((1, 2)): 1}
    # (d): gamma(sigma_2)(13) = (12) + (123) - (132)
    out = gamma_generator_closed_form(2, BasicCommutator((1, 3)), 3)
    assert out == {
        BasicCommutator((1, 2)): 1,
        BasicCommutator((1, 2, 3)): 1,
        BasicCommutator((1, 3, 2)): -1,
    }


def test_closed_form_swaps():
    # (e): gamma(sigma_2)(123) = (132)
    out = gamma_generator_closed_form(2, BasicCommutator((1, 2, 3)), 3)
    assert out == {BasicCommutator((1, 3, 2)): 1}
    # (f): gamma(sigma_2)(132) = (123)
    out = gamma_generator_closed_form(2, BasicCommutator((1, 3, 2)), 3)
    assert out == {BasicCommutator((1, 2, 3)): 1}


def test_closed_form_signed_sum():
    # (g) with an empty middle: gamma(sigma_1)(12) = -(12)
    out = gamma_generator_closed_form(1, BasicCommutator((1, 2)), 3)
    assert out == {BasicCommutator((1, 2)): -1}
    # (g) with a three-element middle: the eight-term signed sum
    out = gamma_generator_closed_form(1, BasicCommutator((1, 3, 4, 5, 2)), 5)
    assert out == {
        BasicCommutator((1, 2, 3, 4, 5)): -1,
        BasicCommutator((1, 3, 2, 4, 5)): 1,
        BasicCommutator((1, 4, 2, 3, 5)): 1,
        BasicCommutator((1, 5, 2, 3, 4)): 1,
        BasicCommutator((1, 4, 3, 2, 5)): -1,
        BasicCommutator((1, 5, 3, 2, 4)): -1,
        BasicCommutator((1, 5, 4, 2, 3)): -1,
        BasicCommutator((1, 5, 4, 3, 2)): 1,
    }


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_closed_form_matches_definitional(n):
    # sigma_i from the closed form and sigma_i^-1 derived from it, against
    # the action of the one-letter word read through the normal form
    for order in ORDER_TAGS:
        basis = enumerate_basic_commutators(n, order)
        for i in range(1, n):
            for sign in (1, -1):
                letter = BraidWord(n, ((i, sign),))
                assert gamma_matrix(letter, basis) == gamma_matrix_definitional(letter, basis)


def test_closed_form_bad_index():
    with pytest.raises(BraidError):
        gamma_generator_closed_form(3, BasicCommutator((1,)), 3)


# ---------------------------------------------------------------------------
# Equality and presentation relators


def test_braid_equal_examples():
    # [A_13, A_23 A_13 A_23^-1] is trivial up to link-homotopy
    a13 = pure_generator_word(3, 1, 3)
    a23 = pure_generator_word(3, 2, 3)
    conj = compose(a23, a13, a23.inverse())
    relator = compose(a13, conj, a13.inverse(), conj.inverse())
    assert braid_equal_lh(relator, BraidWord.identity(3))

    a12 = pure_generator_word(2, 1, 2)
    assert not braid_equal_lh(a12, compose(a12, a12))
    assert braid_equal_lh(a12, a12)
    with pytest.raises(BraidError):
        braid_equal_lh(BraidWord.identity(2), BraidWord.identity(3))


def commutator(a, b):
    return compose(a, b, a.inverse(), b.inverse())


def insert(word, piece, pos):
    return BraidWord(word.strands, word.letters[:pos] + piece.letters + word.letters[pos:])


def homotopy_relator(n, i, j, lam):
    """[A_ij, lam A_ij lam^-1]: trivial up to link-homotopy for a pure lam."""
    a = pure_generator_word(n, i, j)
    return commutator(a, compose(lam, a, lam.inverse()))


@st.composite
def equality_pairs(draw):
    """A word and the same word with a homotopy relator or a comb of degree
    n - 2 or n - 1 inserted, or two unrelated words."""
    n = draw(st.integers(1, 5))
    letters = st.lists(st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=30)
    words = letters.map(lambda w: BraidWord(n, tuple(w))) if n > 1 else st.just(BraidWord.identity(1))
    word = draw(words)
    kind = draw(st.sampled_from(("relator", "comb", "unrelated")))
    if n == 1 or kind == "unrelated":
        return word, draw(words)
    pos = draw(st.integers(0, len(word.letters)))
    if kind == "relator":
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        i, j = draw(st.sampled_from(pairs))
        lam = BraidWord.identity(n)
        for (r, t), e in draw(st.lists(st.tuples(st.sampled_from(pairs), st.sampled_from((1, -1))),
                                       max_size=3)):
            lam = compose(lam, pure_generator_word(n, r, t) ** e)
        return word, insert(word, homotopy_relator(n, i, j, lam), pos)
    combs = [c for c in enumerate_comb_claspers(n) if c.degree >= max(1, n - 2)]
    comb = comb_clasper_braid(draw(st.sampled_from(combs)), n)
    return word, insert(word, comb ** draw(st.sampled_from((1, -1))), pos)


@settings(max_examples=120, deadline=None)
@given(equality_pairs())
def test_braid_equality_matches_dense_oracle(pair):
    a, b = pair
    assert braid_equal_lh(a, b) is (gamma_matrix(a) == gamma_matrix(b))


def test_braid_equality_after_escalation(monkeypatch):
    # with a low threshold the probe blocks turn into Python integers
    # partway through the words; one side may stay int64
    n = 4
    basis = enumerate_basic_commutators(n)
    word = parse_braid_word("a1,2 a2,3 a3,4", n) ** 20
    relator = homotopy_relator(n, 1, 3, pure_generator_word(n, 2, 4))
    pairs = [
        (word, insert(word, relator, 30)),
        (word, compose(word, pure_generator_word(n, 1, 4))),
        (relator, BraidWord.identity(n)),
        (word, BraidWord.identity(n)),
    ]
    expect = [gamma_matrix(a) == gamma_matrix(b) for a, b in pairs]
    assert expect == [True, False, True, False]
    monkeypatch.setattr(gamma, "_INT64_SAFE", 2**4)
    assert gamma_apply(word, probe_block(n), basis).dtype == object
    assert [braid_equal_lh(a, b) for a, b in pairs] == expect


def test_round_trips_of_criterion_5_on_the_dense_oracle():
    # acceptance criterion 5 decides its 400 pure-word round trips with
    # braid_equal_lh; the same words (seed 501, n = 3, 4) against full matrices
    rng = random.Random(501)
    for n in (3, 4, 5):
        for _ in range(200):
            random_clasp_vector(rng, n, bound=2)  # the draws criterion 5 makes first
    for n in (3, 4):
        for _ in range(200):
            word = random_pure_braid(rng, n, rng.randint(0, 12))
            rebuilt = clasp_vector_to_braid(extract_clasp_vector(word))
            assert gamma_matrix(word) == gamma_matrix(rebuilt)


def presentation_relators(n, rng, conjugator_samples=4):
    """The four relator families of the pure homotopy braid group."""
    A = {(i, j): pure_generator_word(n, i, j) for i in range(1, n) for j in range(i + 1, n + 1)}
    relators = []
    idx = sorted(A)
    # far or nested pairs commute
    for (r, s) in idx:
        for (i, j) in idx:
            if s < i or (r < i and j < s):
                relators.append(commutator(A[r, s], A[i, j]))
    # triangle relations
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            for j in range(s + 1, n + 1):
                relators.append(
                    compose(commutator(A[r, s], A[r, j]), commutator(A[r, j], A[s, j]).inverse())
                )
                relators.append(
                    compose(commutator(A[r, j], A[s, j]), commutator(A[s, j], A[r, s]).inverse())
                )
    # crossed pairs
    for r in range(1, n + 1):
        for s in range(r + 1, n + 1):
            for i in range(s + 1, n + 1):
                for j in range(i + 1, n + 1):
                    lhs = commutator(A[r, i], A[s, j])
                    rhs = commutator(commutator(A[i, j], A[r, j]), A[s, j])
                    relators.append(compose(lhs, rhs.inverse()))
    # self-conjugate commutators with random pure conjugators
    gens = list(A.values())
    for (i, j) in idx:
        for _ in range(conjugator_samples):
            lam = BraidWord.identity(n)
            for _ in range(rng.randint(0, 3)):
                lam = compose(lam, rng.choice(gens) ** rng.choice((1, -1)))
            conj = compose(lam, A[i, j], lam.inverse())
            relators.append(commutator(A[i, j], conj))
    return relators


def test_presentation_relators_vanish(rng):
    for relator in presentation_relators(3, rng):
        assert gamma_matrix(relator).is_identity()


# ---------------------------------------------------------------------------
# Structure


def test_presentation_relators_vanish_rank_five(rng):
    # light sample at five strands; the exhaustive families run in the
    # acceptance suite
    relators = presentation_relators(5, rng, conjugator_samples=1)
    rng.shuffle(relators)
    for relator in relators[:30]:
        assert gamma_matrix(relator).is_identity()


def test_determinants_are_units_rank_five(rng):
    for _ in range(3):
        word = random_braid(rng, 5, rng.randint(0, 8))
        det = exact_determinant(gamma_matrix(word).matrix.tolist())
        assert det in (1, -1)


def _safe_matmul(a, b):
    """Exact dense matrix product: int64 while provably safe, Python ints beyond."""
    if a.dtype == object or b.dtype == object:
        return a.astype(object) @ b.astype(object)
    inner = a.shape[1] if a.ndim == 2 else a.shape[0]
    if _max_abs(a) * _max_abs(b) * max(inner, 1) >= 2**62:
        return a.astype(object) @ b.astype(object)
    return a @ b


def dense_chain(word, basis):
    """gamma(word) as the dense product of the generator matrices in word order."""
    out = np.eye(len(basis), dtype=np.int64)
    for i, sign in word.letters:
        out = _safe_matmul(out, gamma_matrix(BraidWord.sigma(word.strands, i, sign), basis).matrix)
    return out


@st.composite
def braid_words(draw, max_letters=40):
    n = draw(st.integers(2, 5))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=max_letters))))


@settings(max_examples=60, deadline=None)
@given(braid_words(), st.sampled_from(ORDER_TAGS), st.data())
def test_sparse_kernel_matches_dense_chain(word, order, data):
    basis = enumerate_basic_commutators(word.strands, order)
    sparse = gamma_matrix(word, basis).matrix
    assert np.array_equal(sparse, dense_chain(word, basis))
    entries = st.lists(st.integers(-(10**6), 10**6), min_size=len(basis), max_size=len(basis))
    vec = np.array(data.draw(entries), dtype=np.int64)
    assert np.array_equal(gamma_apply(word, vec, basis), sparse.astype(object) @ vec.astype(object))


def six_strand_words(max_letters):
    letter = st.tuples(st.integers(1, 5), st.sampled_from((1, -1)))
    return st.lists(letter, max_size=max_letters).map(lambda w: BraidWord(6, tuple(w)))


@settings(max_examples=25, deadline=None)
@given(six_strand_words(12), six_strand_words(12))
def test_gamma_is_a_homomorphism_at_six_strands(a, b):
    # words are concatenated without free reduction; gamma_matrix cancels
    # sigma_i sigma_i^-1 at the seam itself, so the kernels of such a pair
    # are checked against each other in
    # test_derived_inverse_cancels_its_generator_on_random_blocks
    product = gamma_matrix(BraidWord(6, a.letters + b.letters)).matrix
    assert np.array_equal(product, _safe_matmul(gamma_matrix(a).matrix, gamma_matrix(b).matrix))


@settings(max_examples=30, deadline=None)
@given(braid_words(max_letters=20), st.integers(1, 20), st.data())
def test_blocks_of_every_width_match_the_matrix(word, width, data):
    # a block goes 8 stacked columns at a time, so up to three chunks here
    basis = enumerate_basic_commutators(word.strands)
    entries = st.lists(st.integers(-50, 50), min_size=len(basis) * width,
                       max_size=len(basis) * width)
    block = np.array(data.draw(entries), dtype=np.int64).reshape(len(basis), width)
    expect = gamma_matrix(word).matrix @ block
    assert np.array_equal(gamma_apply(word, block, basis), expect)


@st.composite
def words_with_cancelling_runs(draw):
    """A word on 2..5 strands made of single letters and runs
    sigma_i^e sigma_i^-e .. of one to three such pairs."""
    n = draw(st.integers(2, 5))
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    run = st.tuples(letter, st.integers(1, 3)).map(lambda r: [r[0], (r[0][0], -r[0][1])] * r[1])
    pieces = draw(st.lists(st.one_of(letter.map(lambda l: [l]), run), max_size=16))
    return BraidWord(n, tuple(l for piece in pieces for l in piece))


@settings(max_examples=80, deadline=None)
@given(words_with_cancelling_runs(), st.sampled_from(ORDER_TAGS), st.integers(0, 8),
       st.integers(0, 2**32))
@example(BraidWord(2, ()), "weight-lex", 1, 0)
@example(BraidWord(4, ((2, 1), (2, -1), (1, 1))), "weight-revlex", 3, 0)
@example(BraidWord(5, ((4, -1), (1, 1), (1, -1), (2, 1))), "weight-lex", 0, 0)
def test_letter_pairs_match_the_dense_chain(word, order, width, seed):
    # blocks on at most five strands go two letters at a time through
    # the float64 pair matrices; width 0 stands for a vector.  With a
    # threshold of 16, which the float64 limit follows, every step
    # escalates to Python integers, with the same values.
    basis = enumerate_basic_commutators(word.strands, order)
    draw = random.Random(seed)
    x = np.array([draw.randint(-50, 50) for _ in range(len(basis) * max(width, 1))])
    x = x.reshape(len(basis), width) if width else x
    x.flat[0] = 50
    expect = (dense_chain(word, basis).astype(object) @ x.astype(object)).tolist()
    got = gamma_apply(word, x, basis)
    assert got.dtype == np.int64 and got.tolist() == expect
    with mock.patch.object(gamma, "_INT64_SAFE", 16):
        escalated = gamma_apply(word, x, basis)
    assert escalated.tolist() == expect
    assert escalated.dtype == (object if free_reduce(word.letters) else np.int64)


def test_letter_pair_cache_stays_bounded(monkeypatch, rng):
    # free reduction leaves no sigma_i sigma_i^-1 pair, so at most
    # (2(n-1))^2 - 2(n-1) pairs exist per n, whatever the width of the
    # block; 6 strands take none
    pair = gamma._letter_pair
    pair.cache_clear()
    calls, built_keys = [], set()

    def spy(*args):
        # each key is built at its first call: its float64 entries must be
        # the exact integer product, with the product's own row sum
        built = pair(*args)
        if args not in built_keys:
            built_keys.add(args)
            n, first, second, order = args
            product = dense_chain(BraidWord(n, (first, second)), enumerate_basic_commutators(n, order))
            assert built.matrix.dtype == np.float64 and built.matrix.tolist() == product.tolist()
            assert built.row_sum == int(np.abs(product).sum(axis=1).max()) < 2**53
        calls.append(args)
        return built

    monkeypatch.setattr(gamma, "_letter_pair", spy)
    for n in (4, 5):
        basis = enumerate_basic_commutators(n)
        for _ in range(60):
            word = random_braid(rng, n, rng.randint(0, 40))
            word = BraidWord(n, word.letters + word.letters[::-1])  # a cancelling seam
            gamma_apply(word, probe_block(n), basis)
        word = random_braid(rng, n, 30)
        gamma_matrix(word)
        gamma_apply(word, np.ones((len(basis), 9), dtype=np.int64), basis)
        keys = {args for args in calls if args[0] == n}
        assert keys
        assert all(first != (second[0], -second[1]) for _, first, second, _ in keys)
        assert len(keys) <= (2 * (n - 1)) ** 2 - 2 * (n - 1)
    held, called = pair.cache_info().currsize, len(calls)
    assert held == len(set(calls))
    basis = enumerate_basic_commutators(6)
    word = random_braid(rng, 6, 30)
    gamma_apply(word, probe_block(6), basis)
    gamma_apply(word, np.ones((len(basis), 9), dtype=np.int64), basis)
    assert pair.cache_info().currsize == held and len(calls) == called


@settings(max_examples=80, deadline=None)
@given(braid_words(max_letters=30), st.sampled_from(ORDER_TAGS), st.integers(0, 8),
       st.integers(2**44, 2**52), st.integers(0, 2**32))
@example(BraidWord(5, ((1, 1), (2, -1), (4, 1), (3, 1), (1, 1))), "weight-lex", 0, 2**62 - 1, 0)
@example(BraidWord(5, ((1, 1), (2, -1), (4, 1), (3, 1))), "weight-revlex", 3, 2**62 - 1, 1)
def test_float_pairs_hand_over_exactly(word, order, width, top, seed):
    # entries near 2**53 leave the float64 pairs partway through the word;
    # with int64 limited to 2**54 (the float64 limit stays 2**53), about a
    # third of those words also turn to Python integers a few letters
    # later.  An input past 2**53 never becomes float64, which would round
    # 2**62 - 1.  Width 0 stands for a vector.
    basis = enumerate_basic_commutators(word.strands, order)
    draw = random.Random(seed)
    x = np.array([draw.randint(-top, top) for _ in range(len(basis) * max(width, 1))],
                 dtype=np.int64)
    x = x.reshape(len(basis), width) if width else x
    x.flat[0] = top
    expect = (dense_chain(word, basis).astype(object) @ x.astype(object)).tolist()
    got = gamma_apply(word, x, basis)
    assert got.dtype in (np.int64, object) and got.tolist() == expect
    with mock.patch.object(gamma, "_INT64_SAFE", 2**54):
        got = gamma_apply(word, x, basis)
    assert got.dtype in (np.int64, object) and got.tolist() == expect


@pytest.mark.parametrize("n, text", [(4, "s2^-1 s3"), (5, "s1 s2")])
def test_float_pairs_stop_below_two_to_the_53(n, text):
    # x fills the largest row of the pair's product up to its bound: just
    # below 2**53 the float64 product is exact, and the odd sum just above
    # it, which float64 would round, is left to int64
    word = parse_braid_word(text, n)
    basis = enumerate_basic_commutators(n)
    product = dense_chain(word, basis)
    sums = np.abs(product).sum(axis=1)
    row, row_sum = int(sums.argmax()), int(sums.max())
    assert row_sum % 2
    for t in ((2**53 - 1) // row_sum, (2**53 // row_sum + 1) | 1):
        x = np.sign(product[row]) * t
        got = gamma_apply(word, x, basis)
        assert got.dtype == np.int64
        assert got.tolist() == (product.astype(object) @ x.astype(object)).tolist()
        assert got[row] == t * row_sum


@pytest.mark.parametrize("n, text", [(4, "s1 s3^-1 s2"), (5, "s2 s4 s1^-1 s3"),
                                     (6, "s5 s1^-1 s3 s2"), (5, "comb 1,3,5 ^ -3")])
def test_only_a_later_chunk_turns_to_python_integers(monkeypatch, n, text):
    # a block of 20 columns goes 8, 8 and 4 columns at a time.  With the
    # int64 threshold lowered to 2**20, the last chunk's entries near 2**19
    # turn to Python integers and the first two chunks' 0s and 1s do not;
    # the joined result keeps every value.  A comb power (I + N)^e takes
    # the same loop as the letters, against the oracle x + e N x
    basis = enumerate_basic_commutators(n)
    if text.startswith("comb"):
        c, e = CombClasper((1, 3, 5)), -3
        kernel = comb_kernel(c, n)
        nil = gamma_matrix(comb_clasper_braid(c, n)).matrix - np.eye(len(basis), dtype=np.int64)
        matrix = np.eye(len(basis), dtype=np.int64).astype(object) + e * nil.astype(object)
        apply = lambda y: gamma.apply_power_product([(kernel, e)], y)
    else:
        word = parse_braid_word(text, n)
        matrix = dense_chain(word, basis).astype(object)
        apply = lambda y: gamma_apply(word, y, basis)
    draw = random.Random(n)
    x = np.array([[draw.randint(0, 1) for _ in range(20)] for _ in basis.elements],
                 dtype=np.int64)
    x[:, 16:] += 2**19
    expect = (matrix @ x.astype(object)).tolist()
    monkeypatch.setattr(gamma, "_INT64_SAFE", 2**20)
    assert apply(x[:, :16]).dtype == np.int64
    assert apply(x[:, 16:]).dtype == object
    got = apply(x)
    assert got.dtype == object and got.tolist() == expect


@pytest.mark.parametrize("n, text", [(4, "s1 s2^-1 s3 s1 s2 s3^-1"),
                                     (5, "s1 s2 s4^-1 s3 s2 s1^-1")])
def test_letter_pairs_take_the_whole_block(monkeypatch, n, text):
    # the 16 small columns alone take every pair in float64; the 4 columns
    # near 2**51 end the pairs for the whole block before the word is done,
    # and the kernels take the letters left exactly
    word = parse_braid_word(text, n)
    basis = enumerate_basic_commutators(n)
    draw = random.Random(n)
    x = np.array([[draw.randint(-9, 9) for _ in range(20)] for _ in basis.elements],
                 dtype=np.int64)
    x[:, 16:] = [[2**51 - draw.randint(0, 2**20) for _ in range(4)] for _ in basis.elements]
    expect = (dense_chain(word, basis).astype(object) @ x.astype(object)).tolist()
    left = []
    pairs = gamma._apply_pairs

    def spy(*args):
        y, rest = pairs(*args)
        left.append(len(rest))
        return y, rest

    monkeypatch.setattr(gamma, "_apply_pairs", spy)
    for block in (x, x[:, :16]):
        got = gamma_apply(word, block, basis)
        assert got.dtype == np.int64
        assert got.tolist() == [row[: block.shape[1]] for row in expect]
    assert left[0] > 0 and left[1] == 0


def test_basis_of_another_rank_is_refused():
    word = parse_braid_word("s1 s2", 3)
    basis = enumerate_basic_commutators(4)
    for apply in (gamma_matrix, gamma_matrix_definitional,
                  lambda b, basis: gamma_apply(b, np.zeros(len(basis), np.int64), basis)):
        with pytest.raises(RankError, match="rank mismatch: braid 3, basis 4"):
            apply(word, basis)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_inputs_must_match_the_basis(n):
    # the first axis needs one entry per basis element, checked before any
    # letter is applied, so also for a word that freely reduces to nothing
    basis = enumerate_basic_commutators(n)
    m = len(basis)
    words = [BraidWord.identity(n), parse_braid_word("s1 s1^-1", n), parse_braid_word("s1 s2", n),
             parse_braid_word("s1 s2 s3", n) if n > 3 else parse_braid_word("s1 s2 s1", n)]
    inputs = [np.zeros(m - 1, np.int64), np.zeros(m + 1, np.int64), np.zeros((m - 1, 3), np.int64),
              np.zeros((m + 1, 20), np.int64), np.zeros((m, 2, 2), np.int64), np.int64(1)]
    for word in words:
        for x in inputs:
            with pytest.raises(RankError, match="does not match basis size"):
                gamma_apply(word, x, basis)
    # the entries must be integers: a float would be truncated, or come
    # back as a float, so it is refused
    for x in (np.full(m, 0.5), np.ones(m), np.ones((m, 3), np.float32), np.ones(m, complex),
              np.array(["1"] * m), np.full(m, 0.5, dtype=object)):
        for word in words:
            with pytest.raises(TypeError, match="is not integer"):
                gamma_apply(word, x, basis)
    # every integer dtype is taken exactly: a uint64 past 2**63 as a Python
    # integer, and int64's least value, whose absolute value int64 lacks
    draw = random.Random(n)
    least = np.array([draw.choice([-2**63, 0, 1]) for _ in range(m)], dtype=np.int64)
    inputs = [np.ones(m, bool), np.arange(m, dtype=np.uint8), np.arange(m, dtype=np.int32),
              np.arange(2 * m, dtype=np.uint64).reshape(m, 2) + np.uint64(2**63), least]
    for word in words:
        matrix = dense_chain(word, basis).astype(object)
        for x in inputs:
            got = gamma_apply(word, x, basis)
            assert got.dtype in (np.int64, object)
            assert got.tolist() == (matrix @ x.astype(object)).tolist()
    # an object array's numpy integers are taken as Python integers, so a
    # product past 2**63 does not wrap
    huge = np.array([np.int64(2**62)] * m, dtype=object)
    for word in words + [words[-1] ** 2]:
        expect = dense_chain(word, basis).astype(object) @ np.full(m, 2**62, dtype=object)
        assert gamma_apply(word, huge, basis).tolist() == expect.tolist()


def test_results_never_share_the_input():
    # an empty product returns a new array: writing to the result must not
    # write to the caller's input
    basis = enumerate_basic_commutators(4)
    cancels = parse_braid_word("s1 s1^-1", 4)
    inputs = [np.arange(24), np.arange(24).reshape(24, 1), np.ones((24, 3), dtype=np.int64),
              np.ones((24, 12), dtype=np.int64), np.arange(24).astype(object)]
    for x in inputs:
        out = gamma_apply(cancels, x, basis)
        assert out.tolist() == x.tolist() and not np.shares_memory(out, x)
    # no factor, exponent 0, and a comb kernel that sends x to x: the
    # top-weight column is fixed by every pure braid
    kernel = comb_kernel(CombClasper((1, 2)), 4)
    top = np.zeros(24, dtype=np.int64)
    top[-1] = 1
    for factors in ([], [(kernel, 0)], [(kernel, 3)]):
        for x in (top, top[:, None], np.ones((24, 2), dtype=np.int64) * top[:, None]):
            out = gamma.apply_power_product(factors, x)
            assert out.tolist() == x.tolist() and not np.shares_memory(out, x)


def test_admission_limit():
    from linkhom.gamma import LimitError, MAX_BASIS_SIZE, admit_strands

    assert MAX_BASIS_SIZE == 2372
    admit_strands(7)
    for n in (8, 9, 10**9):
        with pytest.raises(LimitError, match="limit of 2372"):
            admit_strands(n)
    with pytest.raises(LimitError, match="16072"):
        gamma_matrix(BraidWord.identity(8))


def test_escalation_partway_matches_int64(monkeypatch):
    # with a low threshold both routes start in int64 and switch to Python
    # integers partway through the word; the values must not change.  The
    # vector and the 3-column block on 5 strands go through letter pairs.
    threshold = 2**8
    basis = enumerate_basic_commutators(4)
    word = parse_braid_word("a1,2 a2,3 a3,4", 4) ** 20
    vec = np.arange(len(basis), dtype=np.int64) % 3 - 1
    basis5 = enumerate_basic_commutators(5)
    word5 = parse_braid_word("a1,2 a2,3 a3,4 a4,5", 5) ** 20
    block5 = (np.arange(len(basis5))[:, None] + np.arange(3)) % 3 - 1
    matrix, image = gamma_matrix(word).matrix, gamma_apply(word, vec, basis)
    image5 = gamma_apply(word5, block5, basis5)
    assert matrix.dtype == image.dtype == image5.dtype == np.int64
    assert min(_max_abs(matrix), _max_abs(image), _max_abs(image5)) >= threshold
    monkeypatch.setattr(gamma, "_INT64_SAFE", threshold)
    escalated_matrix = gamma_matrix(word).matrix
    escalated_image = gamma_apply(word, vec, basis)
    escalated_image5 = gamma_apply(word5, block5, basis5)
    assert escalated_matrix.dtype == escalated_image.dtype == escalated_image5.dtype == object
    assert escalated_matrix.tolist() == matrix.tolist()
    assert escalated_image.tolist() == image.tolist()
    assert escalated_image5.tolist() == image5.tolist()


def test_exact_escalation_matmul():
    # products that would overflow int64 switch to Python integers
    big = 2 ** 40
    a = np.array([[big, 1], [0, big]], dtype=np.int64)
    out = _safe_matmul(a, a)
    assert out.dtype == object
    assert out[0][0] == big * big
    assert out[0][1] == 2 * big
    small = np.eye(2, dtype=np.int64)
    assert _safe_matmul(small, small).dtype == np.int64


def test_exact_escalation_matvec():
    basis = enumerate_basic_commutators(2)
    vec = np.array([2 ** 61, 1, 0], dtype=object)
    word = BraidWord.sigma(2, 1)
    out = gamma_apply(word, vec, basis)
    # column images: (1) -> (2), (2) -> (1) + (12)
    assert out.tolist() == [1, 2 ** 61, 1]
    # an int64 input whose image leaves the int64 range: row (123) of
    # sigma_1 on three strands sums three entries of absolute value 1
    big = 2**62 - 1
    vec = np.array([0, 0, 0, 0, 0, big, -big, -big], dtype=np.int64)
    out = gamma_apply(parse_braid_word("s1", 3), vec, enumerate_basic_commutators(3))
    assert out.tolist() == (GOLD_SIGMA1.astype(object) @ vec.astype(object)).tolist()
    assert out[6] == 3 * big


def test_structure_sigma1():
    word = parse_braid_word("s1", 3)
    report = structure_report(gamma_matrix(word), word)
    assert report.ok
    assert report.block_triangular
    assert report.permutation_block_ok
    assert report.pair_block_ok
    assert not report.pure


def test_structure_pure_diagonal():
    word = parse_braid_word("a1,2", 3)
    report = structure_report(gamma_matrix(word), word)
    assert report.ok
    assert report.pure
    assert report.diagonal_blocks_identity


def test_structure_identity():
    word = BraidWord.identity(4)
    report = structure_report(gamma_matrix(word), word)
    assert report.ok and report.pure and report.diagonal_blocks_identity


def test_structure_random(rng):
    for n in (3, 4):
        for _ in range(10):
            word = random_braid(rng, n, rng.randint(0, 8))
            assert structure_report(gamma_matrix(word), word).ok


def corrupted(m, r, c, value):
    matrix = m.matrix.copy()
    matrix[r, c] = value
    return GammaMatrix(m.basis, matrix)


def test_structure_report_flags_each_corruption():
    word = BraidWord.sigma(4, 1)
    m = gamma_matrix(word)
    w1, w2 = m.basis.weight_range(1), m.basis.weight_range(2)
    # one entry of a weight-1 row in a weight-2 column
    report = structure_report(corrupted(m, w1.start, w2.start, 1), word)
    assert not report.ok and not report.block_triangular
    assert report.permutation_block_ok and report.pair_block_ok
    assert report.violations == ["entry ((1), (1,2)) above the diagonal blocks"]
    # sigma_1 swaps x1 and x2, so the (1), (1) entry is 0
    report = structure_report(corrupted(m, w1.start, w1.start, 1), word)
    assert not report.ok and not report.permutation_block_ok
    assert report.block_triangular and report.pair_block_ok
    assert report.violations == ["weight-1 block at column (1) differs from the permutation"]
    # sigma_1 sends [x1, x2] to [x2, x1] = [x1, x2]^-1: a -1 on the diagonal
    assert m.matrix[w2.start, w2.start] == -1
    report = structure_report(corrupted(m, w2.start, w2.start, 1), word)
    assert not report.ok and not report.pair_block_ok
    assert report.block_triangular and report.permutation_block_ok
    assert report.violations == [
        "weight-2 block at column (1,2) differs from the signed pair action"
    ]
    assert report.diagonal_blocks_identity is None

    pure = parse_braid_word("a1,2", 4)
    m = gamma_matrix(pure)
    w3 = m.basis.weight_range(3)
    report = structure_report(corrupted(m, w3.start, w3.start + 1, 1), pure)
    assert not report.ok and report.diagonal_blocks_identity is False
    assert report.block_triangular and report.permutation_block_ok and report.pair_block_ok
    assert report.violations == ["weight-3 diagonal block is not the identity"]


def test_generator_matrix_refuses_index_and_sign():
    with pytest.raises(BraidError, match="out of range"):
        gamma.generator_matrix(4, 0, 1, "weight-lex")
    with pytest.raises(BraidError, match="must be 1 or -1"):
        gamma.generator_matrix(4, 1, 2, "weight-lex")


def diagonal_block(m, weight):
    rng = m.basis.weight_range(weight)
    return m.matrix[rng.start : rng.stop, rng.start : rng.stop]


def test_diagonal_blocks_have_finite_order():
    for n in (3, 4, 5):
        for i in range(1, n):
            m = gamma_matrix(BraidWord.sigma(n, i))
            for weight in range(1, n + 1):
                block = diagonal_block(m, weight)
                power = np.eye(len(block), dtype=np.int64)
                for order in range(1, 61):
                    power = power @ block
                    if np.array_equal(power, np.eye(len(block), dtype=np.int64)):
                        break
                else:
                    raise AssertionError(f"block of weight {weight} has order > 60")


def test_pure_braids_probe(rng):
    # faithfulness sanity: random pure words equal themselves and differ
    # from themselves composed with a generator square
    word = random_pure_braid(rng, 3, 6)
    assert braid_equal_lh(word, word)
    twisted = compose(word, pure_generator_word(3, 1, 2))
    assert not braid_equal_lh(word, twisted)
