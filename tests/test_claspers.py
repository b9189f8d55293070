import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linkhom import claspers, gamma
from linkhom.braids import (
    BraidError,
    BraidWord,
    CertificationError,
    compose,
    delete_strand,
    parse_braid_word,
    pure_generator_word,
)
from linkhom.claspers import (
    ClaspVector,
    CombClasper,
    clasp_vector_to_braid,
    comb_clasper_braid,
    comb_kernel,
    comb_power_product,
    enumerate_comb_claspers,
    extract_clasp_vector,
    read_clasp_numbers,
)
from linkhom.gamma import LimitError, braid_equal_lh, gamma_apply, gamma_matrix, probe_block
from linkhom.reduced_free import BasicCommutator, RankError, enumerate_basic_commutators
from conftest import random_clasp_vector, random_pure_braid
from word_oracle import word_extract_clasp_vector


def test_comb_clasper_validation():
    with pytest.raises(BraidError):
        CombClasper((1,))
    with pytest.raises(BraidError):
        CombClasper((2, 1, 3))  # first entry must be the minimum
    with pytest.raises(BraidError):
        CombClasper((1, 3, 2))  # last entry must be the maximum
    with pytest.raises(BraidError):
        CombClasper((1, 2, 2))
    for low in ((0, 2), (-1, 2), (0, 1, 2)):
        with pytest.raises(BraidError, match="below 1"):
            CombClasper(low)
    assert CombClasper((1, 3, 2, 4)).degree == 3


def test_enumerate_comb_claspers_order():
    keys = [c.key() for c in enumerate_comb_claspers(4)]
    assert keys == [
        "1.2", "1.3", "1.4", "2.3", "2.4", "3.4",
        "1.2.3", "1.2.4", "1.3.4", "2.3.4",
        "1.2.3.4", "1.3.2.4",
    ]
    # counts per degree at n=5: 10, 10, 10, 6
    degrees = [c.degree for c in enumerate_comb_claspers(5)]
    assert [degrees.count(d) for d in (1, 2, 3, 4)] == [10, 10, 10, 6]


def test_comb_enumeration_admits_strands():
    # the comb count grows factorially: 10 strands are refused before any
    v = ClaspVector(10, {(1, 2): 1})
    with pytest.raises(LimitError, match="limit of 2372"):
        clasp_vector_to_braid(v)
    with pytest.raises(LimitError, match="limit of 2372"):
        v.degree_values(1)
    # extraction admits before is_pure() builds a permutation of 10^20 entries
    with pytest.raises(LimitError, match="limit of 2372"):
        extract_clasp_vector(BraidWord(10**20, ((1, 1), (1, 1))))


def test_build_refuses_words_past_the_letter_limit(monkeypatch):
    # the bound counts |e| letters of each comb word before free reduction
    assert claspers.MAX_BUILD_LETTERS == 10**6
    with pytest.raises(LimitError, match="limit of 1000000"):
        clasp_vector_to_braid(ClaspVector(3, {(1, 2): 10**30}))
    monkeypatch.setattr(claspers, "MAX_BUILD_LETTERS", 10)
    assert len(clasp_vector_to_braid(ClaspVector(3, {(1, 2): 3, (1, 3): 1}))) == 10
    with pytest.raises(LimitError, match="up to 12 letters"):
        clasp_vector_to_braid(ClaspVector(3, {(1, 2): 4, (1, 3): -1}))


def test_comb_clasper_braid_degree_one():
    assert comb_clasper_braid(CombClasper((1, 2)), 2) == parse_braid_word("a1,2", 2)
    assert comb_clasper_braid(CombClasper((1, 2)), 4) == parse_braid_word("a1,2", 4)


def test_comb_clasper_braid_is_commutator():
    a13 = pure_generator_word(3, 1, 3)
    a23 = pure_generator_word(3, 2, 3)
    expected = compose(a13, a23, a13.inverse(), a23.inverse())
    assert comb_clasper_braid(CombClasper((1, 2, 3)), 3) == expected
    # (1324) is [[A14, A34], A24]
    a14 = pure_generator_word(4, 1, 4)
    a34 = pure_generator_word(4, 3, 4)
    a24 = pure_generator_word(4, 2, 4)
    inner = compose(a14, a34, a14.inverse(), a34.inverse())
    expected = compose(inner, a24, inner.inverse(), a24.inverse())
    assert comb_clasper_braid(CombClasper((1, 3, 2, 4)), 4) == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_probe_identity(n):
    # the matrix of a comb braid sends (max) to (max) - (sequence)
    for clasper in enumerate_comb_claspers(n):
        word = comb_clasper_braid(clasper, n)
        matrix = gamma_matrix(word)
        top = BasicCommutator((clasper.sequence[-1],))
        assert matrix.column(top) == {
            top: 1,
            BasicCommutator(clasper.sequence): -1,
        }


def _probes(word):
    basis = enumerate_basic_commutators(word.strands)
    return gamma_apply(word, probe_block(word.strands), basis)


def test_probe_readout_certification():
    word = clasp_vector_to_braid(ClaspVector(3, {(1, 2): 1, (2, 3): -2, (1, 2, 3): 1}))
    probes = _probes(word)
    assert read_clasp_numbers(3, probes) == extract_clasp_vector(word)
    basis = enumerate_basic_commutators(3)
    # a doubled block loses the unit coefficient of the probe (3)
    with pytest.raises(CertificationError, match="unit coefficient"):
        read_clasp_numbers(3, 2 * probes)
    # (1,3) in the column of (3) is read with support {1, 3}, where it is
    # the comb row; (1,2) there lies inside support {1, 2, 3} but is no comb
    stray = probes.copy()
    stray[basis.index_of(BasicCommutator((1, 2))), 1] += 1
    with pytest.raises(CertificationError, match=r"unexpected coefficient at \(1,2\)"):
        read_clasp_numbers(3, stray)
    # a coefficient that no support reads is caught once every degree is peeled
    unread = probes.copy()
    unread[basis.index_of(BasicCommutator((1, 3))), 0] += 1
    with pytest.raises(CertificationError, match="not the probe block"):
        read_clasp_numbers(3, unread)
    # the block of a non-pure braid has the wrong weight-one part
    with pytest.raises(CertificationError, match="unit coefficient"):
        read_clasp_numbers(3, _probes(parse_braid_word("s2", 3)))
    # probes of the wrong shape are bad input, refused before any readout
    # (an extra column would be read as a defect, the others would index
    # past the block)
    for shape in ((3, 3), (89,), (89, 3), (89, 5), (90, 4), (0, 4)):
        with pytest.raises(RankError, match="not 89 by 4"):
            read_clasp_numbers(5, np.zeros(shape, dtype=np.int64))
    assert read_clasp_numbers(5, probe_block(5)) == ClaspVector(5, {})


def test_clasp_vector_normalisation_and_json():
    v = ClaspVector(3, {(1, 2): 2, (1, 3): 0})
    assert v.nu == {(1, 2): 2}
    assert v.to_json() == {"n": 3, "order": "degree-lex", "nu": {"1.2": 2}}
    assert ClaspVector.from_json(v.to_json()) == v
    with pytest.raises(BraidError):
        ClaspVector(2, {(1, 3): 1})
    with pytest.raises(BraidError):
        ClaspVector.from_json({"n": 2, "nu": {"vegetable": 1}})
    # strand indices start at 1
    for nu in ({"0.2": 1}, {"1.2": 1, "0.2": 1}, {"-1.2": 5}):
        with pytest.raises(BraidError, match="below 1"):
            ClaspVector.from_json({"n": 3, "nu": nu})
    with pytest.raises(BraidError, match="below 1"):
        ClaspVector(3, {(0, 2): 1})
    with pytest.raises(BraidError, match="strand count must be positive"):
        ClaspVector(0, {})
    with pytest.raises(BraidError, match="unsupported clasper order"):
        ClaspVector(3, {}, "lex")


def test_build_zero_and_power():
    assert clasp_vector_to_braid(ClaspVector(3, {})) == BraidWord.identity(3)
    word = clasp_vector_to_braid(ClaspVector(2, {(1, 2): 2}))
    assert word.letters == ((1, 1),) * 4


def test_extract_examples():
    assert extract_clasp_vector(parse_braid_word("s1 s1", 2)).nu == {(1, 2): 1}
    assert extract_clasp_vector(BraidWord.identity(4)).nu == {}
    assert extract_clasp_vector(BraidWord.identity(1)).nu == {}  # empty probe block
    borromean = comb_clasper_braid(CombClasper((1, 2, 3)), 3)
    assert extract_clasp_vector(borromean).nu == {(1, 2, 3): 1}


def test_extract_requires_pure():
    with pytest.raises(BraidError):
        extract_clasp_vector(parse_braid_word("s1", 2))


def test_generator_order_discrepancy():
    # A13 A12 and A12 A13 agree in degree one and differ by one (123) comb
    a13 = pure_generator_word(3, 1, 3)
    a12 = pure_generator_word(3, 1, 2)
    first = extract_clasp_vector(compose(a13, a12))
    second = extract_clasp_vector(compose(a12, a13))
    assert first.degree_part(1) == second.degree_part(1)
    assert abs(first.get((1, 2, 3)) - second.get((1, 2, 3))) == 1
    # both extractions rebuild to the original braid, verified linearly
    assert braid_equal_lh(compose(a13, a12), clasp_vector_to_braid(first))
    assert braid_equal_lh(compose(a12, a13), clasp_vector_to_braid(second))


def test_round_trip_build_then_extract():
    v = ClaspVector(3, {(1, 2): 1, (1, 2, 3): 1})
    assert extract_clasp_vector(clasp_vector_to_braid(v)) == v


@pytest.mark.parametrize("n", [2, 3, 4])
def test_round_trip_random(n, rng):
    for _ in range(10):
        v = random_clasp_vector(rng, n)
        assert extract_clasp_vector(clasp_vector_to_braid(v)) == v


def test_completeness_on_random_pure_words(rng):
    for n in (3, 4):
        for _ in range(10):
            word = random_pure_braid(rng, n, rng.choice((4, 6, 8)))
            rebuilt = clasp_vector_to_braid(extract_clasp_vector(word))
            assert braid_equal_lh(word, rebuilt)


def linking_numbers(word):
    """Independent oracle: half the signed crossing count per strand pair.

    Walks the word tracking which strand occupies each position; every
    letter crosses exactly two strands.
    """
    position_of = list(range(word.strands + 1))  # strand at position p
    counts = {}
    for idx, sign in word.letters:
        a, b = position_of[idx], position_of[idx + 1]
        pair = (min(a, b), max(a, b))
        counts[pair] = counts.get(pair, 0) + sign
        position_of[idx], position_of[idx + 1] = b, a
    assert all(value % 2 == 0 for value in counts.values())
    return {pair: value // 2 for pair, value in counts.items() if value}


def test_degree_one_values_are_linking_numbers(rng):
    for n in (3, 4):
        for _ in range(10):
            word = random_pure_braid(rng, n, rng.choice((4, 8, 12)))
            extracted = extract_clasp_vector(word).degree_part(1)
            assert extracted == linking_numbers(word)


def test_strand_deletion_projects_extraction(rng):
    # forgetting a strand and extracting equals restricting the extraction
    # to combs avoiding that strand (with indices renumbered)
    for n in [4] * 8 + [5] * 3:
        v = random_clasp_vector(rng, n)
        word = clasp_vector_to_braid(v)
        for s in range(1, n + 1):
            reduced = extract_clasp_vector(delete_strand(word, s))
            expected = {}
            for seq, value in v.nu.items():
                if s in seq:
                    continue
                expected[tuple(k if k < s else k - 1 for k in seq)] = value
            assert reduced.nu == expected


@st.composite
def pure_braids(draw):
    n = draw(st.integers(2, 5))
    word = BraidWord.identity(n)
    for _ in range(draw(st.integers(0, 4 if n == 5 else 8))):
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(i + 1, n))
        word = word * pure_generator_word(n, i, j) ** draw(st.sampled_from((1, -1)))
    return word


@settings(max_examples=40, deadline=None)
@given(pure_braids())
def test_extraction_matches_word_oracle(word):
    assert extract_clasp_vector(word) == word_extract_clasp_vector(word)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_comb_power_matches_word_power(data):
    n = data.draw(st.integers(2, 5))
    c = data.draw(st.sampled_from(enumerate_comb_claspers(n)))
    e = data.draw(st.integers(-3, 3))
    basis = enumerate_basic_commutators(n)
    size = len(basis) * 2
    entries = st.lists(st.integers(-100, 100), min_size=size, max_size=size)
    x = np.array(data.draw(entries), dtype=np.int64).reshape(len(basis), 2)
    moved = comb_power_product([(c, e)], n, x)
    assert np.array_equal(moved, gamma_apply(comb_clasper_braid(c, n) ** e, x, basis))
    assert np.array_equal(comb_power_product([(c, e), (c, -e)], n, x), x)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_comb_kernel_is_the_full_matrix(n):
    # the kernel keeps N = gamma(c) - I on the columns of weight <= n -
    # degree; the columns it leaves out must be those of the identity.  A
    # comb of degree 2 and up is built from kernels of lower degree, such
    # as (1,2,3,4,5,6) from (1,2,3,4,6) and (5,6); at 6 strands the first
    # comb of each degree 2-5 is checked
    basis = enumerate_basic_commutators(n)
    m = len(basis)
    eye = np.eye(m, dtype=np.int64)
    combs = enumerate_comb_claspers(n)
    if n == 6:
        combs = [next(c for c in combs if c.degree == d) for d in range(2, 6)]
    for c in combs:
        matrix = gamma_matrix(comb_clasper_braid(c, n)).matrix
        kernel = comb_kernel(c, n)
        runs = kernel.nil
        nil = np.zeros((m, m), dtype=np.int64)
        nil[np.repeat(runs.rows, np.diff(runs.starts, append=len(runs.cols))), runs.cols] = runs.coeffs
        kept = basis.weight_range(n - c.degree + 1).start
        assert np.array_equal(nil[:, :kept], (matrix - eye)[:, :kept])
        assert not nil[:, kept:].any() and np.array_equal(matrix[:, kept:], eye[:, kept:])
        assert not (nil @ nil).any()
        if n <= 5:
            assert np.array_equal(comb_power_product([(c, 1)], n, eye), matrix)


def test_comb_kernels_at_seven_strands():
    # all 540 kernels build, so both certificates passed; they are checked
    # again here on the kept entries.  The first comb of each degree, as a
    # unit power on the probe block, matches its braid word applied letter
    # by letter
    n = 7
    basis = enumerate_basic_commutators(n)
    weights = np.array([alpha.weight for alpha in basis.elements])
    combs = enumerate_comb_claspers(n)
    assert len(combs) == 540
    for c in combs:
        runs = comb_kernel(c, n).nil
        rows = np.repeat(runs.rows, np.diff(runs.starts, append=len(runs.cols)))
        assert runs.cols.size and (weights[rows] >= weights[runs.cols] + c.degree).all()
        assert weights[runs.cols].max() <= n - c.degree
        assert not np.isin(rows, runs.cols).any()
    probes = probe_block(n)
    for degree in range(1, n):
        c = next(c for c in combs if c.degree == degree)
        expect = gamma_apply(comb_clasper_braid(c, n), probes, basis)
        assert np.array_equal(comb_power_product([(c, 1)], n, probes), expect)


def test_comb_power_is_the_product_of_unit_powers(rng):
    # (I + N)^e = I + e N: the power with exponent e is e unit steps
    for n in (3, 4, 5):
        basis = enumerate_basic_commutators(n)
        x = np.array([rng.randint(-9, 9) for _ in range(len(basis) * 3)], dtype=np.int64)
        x = x.reshape(len(basis), 3)
        for c in rng.sample(enumerate_comb_claspers(n), 3):
            for e in range(-12, 13):
                steps = [(c, 1 if e > 0 else -1)] * abs(e)
                assert np.array_equal(comb_power_product([(c, e)], n, x),
                                      comb_power_product(steps, n, x))


def test_huge_comb_powers_are_exact():
    # e = 10**30 leaves int64 at once; a zero block has nothing to scale
    c, e = CombClasper((1, 2)), 10**30
    zeros = np.zeros((24, 2), dtype=np.int64)
    out = comb_power_product([(c, e)], 4, zeros)
    assert out.tolist() == zeros.tolist() and not np.shares_memory(out, zeros)
    matrix = gamma_matrix(comb_clasper_braid(c, 4)).matrix.astype(object)
    nil = matrix - np.eye(24, dtype=np.int64).astype(object)
    assert not (nil @ nil).any()
    probes = probe_block(4).astype(object)
    out = comb_power_product([(c, e)], 4, probe_block(4))
    assert out.dtype == object and out.tolist() == (probes + e * (nil @ probes)).tolist()
    # a kernel with N = 0, here of a braid that cancels, has nothing to scale either
    basis = enumerate_basic_commutators(4)
    cancels = [gamma.generator_matrix(4, 1, sign, basis.order) for sign in (1, -1)]
    identity = gamma.UnipotentKernel.of_terms([(1, cancels), (-1, ())], 1, basis)
    assert identity.nil.row_sum == 0
    out = gamma.apply_power_product([(identity, e), (identity, -e)], probe_block(4))
    assert out.dtype == np.int64 and out.tolist() == probe_block(4).tolist()


def test_comb_powers_refuse_inputs_off_the_basis():
    kernel = comb_kernel(CombClasper((1, 2)), 4)
    for rows in (23, 25):
        for x in (np.zeros(rows, np.int64), np.zeros((rows, 2), np.int64)):
            with pytest.raises(RankError, match="does not match basis size 24"):
                gamma.apply_power_product([(kernel, 1)], x)
            with pytest.raises(RankError, match="does not match basis size 24"):
                comb_power_product([(CombClasper((1, 2)), 1)], 4, x)
    # inputs must hold integers: floats would be truncated or come back as
    # floats, so they are refused; every integer dtype is taken exactly,
    # a uint64 past 2**63 as a Python integer
    probes = probe_block(4)
    refused = [probes.astype(dtype) for dtype in (np.float64, np.float32, np.complex128, np.str_)]
    for x in refused + [np.full(probes.shape, 0.5, dtype=object)]:
        with pytest.raises(TypeError, match="is not integer"):
            gamma.apply_power_product([(kernel, 1)], x)
        with pytest.raises(TypeError, match="is not integer"):
            comb_power_product([(CombClasper((1, 2)), 1)], 4, x)
    matrix = gamma_matrix(comb_clasper_braid(CombClasper((1, 2)), 4)).matrix.astype(object)
    huge = probes.astype(np.uint64) * np.uint64(2**63 + 1)
    for x in (probes.astype(bool), probes.astype(np.uint8), probes.astype(np.int32), huge):
        expect = (matrix @ x.astype(object)).tolist()
        for out in (gamma.apply_power_product([(kernel, 1)], x),
                    comb_power_product([(CombClasper((1, 2)), 1)], 4, x)):
            assert out.dtype == (object if x is huge else np.int64) and out.tolist() == expect
    # an object array's numpy integers are taken as Python integers, so
    # 2 N x past 2**63 does not wrap
    eye = np.eye(24, dtype=np.int64).astype(object)
    expect = (2**62 * (eye + 2 * (matrix - eye))).tolist()
    big = np.array([[np.int64(2**62 * (i == j)) for j in range(24)] for i in range(24)], object)
    assert gamma.apply_power_product([(kernel, 2)], big).tolist() == expect
    assert comb_power_product([(CombClasper((1, 2)), 2)], 4, big).tolist() == expect


def test_escalation_matches_int64(monkeypatch):
    # with a low threshold the probe block and the comb powers switch to
    # Python integers partway; the clasp numbers must not change
    from linkhom.closure import PartialConjugation, partial_conjugate

    v = ClaspVector(4, {(1, 2): 3, (2, 4): -2, (1, 2, 3): 3, (1, 3, 4): -1, (1, 3, 2, 4): 2})
    pc = PartialConjugation(2, 3, -1)
    word = clasp_vector_to_braid(v) ** 2
    expect_extract, expect_pc = extract_clasp_vector(word), partial_conjugate(v, pc)
    assert expect_extract.get((1, 2)) == 6
    monkeypatch.setattr(gamma, "_INT64_SAFE", 2**4)
    probes = comb_power_product([(CombClasper((1, 2)), 16)], 4, probe_block(4))
    assert probes.dtype == object
    assert extract_clasp_vector(word) == expect_extract
    assert partial_conjugate(v, pc) == expect_pc
