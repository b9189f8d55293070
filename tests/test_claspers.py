import pytest

from linkhom.braids import (
    BraidError,
    BraidWord,
    CertificationError,
    compose,
    delete_strand,
    parse_braid_word,
    pure_generator_word,
)
from linkhom import claspers
from linkhom.claspers import (
    ClaspVector,
    CombClasper,
    _probe_coefficients,
    clasp_vector_to_braid,
    comb_clasper_braid,
    enumerate_comb_claspers,
    extract_clasp_vector,
)
from linkhom.gamma import braid_equal_lh, gamma_matrix
from linkhom.reduced_free import BasicCommutator
from conftest import random_clasp_vector, random_pure_braid


def test_comb_clasper_validation():
    with pytest.raises(BraidError):
        CombClasper((1,))
    with pytest.raises(BraidError):
        CombClasper((2, 1, 3))  # first entry must be the minimum
    with pytest.raises(BraidError):
        CombClasper((1, 3, 2))  # last entry must be the maximum
    with pytest.raises(BraidError):
        CombClasper((1, 2, 2))
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


def test_probe_readout_certification(monkeypatch):
    # A_23 lacks strand 1: it sends (3) to (3) - (23), off the full support
    with pytest.raises(CertificationError, match="unexpected coefficient"):
        _probe_coefficients(pure_generator_word(3, 2, 3))
    # a matrix-vector product that doubles its result loses the unit
    doubled = claspers.gamma_apply
    monkeypatch.setattr(claspers, "gamma_apply", lambda *args: 2 * doubled(*args))
    with pytest.raises(CertificationError, match="unit coefficient"):
        _probe_coefficients(pure_generator_word(3, 1, 3))


def test_clasp_vector_normalisation_and_json():
    v = ClaspVector(3, {(1, 2): 2, (1, 3): 0})
    assert v.nu == {(1, 2): 2}
    assert v.to_json() == {"n": 3, "order": "degree-lex", "nu": {"1.2": 2}}
    assert ClaspVector.from_json(v.to_json()) == v
    with pytest.raises(BraidError):
        ClaspVector(2, {(1, 3): 1})
    with pytest.raises(BraidError):
        ClaspVector.from_json({"n": 2, "nu": {"vegetable": 1}})


def test_build_zero_and_power():
    assert clasp_vector_to_braid(ClaspVector(3, {})) == BraidWord.identity(3)
    word = clasp_vector_to_braid(ClaspVector(2, {(1, 2): 2}))
    assert word.letters == ((1, 1),) * 4


def test_extract_examples():
    assert extract_clasp_vector(parse_braid_word("s1 s1", 2)).nu == {(1, 2): 1}
    assert extract_clasp_vector(BraidWord.identity(4)).nu == {}
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
    for _ in range(8):
        v = random_clasp_vector(rng, 4)
        word = clasp_vector_to_braid(v)
        for s in (1, 2, 3, 4):
            reduced = extract_clasp_vector(delete_strand(word, s))
            expected = {}
            for seq, value in v.nu.items():
                if s in seq:
                    continue
                expected[tuple(k if k < s else k - 1 for k in seq)] = value
            assert reduced.nu == expected
