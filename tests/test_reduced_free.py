import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkhom.braids import BraidWord, compose
from linkhom.reduced_free import (
    BasicCommutator,
    ExponentVector,
    ORDER_TAGS,
    MagnusSeries,
    RankError,
    ReducedWord,
    artin_act,
    basis_size_formula,
    binomial,
    commutator_word,
    enumerate_basic_commutators,
    group_commutator,
    magnus_expand,
    parse_reduced_word,
    rfg_normal_form,
    series_multiply,
)
from conftest import random_braid


def x(rank, k, sign=1):
    return ReducedWord.generator(rank, k, sign)


def rfg_equal(u, v):
    """Equality in RF_n, decided through the unique normal form."""
    if u.rank != v.rank:
        raise RankError(f"rank mismatch: {u.rank} != {v.rank}")
    return rfg_normal_form(u).values == rfg_normal_form(v).values


def weight_size_formula(n, weight):
    """Number of basic commutators of a given weight: sum of k!/(k-w+1)!."""
    return sum(math.factorial(k) // math.factorial(k - weight + 1) for k in range(weight - 1, n))


def exponent_vector_from_dict(basis, values):
    out = [0] * len(basis)
    for seq, v in values.items():
        out[basis.index_of(BasicCommutator(tuple(seq)))] = v
    return ExponentVector(basis, tuple(out))


def to_word(vec):
    """The ordered product of the basis commutators' powers that ``vec`` lists."""
    word = ReducedWord.identity(vec.basis.rank)
    for alpha, e in vec.nonzero():
        word = word * commutator_word(vec.basis.rank, alpha.sequence) ** e
    return word


def random_word(rng, rank, length):
    return ReducedWord(
        rank, tuple((rng.randint(1, rank), rng.choice((1, -1))) for _ in range(length))
    )


# ---------------------------------------------------------------------------
# Magnus ring


def test_series_multiply_squarefree():
    a = MagnusSeries(1, {(): 1, (1,): 1})
    assert series_multiply(a, a).coefficients == {(): 1, (1,): 2}


def test_series_multiply_distributes():
    a = MagnusSeries(2, {(): 1, (1,): 1})
    b = MagnusSeries(2, {(): 1, (2,): 1})
    assert series_multiply(a, b).coefficients == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}
    one = MagnusSeries.one(2)
    assert series_multiply(one, b) == b


def test_series_multiply_rank_mismatch():
    with pytest.raises(RankError):
        series_multiply(MagnusSeries.one(2), MagnusSeries.one(3))


def test_series_invert_small():
    assert MagnusSeries.one(3) ** -1 == MagnusSeries.one(3)
    a = MagnusSeries(1, {(): 1, (1,): 1})
    assert (a ** -1).coefficients == {(): 1, (1,): -1}
    b = MagnusSeries(2, {(): 1, (1,): 1, (2,): 1, (1, 2): 1})
    assert (b ** -1).coefficients == {(): 1, (1,): -1, (2,): -1, (2, 1): 1}


def test_series_invert_is_inverse(rng):
    for _ in range(25):
        w = random_word(rng, 4, rng.randint(0, 10))
        series = magnus_expand(w)
        assert series_multiply(series, series ** -1).is_one()
        assert series_multiply(series ** -1, series).is_one()
        assert all(type(v) is int for v in (series ** -1).coefficients.values())


def test_series_invert_needs_unit():
    with pytest.raises(RankError):
        MagnusSeries(2, {(): 2}) ** -1


def repeated_product(a, e):
    """``a ** e`` by its definition, ``e`` >= 0: the oracle of the binomial power."""
    out = MagnusSeries.one(a.rank)
    for _ in range(e):
        out = series_multiply(out, a)
    return out


@st.composite
def square_free_series(draw, constants=(-1, 0, 1, 2)):
    rank = draw(st.integers(1, 5))
    monomials = [m for k in range(1, rank + 1) for m in itertools.permutations(range(1, rank + 1), k)]
    c = draw(st.sampled_from(constants))
    terms = draw(st.dictionaries(st.sampled_from(monomials), st.integers(-3, 3), max_size=6))
    coefficients = {m: v for m, v in terms.items() if v}
    if c:
        coefficients[()] = c
    return MagnusSeries(rank, coefficients)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(square_free_series())
def test_power_is_the_repeated_product(a):
    for e in range(7):
        power = a ** e
        assert power == repeated_product(a, e)
        assert all(type(v) is int for v in power.coefficients.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(square_free_series(constants=(1,)), st.integers(1, 6))
def test_negative_power_inverts(a, e):
    inverse = a ** -e
    assert inverse == (a ** -1) ** e
    assert all(type(v) is int for v in inverse.coefficients.values())
    assert series_multiply(a ** e, inverse).is_one()


def test_power_does_not_stop_at_a_zero_binomial_term():
    # (X1 + X2)^2: the terms C(2, j) 0^(2 - j) of j = 0, 1 vanish, that of j = 2 does not
    a = MagnusSeries(2, {(1,): 1, (2,): 1})
    assert (a ** 2).coefficients == {(1, 2): 1, (2, 1): 1}
    assert (a ** 3).coefficients == {}
    assert (a ** 0).is_one()
    with pytest.raises(RankError):
        a ** -1


def test_binomial():
    assert [binomial(5, j) for j in range(7)] == [1, 5, 10, 10, 5, 1, 0]
    assert [binomial(-2, j) for j in range(4)] == [1, -2, 3, -4]
    assert binomial(-3, 2) == 6 and binomial(0, 0) == 1


def test_monomials_with_repeats_rejected():
    with pytest.raises(RankError):
        MagnusSeries(2, {(1, 1): 1})


# ---------------------------------------------------------------------------
# Magnus expansion


def test_expand_generator():
    assert magnus_expand(x(3, 2)).coefficients == {(): 1, (2,): 1}
    assert magnus_expand(ReducedWord.identity(2)).is_one()


def test_expand_commutator():
    w = group_commutator(x(2, 1), x(2, 2))
    assert magnus_expand(w).coefficients == {(): 1, (1, 2): 1, (2, 1): -1}


def test_expand_multiplicative(rng):
    for _ in range(25):
        u = random_word(rng, 3, rng.randint(0, 8))
        v = random_word(rng, 3, rng.randint(0, 8))
        assert magnus_expand(u * v) == series_multiply(magnus_expand(u), magnus_expand(v))


def test_relator_expands_to_one():
    # [x_i, w x_i w^-1] dies for every conjugator w
    lam = x(2, 2)
    w = group_commutator(x(2, 1), lam * x(2, 1) * lam.inverse())
    assert magnus_expand(w).is_one()


def test_relator_vanishing_random(rng):
    for rank in (2, 3, 4, 5):
        for _ in range(12 if rank < 5 else 6):
            lam = random_word(rng, rank, rng.randint(0, 8))
            i = rng.randint(1, rank)
            w = group_commutator(x(rank, i), lam * x(rank, i) * lam.inverse())
            assert magnus_expand(w).is_one()
            assert rfg_normal_form(w).is_zero()


# ---------------------------------------------------------------------------
# Basis enumeration


def test_enumerate_rank_one():
    basis = enumerate_basic_commutators(1)
    assert [a.sequence for a in basis.elements] == [(1,)]


def test_enumerate_rank_three_order():
    basis = enumerate_basic_commutators(3)
    assert [a.key() for a in basis.elements] == [
        "1", "2", "3", "1.2", "1.3", "2.3", "1.2.3", "1.3.2",
    ]


def brute_force_sequences(n):
    out = []
    for length in range(1, n + 1):
        for seq in itertools.permutations(range(1, n + 1), length):
            if seq[0] == min(seq):
                out.append(seq)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_matches_brute_force_and_formula(n):
    basis = enumerate_basic_commutators(n)
    brute = brute_force_sequences(n)
    assert sorted(a.sequence for a in basis.elements) == sorted(brute)
    assert len(basis) == basis_size_formula(n)
    for weight in range(1, n + 1):
        count = sum(1 for a in basis.elements if a.weight == weight)
        assert count == weight_size_formula(n, weight)


def test_basis_sizes():
    assert [basis_size_formula(n) for n in range(1, 7)] == [1, 3, 8, 24, 89, 415]


def test_basic_commutator_validation():
    with pytest.raises(RankError):
        BasicCommutator((2, 1))
    with pytest.raises(RankError):
        BasicCommutator((1, 2, 2))
    with pytest.raises(RankError, match="unknown basis order"):
        enumerate_basic_commutators(3, "lex")


def test_weight_revlex_order():
    basis = enumerate_basic_commutators(3, "weight-revlex")
    assert [a.key() for a in basis.elements] == [
        "3", "2", "1", "2.3", "1.3", "1.2", "1.3.2", "1.2.3",
    ]


# ---------------------------------------------------------------------------
# Normal form


def test_normal_form_sorted_word():
    vec = rfg_normal_form(x(2, 1) * x(2, 2))
    assert vec.as_dict() == {(1,): 1, (2,): 1}


def test_normal_form_reversed_word():
    # x2 x1 = x1 x2 [x1,x2]^-1 in the reduced free group
    vec = rfg_normal_form(x(2, 2) * x(2, 1))
    assert vec.as_dict() == {(1,): 1, (2,): 1, (1, 2): -1}


def test_normal_form_rank_mismatch():
    with pytest.raises(RankError):
        rfg_normal_form(x(2, 1), enumerate_basic_commutators(3))
    with pytest.raises(RankError, match="does not match basis size"):
        ExponentVector(enumerate_basic_commutators(3), (0,) * 7)


def test_normal_form_round_trip(rng):
    for order in ORDER_TAGS:
        for rank in (2, 3, 4):
            basis = enumerate_basic_commutators(rank, order)
            for _ in range(15):
                values = {
                    a.sequence: rng.randint(-3, 3)
                    for a in basis.elements
                    if rng.random() < 0.5
                }
                vec = exponent_vector_from_dict(basis, values)
                nf = rfg_normal_form(to_word(vec), basis)
                assert nf.values == vec.values
                assert all(type(v) is int for v in nf.values)


def powers_word(rank, exponents):
    """x_rank^e_rank .. x_1^e_1 for ``exponents`` listed from x_rank down."""
    letters = tuple((rank - k, 1) for k, e in enumerate(exponents) for _ in range(e))
    return ReducedWord(rank, letters)


@pytest.mark.parametrize(
    "rank, e, heavy",
    [
        (2, 2000, {(1, 2): -4_000_000}),
        (3, 100, {(1, 3, 2): -1_000_000}),
        (4, 25, {(1, 3, 2): -15_625, (1, 4, 2): -15_625, (1, 4, 3): -15_625,
                 (2, 4, 3): -15_625, (1, 2, 3, 4): -390_625, (1, 2, 4, 3): 390_625,
                 (1, 3, 2, 4): -390_625, (1, 3, 4, 2): 390_625, (1, 4, 2, 3): -390_625}),
    ],
)
def test_normal_form_of_long_powers(rank, e, heavy):
    # x_n^e .. x_1^e: the exponents reach e^n, and the cost does not follow them
    nf = rfg_normal_form(powers_word(rank, [e] * rank)).as_dict()
    light = {(k,): e for k in range(1, rank + 1)}
    light.update({pair: -e * e for pair in itertools.combinations(range(1, rank + 1), 2)})
    assert nf == {**light, **heavy}
    assert all(type(v) is int for v in nf.values())


def test_rfg_equal():
    u = x(2, 1) * x(2, 2)
    v = x(2, 2) * x(2, 1) * group_commutator(x(2, 1), x(2, 2))
    assert rfg_equal(u, v)
    assert not rfg_equal(x(2, 1), x(2, 2))
    w = x(2, 1) * x(2, 2) * x(2, 1, -1)
    assert rfg_equal(w, w)
    with pytest.raises(RankError):
        rfg_equal(x(2, 1), x(3, 1))


def test_exponent_vector_json():
    basis = enumerate_basic_commutators(3)
    vec = rfg_normal_form(x(3, 2) * x(3, 1))
    data = vec.to_json()
    assert data == {
        "rank": 3,
        "order": "weight-lex",
        "coefficients": {"1": 1, "2": 1, "1.2": -1},
    }


def test_magnus_series_json():
    series = magnus_expand(group_commutator(x(2, 1), x(2, 2)))
    assert series.to_json() == {
        "rank": 2,
        "coefficients": {"": 1, "1.2": 1, "2.1": -1},
    }


# ---------------------------------------------------------------------------
# Braid action on the reduced free group


def test_action_on_generators():
    s1 = BraidWord.sigma(3, 1)
    # convention pinned by the golden matrices: sigma_i conjugates from the
    # left, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
    assert artin_act(s1, x(3, 1)).letters == ((2, 1),)
    assert artin_act(s1, x(3, 2)).letters == ((2, -1), (1, 1), (2, 1))
    assert artin_act(s1, x(3, 3)).letters == ((3, 1),)
    s1_inv = BraidWord.sigma(3, 1, -1)
    assert artin_act(s1_inv, x(3, 2)).letters == ((1, 1),)
    assert artin_act(s1_inv, x(3, 1)).letters == ((1, 1), (2, 1), (1, -1))


def test_action_inverse_composes_to_identity(rng):
    for n in (2, 3, 4):
        for i in range(1, n):
            word = compose(BraidWord.sigma(n, i), BraidWord.sigma(n, i, -1))
            for k in range(1, n + 1):
                assert artin_act(word, x(n, k)) == x(n, k)


def test_action_is_group_action(rng):
    for _ in range(10):
        a = random_braid(rng, 4, 5)
        b = random_braid(rng, 4, 5)
        for k in range(1, 5):
            image_ab = artin_act(compose(a, b), x(4, k))
            image_then = artin_act(a, artin_act(b, x(4, k)))
            assert rfg_equal(image_ab, image_then)


def test_action_rank_mismatch():
    from linkhom.braids import BraidError

    with pytest.raises(BraidError):
        artin_act(BraidWord.sigma(3, 1), x(4, 1))


def test_support_confinement(rng):
    # every factor in the normal form of the image of x_j uses the strand
    # that ends where strand j ends
    for n in (3, 4):
        for _ in range(15):
            braid = random_braid(rng, n, rng.randint(0, 8))
            q = braid.permutation()
            for j in range(1, n + 1):
                vec = rfg_normal_form(artin_act(braid, x(n, j)))
                for alpha, value in vec.nonzero():
                    assert q(j) in alpha.sequence


def test_parse_reduced_word():
    word = parse_reduced_word("x1 x2^-1", 2)
    assert word.letters == ((1, 1), (2, -1))
    with pytest.raises(RankError):
        parse_reduced_word("x3", 2)
    with pytest.raises(RankError):
        parse_reduced_word("y1", 2)
    # without a rank: the largest index, at least 1
    assert parse_reduced_word("x3 x1^-1") == ReducedWord(3, ((3, 1), (1, -1)))
    assert parse_reduced_word("").rank == 1
    with pytest.raises(RankError):
        parse_reduced_word("x0")
    with pytest.raises(RankError):
        parse_reduced_word("x2^2")
    # a superscript is a digit to str.isdigit() but not a decimal one
    for token in ("x\u00b2", "x1\u00b9"):
        with pytest.raises(RankError, match="malformed token"):
            parse_reduced_word(token)


def test_commutator_word_left_normed():
    w = commutator_word(3, (1, 2, 3))
    inner = group_commutator(x(3, 1), x(3, 2))
    assert w == group_commutator(inner, x(3, 3))
