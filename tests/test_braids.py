import pytest

from linkhom.braids import (
    BraidError,
    BraidWord,
    Permutation,
    PureGenerator,
    compose,
    delete_strand,
    delete_strands,
    expand_pure_generator,
    infer_strands,
    invert,
    parse_braid_word,
    permutation_of,
    unparse_braid_word,
)
from conftest import random_braid


def test_parse_simple():
    word = parse_braid_word("s1 s2", 3)
    assert word.letters == ((1, 1), (2, 1))


def test_parse_empty_is_identity():
    word = parse_braid_word("", 4)
    assert word.letters == ()
    assert word.is_pure()


def test_parse_pure_generator_expands():
    # a1,3 at n=3 is sigma_2 sigma_1^2 sigma_2^-1
    word = parse_braid_word("a1,3", 3)
    assert word.letters == ((2, 1), (1, 1), (1, 1), (2, -1))
    inverse = parse_braid_word("a1,3^-1", 3)
    assert inverse.letters == ((2, 1), (1, -1), (1, -1), (2, -1))


def test_parse_errors():
    with pytest.raises(BraidError):
        parse_braid_word("s5", 3)
    with pytest.raises(BraidError):
        parse_braid_word("foo", 3)
    with pytest.raises(BraidError):
        parse_braid_word("a3,2", 4)
    with pytest.raises(BraidError):
        parse_braid_word("s1", 0)
    with pytest.raises(BraidError, match="out of range for 3 strands"):
        BraidWord(3, ((3, 1),))
    with pytest.raises(BraidError, match="sign must be"):
        BraidWord(3, ((1, 2),))
    with pytest.raises(BraidError, match="not a permutation"):
        Permutation((1, 1))


def test_parse_unparse_round_trip(rng):
    for _ in range(25):
        word = random_braid(rng, 4, rng.randint(0, 12))
        again = parse_braid_word(unparse_braid_word(word), 4)
        assert again.letters == word.letters


def test_expand_pure_generator_cases():
    assert expand_pure_generator(PureGenerator(1, 2), 2).letters == ((1, 1), (1, 1))
    assert expand_pure_generator(PureGenerator(1, 3), 3).letters == (
        (2, 1), (1, 1), (1, 1), (2, -1),
    )
    assert expand_pure_generator(PureGenerator(2, 4), 4).letters == (
        (3, 1), (2, 1), (2, 1), (3, -1),
    )
    assert len(expand_pure_generator(PureGenerator(1, 4), 5)) == 6
    with pytest.raises(BraidError):
        expand_pure_generator(PureGenerator(2, 4), 3)


def test_compose_cancels():
    s1 = BraidWord.sigma(3, 1)
    assert compose(s1, s1.inverse()).letters == ()
    word = parse_braid_word("s1 s2", 3)
    assert compose(BraidWord.identity(3), word) == word
    assert compose(s1, BraidWord.sigma(3, 2)).letters == ((1, 1), (2, 1))


def test_compose_strand_mismatch():
    with pytest.raises(BraidError):
        compose(BraidWord.identity(2), BraidWord.identity(3))


def test_compose_associative(rng):
    for _ in range(20):
        a = random_braid(rng, 4, 6)
        b = random_braid(rng, 4, 6)
        c = random_braid(rng, 4, 6)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_invert():
    word = parse_braid_word("s1 s2", 3)
    assert invert(word).letters == ((2, -1), (1, -1))
    assert invert(BraidWord.identity(5)) == BraidWord.identity(5)
    # reverse-and-flip of the a1,3 expansion
    assert invert(parse_braid_word("a1,3", 3)).letters == (
        (2, 1), (1, -1), (1, -1), (2, -1),
    )


def test_invert_involution_and_inverse(rng):
    for _ in range(20):
        word = random_braid(rng, 5, 10)
        assert invert(invert(word)) == word
        assert compose(word, invert(word)).letters == ()


def test_power():
    s1 = BraidWord.sigma(2, 1)
    assert (s1 ** 4).letters == ((1, 1),) * 4
    assert (s1 ** -2).letters == ((1, -1),) * 2
    assert (s1 ** 0) == BraidWord.identity(2)


def test_permutation_single_crossing():
    assert permutation_of(BraidWord.sigma(3, 1)).images == (2, 1, 3)


def test_permutation_three_cycle():
    # s1 then s2 sends 1 -> 2 -> 3 -> 1
    perm = permutation_of(parse_braid_word("s1 s2", 3))
    assert perm.images == (2, 3, 1)


def test_permutation_composition(rng):
    for _ in range(20):
        a = random_braid(rng, 4, 7)
        b = random_braid(rng, 4, 7)
        assert permutation_of(compose(a, b)) == permutation_of(a) * permutation_of(b)


def test_pure_generators_are_pure():
    for n in (2, 3, 4, 5):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                word = expand_pure_generator(PureGenerator(i, j), n)
                assert word.is_pure()


def test_permutation_inverse():
    perm = Permutation((2, 3, 1))
    assert perm.inverse().images == (3, 1, 2)
    assert (perm * perm.inverse()).is_identity()


def test_infer_strands():
    assert infer_strands("s1 s2") == 3
    assert infer_strands("a2,5") == 5
    assert infer_strands("") == 1
    with pytest.raises(BraidError):
        infer_strands("nope")


def test_delete_strand_examples():
    a13 = parse_braid_word("a1,3", 3)
    # forgetting the middle strand leaves a full twist of the outer two
    assert delete_strand(a13, 2).letters == ((1, 1), (1, 1))
    # forgetting a strand in the support kills the generator
    assert delete_strand(a13, 1).letters == ()
    assert delete_strand(a13, 3).letters == ()
    with pytest.raises(BraidError):
        delete_strand(a13, 4)
    with pytest.raises(BraidError, match="at least one strand"):
        delete_strands(a13, [])
    with pytest.raises(BraidError, match="not within"):
        delete_strands(a13, [0])


def test_delete_strand_is_homomorphism(rng):
    # strands are tracked by their top endpoint, so deleting from a product
    # deletes the strand of the second factor where the first one leaves it
    for _ in range(20):
        a = random_braid(rng, 4, 8)
        b = random_braid(rng, 4, 8)
        carry = permutation_of(a).inverse()
        for s in (1, 2, 3, 4):
            assert delete_strand(compose(a, b), s) == compose(
                delete_strand(a, s), delete_strand(b, carry(s))
            )


def test_delete_strands_keep():
    a13 = parse_braid_word("a1,3", 3)
    assert delete_strands(a13, [1, 3]).letters == ((1, 1), (1, 1))
    assert delete_strands(a13, [1, 2, 3]) == a13
