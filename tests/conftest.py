import random

import pytest

from linkhom.braids import BraidWord
from linkhom.claspers import ClaspVector, enumerate_comb_claspers


def random_braid(rng: random.Random, n: int, length: int) -> BraidWord:
    letters = tuple(
        (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(n, letters)


def random_pure_braid(rng: random.Random, n: int, length: int) -> BraidWord:
    """Rejection-sample a pure braid word of the requested length.

    Odd lengths are rounded down: a braid word can only be pure when its
    length is even (each letter is a transposition).
    """
    length -= length % 2
    while True:
        word = random_braid(rng, n, length)
        if word.is_pure():
            return word


def random_clasp_vector(rng: random.Random, n: int, bound: int = 2,
                        min_degree: int = 1) -> ClaspVector:
    return ClaspVector(
        n,
        {
            c.sequence: rng.randint(-bound, bound)
            for c in enumerate_comb_claspers(n)
            if c.degree >= min_degree
        },
    )


# Equivalent pairs of the closure-decide benchmark (seed/index, n, band) whose
# loop-lattice witness unrolls to more than 2,000,000 moves.
PAST_CAP_PAIRS = {
    "seed11-258-n5-1e3": (
        5,
        {
            "1.2.3": 972, "1.2.4": 429, "1.2.5": 953, "1.3.4": 732, "1.3.5": 285,
            "1.4.5": 726, "2.3.4": -819, "2.3.5": 585, "2.4.5": 69, "3.4.5": -445,
            "1.2.3.4": 764, "1.2.3.5": -430, "1.2.4.5": 733, "1.3.2.4": -845,
            "1.3.2.5": 976, "1.3.4.5": 415, "1.4.2.5": -580, "1.4.3.5": 344,
            "2.3.4.5": -637, "2.4.3.5": -438, "1.2.3.4.5": 450, "1.2.4.3.5": -528,
            "1.3.2.4.5": -883, "1.3.4.2.5": 976, "1.4.2.3.5": 132, "1.4.3.2.5": 409,
        },
        {
            "1.2.3": 972, "1.2.4": 429, "1.2.5": 953, "1.3.4": 732, "1.3.5": 285,
            "1.4.5": 726, "2.3.4": -819, "2.3.5": 585, "2.4.5": 69, "3.4.5": -445,
            "1.2.3.4": 764, "1.2.3.5": -1402, "1.2.4.5": -220, "1.3.2.4": 88,
            "1.3.2.5": -1515, "1.3.4.5": -1482, "1.4.2.5": 373, "1.4.3.5": 1076,
            "2.3.4.5": -637, "2.4.3.5": -1842, "1.2.3.4.5": 1422, "1.2.4.3.5": 793,
            "1.3.2.4.5": 1060, "1.3.4.2.5": -636, "1.4.2.3.5": -425, "1.4.3.2.5": 409,
        },
    ),
    "seed11-326-n4-1e6": (
        4,
        {
            "1.2": -235178, "1.3": -710570, "1.4": 824224, "2.3": -956664,
            "2.4": -660048, "3.4": -625632, "1.2.3": 48239, "1.2.4": 985564,
            "1.3.4": -365586, "2.3.4": 844073, "1.2.3.4": -701361, "1.3.2.4": -700613,
        },
        {
            "1.2": -235178, "1.3": -710570, "1.4": 824224, "2.3": -956664,
            "2.4": -660048, "3.4": -625632, "1.2.3": 769725, "1.2.4": 1410434,
            "1.3.4": -1189810, "2.3.4": 1800737, "1.2.3.4": -1545434,
            "1.3.2.4": -2405380,
        },
    ),
    "seed12-677-n5-1e6": (
        5,
        {
            "1.2.3": 817314, "1.2.4": 356758, "1.2.5": 42480, "1.3.4": -123752,
            "1.3.5": 943290, "1.4.5": 599815, "2.3.4": -530516, "2.3.5": 600800,
            "2.4.5": -464432, "3.4.5": -443805, "1.2.3.4": -22708, "1.2.3.5": -880552,
            "1.2.4.5": 644915, "1.3.2.4": -673571, "1.3.2.5": -579881,
            "1.3.4.5": 287792, "1.4.2.5": -203413, "1.4.3.5": 255116, "2.3.4.5": 417948,
            "2.4.3.5": -835770, "1.2.3.4.5": 928500, "1.2.4.3.5": 828602,
            "1.3.2.4.5": -402790, "1.3.4.2.5": 144285, "1.4.2.3.5": 940753,
            "1.4.3.2.5": 60875,
        },
        {
            "1.2.3": 817314, "1.2.4": 356758, "1.2.5": 42480, "1.3.4": -123752,
            "1.3.5": 943290, "1.4.5": 599815, "2.3.4": -530516, "2.3.5": 600800,
            "2.4.5": -464432, "3.4.5": -443805, "1.2.3.4": 794606, "1.2.3.5": -880552,
            "1.2.4.5": 644915, "1.3.2.4": -1490885, "1.3.2.5": -579881,
            "1.3.4.5": 287792, "1.4.2.5": -245893, "1.4.3.5": -688174,
            "2.3.4.5": 417948, "2.4.3.5": -835770, "1.2.3.4.5": 328685,
            "1.2.4.3.5": 828602, "1.3.2.4.5": 197025, "1.3.4.2.5": 101805,
            "1.4.2.3.5": 660016, "1.4.3.2.5": 207173,
        },
    ),
}


def past_cap_pair(label: str) -> tuple[ClaspVector, ClaspVector]:
    n, nu1, nu2 = PAST_CAP_PAIRS[label]
    return (ClaspVector.from_json({"n": n, "nu": nu1}),
            ClaspVector.from_json({"n": n, "nu": nu2}))

def exact_determinant(matrix) -> int:
    """Fraction-free (Bareiss) determinant over the integers."""
    m = [[int(v) for v in row] for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    if any(len(row) != size for row in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
            m[r][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC1A5)
