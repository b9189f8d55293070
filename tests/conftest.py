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
