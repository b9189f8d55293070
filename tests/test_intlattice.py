import random

import pytest

from linkhom.intlattice import IntegerLattice, gcd_all, kernel_basis
from conftest import exact_determinant


def test_membership_simple():
    lat = IntegerLattice(2, [(2, 0), (0, 3)])
    assert (4, 3) in lat
    assert (1, 0) not in lat
    assert (0, 0) in lat


def test_membership_gcd():
    lat = IntegerLattice(1, [(4,), (6,)])
    assert (2,) in lat
    assert (1,) not in lat


def test_solve_recovers_combination():
    rng = random.Random(3)
    for _ in range(30):
        dim = rng.randint(1, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(dim)) for _ in range(rng.randint(1, 6))]
        lat = IntegerLattice(dim, gens)
        coeffs = [rng.randint(-3, 3) for _ in gens]
        target = tuple(sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(dim))
        sol = lat.solve(target)
        assert sol is not None
        rebuilt = tuple(sum(c * g[k] for c, g in zip(sol, gens)) for k in range(dim))
        assert rebuilt == target


def test_solve_none_outside():
    lat = IntegerLattice(2, [(2, 2)])
    assert lat.solve((1, 1)) is None
    assert lat.solve((2, 2)) == [1]


def test_canonical_is_coset_invariant():
    rng = random.Random(9)
    for _ in range(30):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
        lat = IntegerLattice(dim, gens)
        v = tuple(rng.randint(-8, 8) for _ in range(dim))
        shift = [rng.randint(-3, 3) for _ in gens]
        w = tuple(
            v[k] + sum(c * g[k] for c, g in zip(shift, gens)) for k in range(dim)
        )
        assert lat.canonical(v) == lat.canonical(w)
        u = tuple(rng.randint(-8, 8) for _ in range(dim))
        same = lat.canonical(u) == lat.canonical(v)
        diff_in = tuple(a - b for a, b in zip(u, v)) in lat
        assert same == diff_in


def test_vectors_of_another_length_are_refused():
    lat = IntegerLattice(2, [(2, 0)])
    for vec in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match="in a lattice of dimension 2"):
            lat.add(vec)
        with pytest.raises(ValueError, match="in a lattice of dimension 2"):
            lat.reduce(vec)
    assert lat.generators == 1 and lat.rows == [[2, 0]]


def test_kernel_basis():
    rows = [(1, 0), (0, 1), (1, 1)]
    kernel = kernel_basis(rows, 2)
    assert len(kernel) == 1
    c = kernel[0]
    assert all(
        sum(c[k] * rows[k][j] for k in range(3)) == 0 for j in range(2)
    )
    # full-rank rows have trivial kernel
    assert kernel_basis([(1, 0), (0, 1)], 2) == []
    # zero rows are all kernel
    kernel = kernel_basis([(0, 0), (0, 0)], 2)
    assert len(kernel) == 2


def test_kernel_random(rng=None):
    rnd = random.Random(4)
    for _ in range(20):
        dim = rnd.randint(1, 4)
        count = rnd.randint(1, 6)
        rows = [tuple(rnd.randint(-3, 3) for _ in range(dim)) for _ in range(count)]
        kernel = kernel_basis(rows, dim)
        for c in kernel:
            assert all(
                sum(c[k] * rows[k][j] for k in range(count)) == 0 for j in range(dim)
            )
        rank = IntegerLattice(dim, rows).rank
        assert len(kernel) == count - rank
    # saturation: a primitive relation lies in the span of the basis
    for _ in range(40):
        dim = rnd.randint(1, 4)
        base = [tuple(rnd.randint(-5, 5) for _ in range(dim)) for _ in range(rnd.randint(1, 5))]
        a = [rnd.randint(-4, 4) for _ in base]
        if gcd_all(a) != 1:
            continue
        rows = base + [tuple(sum(c * r[j] for c, r in zip(a, base)) for j in range(dim))]
        assert (*a, -1) in IntegerLattice(len(rows), kernel_basis(rows, dim))


def test_kernel_grows_with_the_lattice():
    # the relations recorded while adding rows one at a time span the same
    # lattice as those of an elimination in the reverse order
    rnd = random.Random(5)
    for _ in range(30):
        dim = rnd.randint(1, 4)
        rows = [tuple(rnd.randint(-4, 4) for _ in range(dim)) for _ in range(rnd.randint(1, 7))]
        lat = IntegerLattice(dim)
        for k, row in enumerate(rows, start=1):
            lat.add(row)
            grown = IntegerLattice(k, lat.kernel)
            other = IntegerLattice(k, [c[::-1] for c in kernel_basis(rows[:k][::-1], dim)])
            assert grown.rank == other.rank == k - lat.rank
            assert all(c in grown for c in other.rows)
            assert all(c in other for c in grown.rows)


def test_exact_determinant():
    assert exact_determinant([[2, 0], [0, 3]]) == 6
    assert exact_determinant([[0, 1], [1, 0]]) == -1
    assert exact_determinant([[1, 2], [2, 4]]) == 0
    assert exact_determinant([]) == 1
    rng = random.Random(12)
    import numpy as np

    for _ in range(10):
        size = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        assert exact_determinant(m) == round(np.linalg.det(np.array(m, dtype=float)))
    with pytest.raises(ValueError):
        exact_determinant([[1, 2]])


def test_gcd_all():
    assert gcd_all([4, 6, 0]) == 2
    assert gcd_all([]) == 0
    assert gcd_all([0, 0]) == 0
    assert gcd_all([-3, 6]) == 3
