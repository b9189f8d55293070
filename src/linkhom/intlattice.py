"""Exact integer linear algebra: lattices, membership and kernels.

A lattice is kept as a row-echelon integer basis (positive pivots in
strictly increasing columns, entries above each pivot reduced into
``[0, pivot)``) together with, for each basis row, the coefficients
expressing it over the originally supplied generators.  That recipe
bookkeeping is what lets :meth:`IntegerLattice.solve` return an exact
integer combination of the *original* generators, which downstream code
replays as a certified move sequence.

The same elimination yields the integer relations among the generators:
the recipe of every generator that reduces to zero is kept in
:attr:`IntegerLattice.kernel`.  Each reduction step is unimodular on the
recipes, so row recipes and kernel recipes together stay a basis of
``Z^count``; as the rows are independent, the kernel recipes are a basis
of all relations.  :func:`kernel_basis` is a view of that list.

Everything here is plain Python integer arithmetic; no floating point.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

Vector = tuple[int, ...]


def _pivot(row: Sequence[int]) -> int | None:
    for j, v in enumerate(row):
        if v:
            return j
    return None


class IntegerLattice:
    """Sublattice of Z^dim spanned by the supplied generator vectors."""

    def __init__(self, dim: int, generators: Iterable[Sequence[int]] = ()) -> None:
        self.dim = dim
        self.generators = 0
        self.rows = []
        self.recipes = []
        self.kernel = []
        for g in generators:
            self.add(g)

    def add(self, vec: Sequence[int]) -> None:
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)} in a lattice of dimension {self.dim}")
        self.generators += 1
        row = [int(v) for v in vec]
        recipe = [0] * self.generators
        recipe[-1] = 1
        for stored in self.recipes + self.kernel:
            stored.append(0)
        self._reduce_in(row, recipe)
        self._normalize()

    def _reduce_in(self, row: list[int], recipe: list[int]) -> None:
        k = 0
        while True:
            j = _pivot(row)
            if j is None:
                self.kernel.append(recipe)
                return
            while k < len(self.rows):
                pj = _pivot(self.rows[k])
                if pj is not None and pj >= j:
                    break
                k += 1
            if k == len(self.rows) or _pivot(self.rows[k]) > j:
                if row[j] < 0:
                    row[:] = [-v for v in row]
                    recipe[:] = [-v for v in recipe]
                self.rows.insert(k, row)
                self.recipes.insert(k, recipe)
                return
            # same pivot column: one euclidean step, possibly swapping
            other, other_recipe = self.rows[k], self.recipes[k]
            q = row[j] // other[j]
            for idx in range(self.dim):
                row[idx] -= q * other[idx]
            for idx in range(len(recipe)):
                recipe[idx] -= q * other_recipe[idx]
            if row[j]:
                self.rows[k], self.recipes[k] = row, recipe
                row, recipe = other, other_recipe

    def _normalize(self) -> None:
        for k in range(len(self.rows) - 1, -1, -1):
            j = _pivot(self.rows[k])
            p = self.rows[k][j]
            for r in range(k):
                q = self.rows[r][j] // p
                if q:
                    for idx in range(self.dim):
                        self.rows[r][idx] -= q * self.rows[k][idx]
                    for idx in range(len(self.recipes[r])):
                        self.recipes[r][idx] -= q * self.recipes[k][idx]

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[int]) -> tuple[Vector, list[int]]:
        """Canonical coset representative and the subtracted row multiples."""
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)} in a lattice of dimension {self.dim}")
        out = [int(v) for v in vec]
        used = [0] * len(self.rows)
        for k, row in enumerate(self.rows):
            j = _pivot(row)
            q = out[j] // row[j]
            if q:
                used[k] = q
                for idx in range(self.dim):
                    out[idx] -= q * row[idx]
        return tuple(out), used

    def canonical(self, vec: Sequence[int]) -> Vector:
        return self.reduce(vec)[0]

    def __contains__(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec)[0])

    def solve(self, vec: Sequence[int]) -> list[int] | None:
        """Integer coefficients over the original generators, or None."""
        reduced, used = self.reduce(vec)
        if any(reduced):
            return None
        coeffs = [0] * self.generators
        for k, q in enumerate(used):
            if q:
                for idx, r in enumerate(self.recipes[k]):
                    coeffs[idx] += q * r
        return coeffs


def kernel_basis(rows: Sequence[Sequence[int]], dim: int) -> list[Vector]:
    """Basis of the left kernel: all c with sum_k c_k rows[k] = 0.

    The relations that :class:`IntegerLattice` records while it
    echelonizes the rows; see the module docstring.
    """
    return [tuple(c) for c in IntegerLattice(dim, rows).kernel]


def gcd_all(values: Iterable[int]) -> int:
    out = 0
    for v in values:
        out = gcd(out, abs(int(v)))
    return out
