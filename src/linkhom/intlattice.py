"""Exact integer linear algebra: lattices, membership and kernels.

A lattice is kept as a row-echelon integer basis (positive pivots in
strictly increasing columns, entries above each pivot reduced into
``[0, pivot)``) together with, for each basis row, the coefficients
expressing it over the originally supplied generators.  Both are keyed
by the row's pivot column (:attr:`IntegerLattice.echelon`), so an
incoming row finds the stored row with its pivot by one lookup.  That
recipe bookkeeping is what lets :meth:`IntegerLattice.solve` return an exact
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


def _pivot(row: Sequence[int], start: int = 0) -> int | None:
    for j in range(start, len(row)):
        if row[j]:
            return j
    return None


def _subtract(target: list[int], q: int, source: Sequence[int]) -> None:
    """``target -= q * source``, in place."""
    target[:] = [t - q * v for t, v in zip(target, source)]


class IntegerLattice:
    """Sublattice of Z^dim spanned by the supplied generator vectors.

    ``echelon`` maps each pivot column to its basis row and that row's
    recipe, in increasing pivot order.
    """

    def __init__(self, dim: int, generators: Iterable[Sequence[int]] = ()) -> None:
        self.dim = dim
        self.generators = 0
        self.echelon: dict[int, tuple[list[int], list[int]]] = {}
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
        for stored in [r for _, r in self.echelon.values()] + self.kernel:
            stored.append(0)
        j = _pivot(row)
        while j is not None:
            if j not in self.echelon:
                if row[j] < 0:
                    row[:] = [-v for v in row]
                    recipe[:] = [-v for v in recipe]
                self.echelon[j] = (row, recipe)
                self.echelon = dict(sorted(self.echelon.items()))
                break
            # same pivot column: one euclidean step, possibly swapping
            other, other_recipe = self.echelon[j]
            q = row[j] // other[j]
            _subtract(row, q, other)
            _subtract(recipe, q, other_recipe)
            if row[j]:
                self.echelon[j] = (row, recipe)
                row, recipe = other, other_recipe
            else:
                j = _pivot(row, j + 1)
        else:
            self.kernel.append(recipe)
        self._normalize()

    def _normalize(self) -> None:
        stored = list(self.echelon.items())
        for k in range(len(stored) - 1, -1, -1):
            j, (row, recipe) = stored[k]
            for _, (other, other_recipe) in stored[:k]:
                q = other[j] // row[j]
                if q:
                    _subtract(other, q, row)
                    _subtract(other_recipe, q, recipe)

    @property
    def rows(self) -> list[list[int]]:
        """The basis rows in increasing pivot order."""
        return [row for row, _ in self.echelon.values()]

    @property
    def rank(self) -> int:
        return len(self.echelon)

    def reduce(self, vec: Sequence[int]) -> tuple[Vector, list[int]]:
        """Canonical coset representative and the subtracted row multiples."""
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)} in a lattice of dimension {self.dim}")
        out = [int(v) for v in vec]
        used = []
        for j, (row, _) in self.echelon.items():
            q = out[j] // row[j]
            used.append(q)
            if q:
                _subtract(out, q, row)
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
        for q, (_, recipe) in zip(used, self.echelon.values()):
            if q:
                _subtract(coeffs, -q, recipe)
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
