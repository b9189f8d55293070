"""Words in the Artin braid groups.

A braid on ``n`` strands is stored as a word in the Artin generators
``sigma_1 .. sigma_{n-1}``: a tuple of letters ``(i, sign)`` with
``1 <= i <= n-1`` and ``sign`` +1 or -1.  Braids are read top to bottom,
the first letter being the topmost crossing.  Words are combined by
concatenation followed by free reduction (cancellation of adjacent
``sigma_i sigma_i^{-1}`` pairs); no other rewriting is ever applied here,
since equality questions are decided downstream by a faithful linear
representation, never by word identity.

The pure generator ``A_{ij}`` (strand j wrapping once around strand i,
passing in front of everything between) expands to
``sigma_{j-1} ... sigma_{i+1} sigma_i^2 sigma_{i+1}^{-1} ... sigma_{j-1}^{-1}``.

Text grammar, used by :func:`parse_braid_word` and the CLI: tokens are
whitespace separated, each one of ``s<k>``, ``s<k>^-1``, ``a<i>,<j>``,
``a<i>,<j>^-1``.  Pure-generator tokens are expanded on the fly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

Letter = tuple[int, int]

_ARTIN_TOKEN = re.compile(r"^s(\d+)(\^-1)?$")
_PURE_TOKEN = re.compile(r"^a(\d+),(\d+)(\^-1)?$")


class BraidError(ValueError):
    """Malformed braid input: bad token, index out of range, rank mismatch."""


class CertificationError(RuntimeError):
    """An exact self-check of a computed result failed: a defect, not bad input."""


def free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent (i,+1)(i,-1) pairs until none remain."""
    stack: list[Letter] = []
    for idx, sign in letters:
        if stack and stack[-1][0] == idx and stack[-1][1] == -sign:
            stack.pop()
        else:
            stack.append((idx, sign))
    return tuple(stack)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}, stored as the tuple of images of 1..n."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise BraidError(f"not a permutation of 1..{n}: {self.images}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    def __call__(self, k: int) -> int:
        return self.images[k - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition ``(self * other)(k) = self(other(k))``."""
        if len(self.images) != len(other.images):
            raise BraidError("permutation size mismatch")
        return Permutation(tuple(self(other(k)) for k in range(1, len(self.images) + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for k, v in enumerate(self.images, start=1):
            inv[v - 1] = k
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.images, start=1))


@dataclass(frozen=True)
class PureGenerator:
    """The pure braid generator A_{ij}, 1 <= i < j <= n."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if not 1 <= self.i < self.j:
            raise BraidError(f"pure generator needs 1 <= i < j, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise BraidError(f"strand count must be positive, got {self.strands}")
        for idx, sign in self.letters:
            if not 1 <= idx <= self.strands - 1:
                raise BraidError(
                    f"generator index {idx} out of range for {self.strands} strands"
                )
            if sign not in (1, -1):
                raise BraidError(f"letter sign must be +1 or -1, got {sign}")

    @classmethod
    def identity(cls, n: int) -> "BraidWord":
        return cls(n, ())

    @classmethod
    def sigma(cls, n: int, i: int, sign: int = 1) -> "BraidWord":
        return cls(n, ((i, sign),))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        return compose(self, other)

    def __pow__(self, exponent: int) -> "BraidWord":
        if exponent >= 0:
            word = self
        else:
            word, exponent = self.inverse(), -exponent
        letters = word.letters * exponent
        return BraidWord(self.strands, free_reduce(letters))

    def inverse(self) -> "BraidWord":
        return invert(self)

    def permutation(self) -> Permutation:
        return permutation_of(self)

    def is_pure(self) -> bool:
        return permutation_of(self).is_identity()

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return unparse_braid_word(self)


def compose(a: BraidWord, b: BraidWord, *more: BraidWord) -> BraidWord:
    """Stacking product (a on top of b), freely reduced."""
    words = (a, b) + more
    n = words[0].strands
    for w in words:
        if w.strands != n:
            raise BraidError(f"strand count mismatch: {w.strands} != {n}")
    letters: list[Letter] = []
    for w in words:
        letters.extend(w.letters)
    return BraidWord(n, free_reduce(letters))


def invert(a: BraidWord) -> BraidWord:
    """Group inverse: reversed letters with flipped signs."""
    return BraidWord(a.strands, tuple((i, -s) for i, s in reversed(a.letters)))


def permutation_of(a: BraidWord) -> Permutation:
    """The permutation of a braid word.

    Convention: letters act left to right, each sigma_i swapping the images
    at positions i, i+1.  The result sends each endpoint at the bottom of
    the braid to the top position of the strand running through it; it is
    the identity exactly when the braid is pure.
    """
    images = list(range(1, a.strands + 1))
    for i, _sign in a.letters:
        images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def expand_pure_generator(g: PureGenerator, n: int) -> BraidWord:
    """Artin word of A_{ij}: sigma_{j-1}..sigma_{i+1} sigma_i^2 sigma_{i+1}^-1..sigma_{j-1}^-1."""
    if g.j > n:
        raise BraidError(f"pure generator ({g.i},{g.j}) needs at least {g.j} strands, have {n}")
    prefix = [(k, 1) for k in range(g.j - 1, g.i, -1)]
    core = [(g.i, 1), (g.i, 1)]
    suffix = [(k, -1) for k in range(g.i + 1, g.j)]
    return BraidWord(n, tuple(prefix + core + suffix))


def pure_generator_word(n: int, i: int, j: int) -> BraidWord:
    return expand_pure_generator(PureGenerator(i, j), n)


def parse_braid_word(text: str, n: int) -> BraidWord:
    """Parse the braid-word grammar into a word on ``n`` strands."""
    if n < 1:
        raise BraidError(f"strand count must be positive, got {n}")
    letters: list[Letter] = []
    for token in text.split():
        m = _ARTIN_TOKEN.match(token)
        if m:
            idx = int(m.group(1))
            sign = -1 if m.group(2) else 1
            if not 1 <= idx <= n - 1:
                raise BraidError(f"token {token!r}: index out of range for {n} strands")
            letters.append((idx, sign))
            continue
        m = _PURE_TOKEN.match(token)
        if m:
            i, j = int(m.group(1)), int(m.group(2))
            if not 1 <= i < j <= n:
                raise BraidError(f"token {token!r}: need 1 <= i < j <= {n}")
            word = expand_pure_generator(PureGenerator(i, j), n)
            if m.group(3):
                word = word.inverse()
            letters.extend(word.letters)
            continue
        raise BraidError(f"malformed token {token!r}")
    return BraidWord(n, tuple(letters))


def unparse_braid_word(a: BraidWord) -> str:
    return " ".join(f"s{i}" if s == 1 else f"s{i}^-1" for i, s in a.letters)


def infer_strands(text: str) -> int:
    """Smallest strand count on which the word parses; 1 for the empty word."""
    best = 1
    for token in text.split():
        m = _ARTIN_TOKEN.match(token)
        if m:
            best = max(best, int(m.group(1)) + 1)
            continue
        m = _PURE_TOKEN.match(token)
        if m:
            best = max(best, int(m.group(1)), int(m.group(2)))
            continue
        raise BraidError(f"malformed token {token!r}")
    return best


def delete_strand(a: BraidWord, s: int) -> BraidWord:
    """Forget strand ``s`` (numbered by its top endpoint) and renumber.

    Letters crossing the tracked strand disappear; the remaining letters are
    reindexed to the braid group on one fewer strand.
    """
    if not 1 <= s <= a.strands:
        raise BraidError(f"no strand {s} in a braid on {a.strands} strands")
    if a.strands == 1:
        return BraidWord(1, ())
    pos = s
    letters: list[Letter] = []
    for i, sign in a.letters:
        if i == pos:
            pos += 1
        elif i == pos - 1:
            pos -= 1
        elif i > pos:
            letters.append((i - 1, sign))
        else:
            letters.append((i, sign))
    return BraidWord(a.strands - 1, free_reduce(letters))


def delete_strands(a: BraidWord, keep: Iterable[int]) -> BraidWord:
    """Restrict to the strands in ``keep``; kept strands are renumbered in order."""
    keep_set = sorted(set(keep))
    if not keep_set:
        raise BraidError("must keep at least one strand")
    if keep_set[0] < 1 or keep_set[-1] > a.strands:
        raise BraidError(f"strands {keep_set} not within 1..{a.strands}")
    word = a
    for s in sorted(set(range(1, a.strands + 1)) - set(keep_set), reverse=True):
        word = delete_strand(word, s)
    return word
