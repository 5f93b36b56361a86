"""Permutations of the points {1, ..., n}.

A permutation is stored in one-line notation as the tuple of images of
1..n (1-based, to match the usual cycle symbols like ``(1 2)``).  The
package never composes permutations: it maps each one to the orbit kets
once, and checks that the maps of the adjacent transpositions satisfy the
Coxeter relations of S_n.  The tests compose them with
``compose(p, q)(x) = p(q(x))`` (the right factor acts first), which lives
in tests/oracles.py.
"""
from __future__ import annotations

from typing import Iterable


class Permutation:
    """A bijection of {1, ..., n} in one-line notation.

    >>> p = Permutation((2, 1, 3))
    >>> p(1), p(2), p(3)
    (2, 1, 3)
    >>> str(p)
    '(1 2)'
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"{images} is not a bijection of 1..{n}")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        if not 1 <= point <= len(self.images):
            raise ValueError(f"point {point} out of range 1..{len(self.images)}")
        return self.images[point - 1]

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by it.

        >>> Permutation((2, 3, 1, 4)).cycles()
        [(1, 2, 3)]
        """
        seen = [False] * len(self.images)
        out = []
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cyc = []
            x = start
            while not seen[x - 1]:
                seen[x - 1] = True
                cyc.append(x)
                x = self.images[x - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __str__(self) -> str:
        return cycle_string(self)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def transposition(i: int, j: int, n: int) -> Permutation:
    """The 2-cycle (i j) inside S_n; i and j may be given in either order.

    >>> transposition(1, 3, 3).images
    (3, 2, 1)
    """
    if i == j:
        raise ValueError(f"transposition needs two distinct points, got ({i} {j})")
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"points ({i} {j}) out of range 1..{n}")
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return Permutation(images)


def cycle_string(p: Permutation) -> str:
    """Cycle notation with fixed points omitted; identity prints as "()".

    >>> cycle_string(Permutation((2, 1, 4, 3)))
    '(1 2)(3 4)'
    """
    cycs = p.cycles()
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)


__all__ = [
    "Permutation",
    "transposition",
    "cycle_string",
]
