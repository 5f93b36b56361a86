"""Box contents and standard Young tableaux.

The content of the box in (1-based) row r, column c is c - r.  A standard
tableau is recovered from an eigenvalue chain by reading off the content
of each successive box: the addable corners of a Young diagram all have
distinct contents, so a content sequence determines at most one growth
path.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class StandardTableau:
    """A filling of a partition shape with 1..n, increasing along rows and columns."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        shape = tuple(len(r) for r in self.rows)
        if not shape or any(a < b for a, b in zip(shape, shape[1:])) or shape[-1] == 0:
            raise ValueError(f"row lengths {shape} do not form a partition")
        entries = [x for row in self.rows for x in row]
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValueError(f"entries must be exactly 1..{len(entries)}")
        for row in self.rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {row} is not increasing")
        for upper, lower in zip(self.rows, self.rows[1:]):
            if any(upper[c] >= lower[c] for c in range(len(lower))):
                raise ValueError("columns must increase downwards")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def bracket_lines(self) -> list[str]:
        """Rows rendered one per line: ["[1 2]", "[3]"]."""
        return ["[" + " ".join(str(x) for x in row) + "]" for row in self.rows]


def addable_corners(shape: Sequence[int]) -> list[tuple[int, int]]:
    """(row, content) for every cell that may be appended to ``shape``.

    Contents of distinct corners are distinct, which is what makes
    content chains unambiguous.
    """
    corners = []
    for r in range(len(shape) + 1):
        rowlen = shape[r] if r < len(shape) else 0
        above = shape[r - 1] if r > 0 else None
        if above is not None and above <= rowlen:
            continue
        corners.append((r, rowlen - r))
    return corners


def rows_from_contents(contents: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Rows of the filling that places box j at the addable corner whose
    content is contents[j - 1] (so box 1 needs content 0).  Raises
    ValueError when no addable corner has the content asked for.

    >>> rows_from_contents((0, -1, 1))
    ((1, 3), (2,))
    """
    rows: list[list[int]] = []
    for entry, want in enumerate(contents, start=1):
        for r, content in addable_corners([len(row) for row in rows]):
            if content == want:
                if r == len(rows):
                    rows.append([entry])
                else:
                    rows[r].append(entry)
                break
        else:
            raise ValueError(f"no addable corner has content {want} for box {entry}")
    return tuple(tuple(row) for row in rows)


def corner_contents(contents: Sequence[int]) -> list[int]:
    """The contents of the addable corners of the shape that the box
    contents ``contents`` fill, in descending order: the branching rule,
    one content per way to add box k+1 to a k-box tableau."""
    shape = [len(row) for row in rows_from_contents(contents)]
    return [c for _, c in addable_corners(shape)]


def tableau_from_chain(nu: Sequence[int]) -> StandardTableau:
    """The unique standard tableau whose box contents follow a chain.

    ``nu`` is the eigenvalue chain (nu_n, ..., nu_2) of the class-sum
    operators C(n), ..., C(2); rows_from_contents places chain_contents(nu),
    raising ValueError when the chain is not realizable.

    >>> tableau_from_chain((3, 1)).rows
    ((1, 2, 3),)
    >>> tableau_from_chain((0, -1)).rows
    ((1, 3), (2,))
    """
    return StandardTableau(rows_from_contents(chain_contents(nu)))


def chain_contents(nu: Sequence[int]) -> tuple[int, ...]:
    """The box contents (c_1, ..., c_n) that the chain (nu_n, ..., nu_2)
    spells: c_j = nu_j - nu_{j-1}, with nu_1 = 0 and so c_1 = 0."""
    sums = (0, *reversed(tuple(nu)))  # nu_1, nu_2, ..., nu_n
    return (0, *(b - a for a, b in zip(sums, sums[1:])))


def steps(contents: tuple[int, ...]) -> list[tuple[int, int, tuple[int, ...] | None]]:
    """(a, r, contents of s_a T) for every s_a = (a a+1) on the standard
    tableau T with box contents ``contents`` (c_1, ..., c_n): the axial
    distance r = c_{a+1} - c_a, and c_a swapped with c_{a+1} when |r| >= 2,
    else None (s_a T is not standard)."""
    out = []
    for a in range(1, len(contents)):
        r = contents[a] - contents[a - 1]
        swapped = contents[:a - 1] + (contents[a], contents[a - 1]) + contents[a + 1:]
        out.append((a, r, swapped if abs(r) >= 2 else None))
    return out


def reads_by_rows(contents: Sequence[int]) -> bool:
    """True when the standard tableau with box contents ``contents``
    (c_1, ..., c_k) holds 1..k read row by row: its contents never rise by
    2 or more.  Why: a + 1 sits up and to the right of a exactly when
    c_{a+1} - c_a >= 2, and the row tableau is the only standard tableau
    where that never happens.  A tableau with such a rise keeps it in every
    tableau that grows from it, so none of those reads by rows either."""
    return all(b - a <= 1 for a, b in zip(contents, contents[1:]))


def spectrum(words: Iterable[Sequence[int]], k: int) -> list[tuple[int, int]]:
    """Realized eigenvalues of C(k) on the span of the kets ``words``, with
    multiplicities, rarest first, ties broken by descending eigenvalue: a
    ket adds 1 at the content sum of the shape that row insertion
    (Schensted) builds from its first k letters.  This is exact because:
    - row insertion maps the words of content alpha one to one onto pairs
      (semistandard P of content alpha, standard Q) of one shape, so a
      shape lambda occurs K(lambda, alpha) f^lambda times among them;
    - restricted to S_k, an orbit of content mu is the sum over alpha of
      C(n - k; mu - alpha) copies of M^alpha, one per arrangement of the
      last n - k letters, and M^alpha holds S^lambda K(lambda, alpha) times;
    - C(k) acts on S^lambda as the content sum of lambda.
    """
    counts: dict[int, int] = {}
    for word in words:
        rows: list[list[int]] = []
        for x in word[:k]:
            for row in rows:
                i = bisect_right(row, x)
                if i == len(row):
                    row.append(x)
                    break
                row[i], x = x, row[i]
            else:
                rows.append([x])
        nu = sum(c - r for r, row in enumerate(rows) for c in range(len(row)))
        counts[nu] = counts.get(nu, 0) + 1
    return sorted(counts.items(), key=lambda pair: (pair[1], -pair[0]))


__all__ = [
    "StandardTableau",
    "addable_corners",
    "chain_contents",
    "corner_contents",
    "reads_by_rows",
    "rows_from_contents",
    "spectrum",
    "steps",
    "tableau_from_chain",
]
