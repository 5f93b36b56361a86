"""Exact linear algebra over the integers: kernels, spans, intersections,
blocks of operators on invariant subspaces, and the split of a subspace
into their integer eigenspaces.

A Subspace holds its basis as integer rows in reduced row echelon form,
each in primitive() form (gcd 1, first nonzero entry, its pivot,
positive) and zero in the other rows' pivot columns.  That form is
canonical, so subspace equality is plain structural equality.
Elimination runs fraction-free over Python integers, and primitive()
divides each combined row by its gcd.  kernel() and Subspace.from_rows
each reach the canonical form in one elimination (see there); split()
solves eigenspaces and the orthogonal remainder as kernels in a
subspace's coordinates and lifts them without another.
"""
from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

IntRow = tuple[int, ...]
Matrix = Sequence[Sequence[int]]


class NotInvariantError(ValueError):
    """An operator mapped a subspace outside itself."""


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def primitive(row: Sequence[int]) -> IntRow:
    """``row`` divided by the gcd of its entries and signed so that its
    first nonzero entry is positive; ValueError for the zero row."""
    g = gcd(*row)
    if not g:
        raise ValueError("cannot normalize the zero vector")
    for lead in row:
        if lead:
            break
    if lead < 0:
        g = -g
    return tuple(row) if g == 1 else tuple([a // g for a in row])


def _jordan(rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free Gauss-Jordan elimination over the integers.

    Returns the reduced rows (pivot rows first, in pivot-column order,
    zero rows last) and the list of pivot columns.  Each nonzero combined
    row is put in primitive() form; kernel() and Subspace.from_rows read
    only its ratios.  Row i has some nonzero integer at pivots[i] and
    zeros in every other pivot column.
    """
    nrows = len(rows)
    if nrows == 0:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = r
        while pr < nrows and not rows[pr][c]:
            pr += 1
        if pr == nrows:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if not f:
                continue
            combined = [piv * a - f * b for a, b in zip(rows[i], prow)]
            rows[i] = primitive(combined) if any(combined) else combined
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def kernel(matrix: Matrix, ncols: int | None = None) -> tuple[IntRow, ...]:
    """A canonical basis of the right nullspace of the integer ``matrix``:
    primitive integer rows in reduced row echelon form, each with a
    positive pivot.

    One elimination gives that form because it runs with the columns
    reversed: each pivot row is then nonzero only at its pivot and at free
    columns to its left, so the solution for free column f is zero before
    f and at every other free column.  Divided by their gcds, the
    solutions are the RREF basis, with the free columns as pivots.

    ``ncols`` must be given when the matrix has no rows.
    """
    rows = [list(reversed(r)) for r in matrix]
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("ncols required for a matrix with no rows")
    red, pivots = _jordan(rows)
    basis = []
    # reversed column f is column ncols - 1 - f: walk the free ones in original order
    for f in sorted(set(range(ncols)).difference(pivots), reverse=True):
        # x_f = scale and x_p = -row[f] * scale / row[p] solves every pivot row
        hits = [(row, p) for row, p in zip(red, pivots) if row[f]]
        scale = lcm(*(row[p] for row, p in hits))
        v = [0] * ncols
        v[f] = scale
        for row, p in hits:
            v[p] = -row[f] * (scale // row[p])
        v.reverse()
        basis.append(primitive(v))
    return tuple(basis)


class Subspace:
    """A subspace of Q^ambient held as a canonical integer row basis.

    Rows are primitive integer rows (gcd 1, positive pivot entry) in
    reduced row echelon form, with strictly increasing pivot columns, so
    two Subspace objects are equal exactly when they describe the same
    subspace.  The rows themselves are the basis that coordinates and
    restricted blocks refer to.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: tuple[IntRow, ...], pivots: tuple[int, ...]):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @classmethod
    def from_rows(cls, ambient: int, rows: Matrix) -> "Subspace":
        """Span of arbitrary integer rows, canonicalized by one elimination
        of the rows themselves: zero rows drop out, and each pivot row,
        whose first nonzero entry is its pivot, is put in primitive() form."""
        for row in rows:
            if len(row) != ambient:
                raise ValueError(f"row length {len(row)} != ambient {ambient}")
        red, pivots = _jordan([list(row) for row in rows])
        return cls(ambient, tuple(primitive(row) for row in red[:len(pivots)]), tuple(pivots))

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        rows = tuple(
            tuple(1 if j == i else 0 for j in range(ambient)) for i in range(ambient)
        )
        return cls(ambient, rows, tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def leads(self) -> tuple[int, ...]:
        """The pivot entry of each basis row."""
        return tuple(row[p] for row, p in zip(self.rows, self.pivots))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(ambient={self.ambient}, dim={self.dim})"


def restrict_apply(
    apply_int: Callable[[Sequence[int]], list[int]], space: Subspace
) -> tuple[IntRow, ...]:
    """Integer block A of a linear map on an invariant subspace.

    ``apply_int`` must be the integer-preserving action of the operator M
    on ambient coordinate vectors.  With basis rows z_i, pivots p_i and
    pivot entries l_i (``space.leads``), write M z_j = sum_i B[i][j] z_i.
    Every other basis row is zero in column p_i, so
    A[i][j] = (M z_j)[p_i] = l_i * B[i][j]: the matrix of M in the row
    basis is diag(leads)^-1 A, and A is read off without any division.

    Invariance is checked exactly over the integers, with L = lcm(leads):
    L * M z_j must equal sum_i A[i][j] * (L / l_i) * z_i.  Raises
    NotInvariantError when it does not.
    """
    rows = space.rows
    pivots = space.pivots
    leads = space.leads
    big = lcm(*leads)
    # (column, (L / l_i) * entry) over the nonzero entries of each row:
    # chain eigenspace rows are mostly zeros
    support = [
        [(t, (big // lead) * x) for t, x in enumerate(row) if x]
        for lead, row in zip(leads, rows)
    ]
    cols: list[list[int]] = []
    for row in rows:
        image = apply_int(row)
        col = [image[p] for p in pivots]
        z = [big * x for x in image]
        for a, nonzero in zip(col, support):
            if a:
                for t, x in nonzero:
                    z[t] -= a * x
        if any(z):
            raise NotInvariantError("the operator does not leave the subspace invariant")
        cols.append(col)
    return tuple(zip(*cols))


def eigenrows_of_block(
    block: Sequence[Sequence[int]], leads: Sequence[int], nu: int
) -> tuple[IntRow, ...]:
    """Kernel rows of (A - nu*diag(leads)) for an integer block A read by
    restrict_apply: the coordinates, in the same row basis, of the
    nu-eigenvectors of the restricted map diag(leads)^-1 A."""
    rows = []
    for i, (row, lead) in enumerate(zip(block, leads)):
        shifted = list(row)
        shifted[i] -= nu * lead
        rows.append(shifted)
    return kernel(rows, len(rows))


def split(
    space: Subspace, apply_int: Callable[[Sequence[int]], list[int]], candidates: Sequence[int]
) -> tuple[list[Subspace], Subspace | None]:
    """One operator's eigenspaces in the invariant subspace ``space``: a
    Subspace per candidate eigenvalue, in order (zero-dimensional for a
    candidate that is no eigenvalue), and the part of ``space`` orthogonal
    to all of them, or None when they fill (or overfill) it.  The operator
    is its integer action ``apply_int``, whose block restrict_apply reads
    (NotInvariantError when ``space`` is not invariant).

    Both are kernels in ``space``'s coordinates.  Coordinate rows and
    ``space``'s rows are RREF with positive pivots, so a coordinate row with
    pivot q lifts to a row with positive pivot space.pivots[q], zero in the
    other lifted pivot columns: primitive() finishes the lift.  Coordinates
    x lie in the remainder when sum_i x_i (z_i . c) = 0 over the rows z_i of
    ``space``, for every eigenspace row c.
    """
    block = restrict_apply(apply_int, space)
    # (column, entry) over the nonzero entries of each row, built once
    support = [[(t, x) for t, x in enumerate(row) if x] for row in space.rows]

    def lift(coord_rows: tuple[IntRow, ...]) -> Subspace:
        out = []
        for crow in coord_rows:
            acc = [0] * space.ambient
            for c, nonzero in zip(crow, support):
                if c:
                    for t, x in nonzero:
                        acc[t] += c * x
            out.append(primitive(acc))
        pivots = tuple(space.pivots[next(q for q, c in enumerate(crow) if c)] for crow in coord_rows)
        return Subspace(space.ambient, tuple(out), pivots)

    leads = space.leads
    pieces = [lift(eigenrows_of_block(block, leads, c)) for c in candidates]
    if sum(piece.dim for piece in pieces) >= space.dim:
        return pieces, None
    gram = [[dot(z, c) for z in space.rows] for piece in pieces for c in piece.rows]
    return pieces, lift(kernel(gram, space.dim))


def intersect(s1: Subspace, s2: Subspace) -> Subspace:
    """Exact intersection, computed through orthogonal complements:
    (S1 ∩ S2) = (S1⊥ + S2⊥)⊥ for the standard bilinear form on Q^n."""
    if s1.ambient != s2.ambient:
        raise ValueError(f"ambient mismatch: {s1.ambient} != {s2.ambient}")
    n = s1.ambient
    return Subspace.from_rows(n, kernel(kernel(s1.rows, n) + kernel(s2.rows, n), n))


__all__ = [
    "NotInvariantError",
    "Subspace",
    "dot",
    "primitive",
    "kernel",
    "restrict_apply",
    "eigenrows_of_block",
    "split",
    "intersect",
]
