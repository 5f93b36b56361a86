import random
from fractions import Fraction
from math import gcd

import pytest

from symadapt.linalg import (
    NotInvariantError,
    Subspace,
    intersect,
    kernel,
    primitive,
    split,
)

from helpers import make_basis
from oracles import (
    candidate_eigenvalues,
    class_operator,
    contains,
    content_sum,
    coords,
    eigenspace,
    from_rows,
    mat_identity,
    partitions_of,
    restrict,
    row_to_int,
    rref,
    spectral_projection_columns,
)

ONES3 = ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def F(x):
    return Fraction(x)


def test_rref_identity():
    out, rank = rref(mat_identity(3))
    assert rank == 3
    assert out == tuple(tuple(F(1 if i == j else 0) for j in range(3)) for i in range(3))


def test_rref_all_ones_rank_one():
    out, rank = rref(ONES3)
    assert rank == 1
    assert out[0] == (F(1), F(1), F(1))
    assert out[1] == out[2] == (F(0), F(0), F(0))


def test_rref_zero_matrix():
    out, rank = rref(((0, 0), (0, 0)))
    assert rank == 0
    assert out == ((F(0), F(0)), (F(0), F(0)))


def test_rref_idempotent_on_random_matrices():
    rng = random.Random(21)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        once, rank1 = rref(m)
        twice, rank2 = rref(once)
        assert once == twice
        assert rank1 == rank2


def test_rref_matches_sympy_on_random_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(22)
    for _ in range(15):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        ours, rank = rref(m)
        theirs, piv = sympy.Matrix(m).rref()
        assert rank == len(piv)
        for i in range(rows):
            for j in range(cols):
                assert ours[i][j] == Fraction(str(theirs[i, j]))


def test_kernel_matches_sympy_nullspace_dimension_and_membership():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        ours = kernel(m, n)
        theirs = sympy.Matrix(m).nullspace()
        assert len(ours) == len(theirs)
        space = from_rows(n, ours)
        for vec in theirs:
            entries = [Fraction(str(x)) for x in vec]
            assert contains(space, entries)


def test_eigenspace_examples_from_all_ones():
    e3 = eigenspace(ONES3, 3)
    assert e3.dim == 1
    assert e3.rows == ((F(1), F(1), F(1)),)
    e0 = eigenspace(ONES3, 0)
    assert e0.dim == 2
    # u1 + u2 + u3 = 0 for every kernel vector
    for row in e0.rows:
        assert sum(row) == 0
    assert eigenspace(ONES3, 5).dim == 0


def test_eigenspace_vectors_satisfy_equation_exactly():
    for cfg in ["aab", "abc", "aabb", "aabc"]:
        basis = make_basis(cfg)
        for k in range(2, basis.degree + 1):
            m = class_operator(k, basis)
            for nu in candidate_eigenvalues(k):
                space = eigenspace(m, nu)
                for row in space.rows:
                    image = [sum(a * x for a, x in zip(mrow, row)) for mrow in m]
                    assert image == [nu * x for x in row]


def test_candidate_eigenvalues_small():
    assert candidate_eigenvalues(2) == (1, -1)
    assert candidate_eigenvalues(3) == (3, 0, -3)
    assert candidate_eigenvalues(4) == (6, 2, 0, -2, -6)
    assert candidate_eigenvalues(5) == (10, 5, 2, 0, -2, -5, -10)
    with pytest.raises(ValueError):
        candidate_eigenvalues(1)


def test_candidate_eigenvalues_are_content_sums():
    for k in range(2, 8):
        assert set(candidate_eigenvalues(k)) == {content_sum(lam) for lam in partitions_of(k)}


def test_candidate_eigenvalues_match_brute_force_at_k4():
    # every candidate for k = 4 is realized on the 24-dimensional orbit
    basis = make_basis("abcd")
    m = class_operator(4, basis)
    realized = {nu for nu in candidate_eigenvalues(4) if eigenspace(m, nu).dim}
    assert realized == {6, 2, 0, -2, -6}


def test_restrict_full_space_is_identity_map():
    basis = make_basis("aab")
    m = class_operator(3, basis)
    full = Subspace.full(3)
    assert restrict(m, full) == tuple(tuple(F(x) for x in row) for row in m)


def test_restrict_of_eigenspace_is_scalar():
    basis = make_basis("abc")
    m = class_operator(3, basis)
    for nu in (3, 0, -3):
        space = eigenspace(m, nu)
        block = restrict(m, space)
        assert block == tuple(
            tuple(F(nu) if i == j else F(0) for j in range(space.dim))
            for i in range(space.dim)
        )


def test_restrict_c2_to_nullspace_of_c3():
    basis = make_basis("aab")
    space = eigenspace(class_operator(3, basis), 0)
    block = restrict(class_operator(2, basis), space)
    assert len(block) == 2
    # eigenvalues of the restriction are exactly {1, -1}
    dims = {nu: len(kernel([row_to_int([x - (nu if i == j else 0) for j, x in enumerate(row)])
                            for i, row in enumerate(block)], 2))
            for nu in (1, -1)}
    assert dims == {1: 1, -1: 1}


def test_restrict_rejects_non_invariant_subspace():
    basis = make_basis("aab")
    m = class_operator(2, basis)
    crooked = from_rows(3, [(1, 1, 0)])
    with pytest.raises(NotInvariantError):
        restrict(m, crooked)


def test_restrict_rejects_non_integer_matrix():
    space = from_rows(2, [(1, 1)])
    with pytest.raises(ValueError, match="integer matrix"):
        half = Fraction(1, 2)
        restrict(((half, half), (half, half)), space)


def assert_primitive_rref(rows):
    pivots = []
    for row in rows:
        assert all(type(x) is int for x in row)
        p = next(t for t, x in enumerate(row) if x)
        assert row[p] > 0
        assert gcd(*row) == 1
        pivots.append(p)
    assert pivots == sorted(set(pivots))
    for i, row in enumerate(rows):
        assert all(row[p] == 0 for j, p in enumerate(pivots) if j != i)


def test_kernel_and_from_rows_give_primitive_rref_rows():
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
             for _ in range(rng.randint(1, 5))]
        assert_primitive_rref(kernel([row_to_int(row) for row in m], n))
        assert_primitive_rref(from_rows(n, m).rows)


def test_from_rows_of_scaled_shuffled_spanning_set_is_the_same_subspace():
    rng = random.Random(25)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, 5))]
        space = from_rows(n, m)
        scales = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in m]
        spanning = [[s * x for x in row] for s, row in zip(scales, m)]
        # add redundant combinations, then shuffle
        for _ in range(2):
            a, b = rng.choice(m), rng.choice(m)
            spanning.append([x - 2 * y for x, y in zip(a, b)])
        rng.shuffle(spanning)
        other = from_rows(n, spanning)
        assert other == space
        assert hash(other) == hash(space)


def test_intersect_examples():
    basis = make_basis("aab")
    e30 = eigenspace(class_operator(3, basis), 0)
    e2m = eigenspace(class_operator(2, basis), -1)
    both = intersect(e30, e2m)
    assert both.rows == ((F(0), F(1), F(-1)),)
    full = Subspace.full(3)
    assert intersect(e30, full) == e30
    comp = from_rows(3, kernel(e30.rows, 3))
    assert intersect(e30, comp).dim == 0
    # the kernel of no rows is the full space, so neither a full nor a
    # zero-dimensional operand needs a branch of its own
    for n in (1, 3, 5):
        assert kernel((), n) == Subspace.full(n).rows
        full = Subspace.full(n)
        zero = Subspace.from_rows(n, [])
        assert intersect(full, full) == full
        assert intersect(full, zero) == zero
        assert intersect(zero, full) == zero
    assert intersect(e30, Subspace.from_rows(3, [])).dim == 0


def test_intersect_rejects_ambient_mismatch():
    with pytest.raises(ValueError):
        intersect(Subspace.full(2), Subspace.full(3))


def test_eigenspace_dimension_sums_cover_orbits():
    for cfg in ["ab", "aab", "abc", "aabb", "aabc", "abcd"]:
        basis = make_basis(cfg)
        for k in range(2, basis.degree + 1):
            m = class_operator(k, basis)
            total = sum(eigenspace(m, nu).dim for nu in candidate_eigenvalues(k))
            assert total == len(basis)


def test_eigenspaces_equal_spectral_projection_spans():
    # kernel extraction, and split on the full space, against the
    # independent projection-product oracle
    for cfg in ["ab", "aaa", "aab", "abc", "aabb", "aabc", "abcd"]:
        basis = make_basis(cfg)
        if len(basis) > 24:
            continue
        full = Subspace.full(len(basis))
        for k in range(2, basis.degree + 1):
            m = class_operator(k, basis)
            cands = candidate_eigenvalues(k)
            pieces, remainder = split(
                full, lambda v: [sum(a * x for a, x in zip(row, v)) for row in m], cands)
            # the spectrum of C(k) lies in the candidates, so nothing remains
            assert remainder is None
            for nu, piece in zip(cands, pieces, strict=True):
                cols = spectral_projection_columns(m, nu, cands)
                assert from_rows(len(basis), cols) == eigenspace(m, nu) == piece


def test_subspace_coords_and_contains():
    space = from_rows(3, [(1, 0, -1), (0, 1, -1)])
    assert coords(space, (1, 1, -2)) == (F(1), F(1))
    assert contains(space, (2, -1, -1))
    assert not contains(space, (1, 0, 0))
    with pytest.raises(ValueError):
        coords(space, (1, 0))


def test_restrict_then_decompose_commutes_with_decompose_then_intersect():
    for cfg in ["aab", "abc", "aabb"]:
        basis = make_basis(cfg)
        n = basis.degree
        c_n = class_operator(n, basis)
        c_2 = class_operator(2, basis)
        for nu in candidate_eigenvalues(n):
            outer = eigenspace(c_n, nu)
            if outer.dim == 0:
                continue
            block = restrict(c_2, outer)
            for m in candidate_eigenvalues(2):
                via_restrict = [
                    tuple(sum(c * x for c, x in zip(xs, row) if c) for row in zip(*outer.rows))
                    for xs in kernel(
                        [row_to_int([x - (m if i == j else 0) for j, x in enumerate(rw)])
                         for i, rw in enumerate(block)],
                        outer.dim,
                    )
                ]
                lifted = from_rows(len(basis), via_restrict)
                direct = intersect(outer, eigenspace(c_2, m))
                assert lifted == direct


def test_primitive_divides_by_the_gcd_and_signs_the_first_nonzero_entry():
    assert primitive((0, -2, 4, 6)) == (0, 1, -2, -3)
    assert primitive([3, -5]) == (3, -5)
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        primitive((0, 0, 0))


def test_from_rows_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError):
        Subspace.from_rows(3, [(1, 0)])
    assert Subspace.from_rows(3, [(2, 0, 4), (0, 0, 0)]).rows == ((1, 0, 2),)
    assert Subspace.from_rows(3, []).dim == 0
    assert Subspace.from_rows(3, [(0, 0, 0), (0, 0, 0)]).dim == 0
