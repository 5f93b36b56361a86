import random

import pytest

from symadapt.perm import Permutation, cycle_string, transposition

from helpers import random_permutation
from oracles import compose, identity, inverse, parse_cycles, subgroup_transpositions


def test_identity_fixes_everything():
    assert identity(3).images == (1, 2, 3)
    assert identity(1).images == (1,)
    p = Permutation((3, 1, 2))
    assert compose(identity(3), p) == p
    assert compose(p, identity(3)) == p


def test_identity_rejects_degree_zero():
    with pytest.raises(ValueError):
        identity(0)


def test_constructor_rejects_non_bijections():
    for bad in [(1, 1, 3), (0, 1, 2), (2, 3), ()]:
        with pytest.raises(ValueError):
            Permutation(bad)


def test_transposition_definition():
    assert transposition(1, 2, 3).images == (2, 1, 3)
    assert transposition(1, 3, 3).images == (3, 2, 1)
    t = transposition(2, 3, 3)
    assert compose(t, t) == identity(3)


def test_transposition_rejects_bad_points():
    with pytest.raises(ValueError):
        transposition(2, 2, 3)
    with pytest.raises(ValueError):
        transposition(0, 1, 3)
    with pytest.raises(ValueError):
        transposition(1, 4, 3)


def test_compose_right_factor_first():
    # (12) after (23) is the 3-cycle 1 -> 2 -> 3 -> 1
    r = compose(transposition(1, 2, 3), transposition(2, 3, 3))
    assert r.images == (2, 3, 1)
    assert r(1) == 2 and r(2) == 3 and r(3) == 1


def test_compose_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_inverse():
    assert inverse(Permutation((2, 1, 3))) == Permutation((2, 1, 3))
    assert inverse(identity(4)) == identity(4)
    three_cycle = Permutation((2, 3, 1))  # 1 -> 2 -> 3 -> 1
    assert inverse(three_cycle) == Permutation((3, 1, 2))
    for p in [three_cycle, transposition(1, 4, 5)]:
        assert compose(p, inverse(p)) == identity(p.degree)


def test_subgroup_transpositions_small():
    assert subgroup_transpositions(2, 3) == [transposition(1, 2, 3)]
    s3 = subgroup_transpositions(3, 3)
    assert len(s3) == 3
    assert set(s3) == {
        transposition(1, 2, 3),
        transposition(1, 3, 3),
        transposition(2, 3, 3),
    }
    assert len(subgroup_transpositions(4, 4)) == 6


def test_subgroup_transpositions_rejects_bad_degrees():
    with pytest.raises(ValueError):
        subgroup_transpositions(1, 3)
    with pytest.raises(ValueError):
        subgroup_transpositions(4, 3)


def test_subgroup_transpositions_fix_high_points():
    for k in range(2, 5):
        perms = subgroup_transpositions(k, 6)
        assert len(perms) == k * (k - 1) // 2
        assert len(set(perms)) == len(perms)
        for p in perms:
            assert compose(p, p) == identity(6)
            for point in range(k + 1, 7):
                assert p(point) == point


def test_composition_associative_on_random_triples():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(1, 7)
        p, q, r = (random_permutation(n, rng) for _ in range(3))
        assert compose(compose(p, q), r) == compose(p, compose(q, r))


def test_cycle_string():
    assert cycle_string(identity(4)) == "()"
    assert cycle_string(Permutation((2, 1, 4, 3))) == "(1 2)(3 4)"
    assert cycle_string(Permutation((2, 3, 1))) == "(1 2 3)"


def test_parse_cycles():
    assert parse_cycles("(1 2)(3 4)", 4) == Permutation((2, 1, 4, 3))
    assert parse_cycles("()", 3) == identity(3)
    assert parse_cycles("(1 2 3)", 3) == Permutation((2, 3, 1))
    assert parse_cycles(" ( 1 2 ) ", 2) == transposition(1, 2, 2)


def test_parse_cycles_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 8)
        p = random_permutation(n, rng)
        assert parse_cycles(cycle_string(p), n) == p


def test_parse_cycles_rejects_garbage():
    with pytest.raises(ValueError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 2)(2 3)", 3)  # not disjoint
    with pytest.raises(ValueError):
        parse_cycles("(1 4)", 3)
    with pytest.raises(ValueError):
        parse_cycles("1 2", 3)
    with pytest.raises(ValueError):
        parse_cycles("(1 x)", 3)
