import random

import pytest

from symadapt.cli import main
from symadapt.operators import apply_maps, element_maps, ket_map
from symadapt.perm import transposition

from helpers import make_basis, random_permutation, s3_distinct_basis
from oracles import (
    all_elements,
    class_operator,
    commutes,
    compose,
    identity,
    load_matrix_dump,
    mat_identity,
    mat_mul,
    matrix_of_elements,
    state_operator,
    subgroup_transpositions,
)


def test_matrix_of_single_swap_on_two_states():
    basis = make_basis("ab")
    assert matrix_of_elements([transposition(1, 2, 2)], basis) == ((0, 1), (1, 0))


def test_matrix_of_identity_is_identity():
    for cfg in ["ab", "aab", "abc"]:
        basis = make_basis(cfg)
        n = basis.degree
        assert matrix_of_elements([identity(n)], basis) == mat_identity(len(basis))


def test_class_operator_all_ones_on_aab():
    basis = make_basis("aab")
    assert class_operator(3, basis) == ((1, 1, 1), (1, 1, 1), (1, 1, 1))


def test_class_operator_2_on_aab():
    # (12) fixes aab and exchanges aba <-> baa
    basis = make_basis("aab")
    assert class_operator(2, basis) == ((1, 0, 0), (0, 0, 1), (0, 1, 0))


def test_class_operator_3_structure_on_abc():
    basis = s3_distinct_basis()
    m = class_operator(3, basis)
    assert all(m[i][i] == 0 for i in range(6))
    assert all(sum(row) == 3 for row in m)
    assert all(sum(col) == 3 for col in zip(*m))
    # first row couples phi_1 to phi_2, phi_3, phi_4 in the fixture ordering
    assert m[0] == (0, 1, 1, 1, 0, 0)


def test_class_operator_on_singleton_orbit():
    basis = make_basis("aaa")
    assert class_operator(2, basis) == ((1,),)
    assert class_operator(3, basis) == ((3,),)


def test_trace_counts_fixed_configurations():
    aab = class_operator(3, make_basis("aab"))
    abc = class_operator(3, make_basis("abc"))
    assert sum(aab[i][i] for i in range(3)) == 3
    assert sum(abc[i][i] for i in range(6)) == 0


def test_single_permutation_matrices_are_permutation_matrices():
    rng = random.Random(11)
    for cfg in ["aab", "abc", "aabb"]:
        basis = make_basis(cfg)
        for _ in range(10):
            g = random_permutation(basis.degree, rng)
            m = matrix_of_elements([g], basis)
            assert all(sum(row) == 1 for row in m)
            assert all(sum(col) == 1 for col in zip(*m))
            assert all(x in (0, 1) for row in m for x in row)


def test_representation_property_random_pairs():
    rng = random.Random(12)
    for cfg in ["aab", "abc", "aabb"]:
        basis = make_basis(cfg)
        for _ in range(20):
            p = random_permutation(basis.degree, rng)
            q = random_permutation(basis.degree, rng)
            lhs = mat_mul(matrix_of_elements([p], basis), matrix_of_elements([q], basis))
            assert lhs == matrix_of_elements([compose(p, q)], basis)


def test_class_sums_are_central_in_their_subgroup():
    for cfg in ["aab", "abc", "aabb"]:
        basis = make_basis(cfg)
        n = basis.degree
        for k in range(2, n + 1):
            ck = class_operator(k, basis)
            assert ck == tuple(zip(*ck))  # symmetric
            for g in all_elements(k):
                assert commutes(ck, matrix_of_elements([_embed(g, n)], basis))


def _embed(p, n):
    from symadapt.perm import Permutation

    images = list(p.images) + list(range(p.degree + 1, n + 1))
    return Permutation(images)


def test_chain_operators_commute():
    basis = s3_distinct_basis()
    assert commutes(class_operator(3, basis), class_operator(2, basis))
    m12 = matrix_of_elements([transposition(1, 2, 3)], basis)
    m13 = matrix_of_elements([transposition(1, 3, 3)], basis)
    assert commutes(m12, mat_identity(6))
    assert not commutes(m12, m13)


def test_state_operator_pairing_on_override_ordering():
    basis = s3_distinct_basis()
    m = state_operator([(0, 1)], basis)
    # (a b) pairs (phi_1 phi_2), (phi_3 phi_5), (phi_4 phi_6)
    expected = {0: 1, 1: 0, 2: 4, 4: 2, 3: 5, 5: 3}
    for j, i in expected.items():
        assert m[i][j] == 1
    assert sum(x for row in m for x in row) == 6


def test_state_operator_commutes_with_whole_group_action():
    basis = s3_distinct_basis()
    m = state_operator([(0, 1)], basis)
    for g in all_elements(3):
        assert commutes(m, matrix_of_elements([g], basis))


def test_state_operator_rejects_unequal_multiplicities():
    basis = make_basis("aab")
    with pytest.raises(ValueError, match="multiplicity of a is 2 but multiplicity of b is 1"):
        state_operator([(0, 1)], basis)


def test_state_operator_rejects_degenerate_pair():
    basis = make_basis("abc")
    with pytest.raises(ValueError):
        state_operator([(1, 1)], basis)
    with pytest.raises(ValueError):
        state_operator([(0, 5)], basis)


def test_state_operator_empty_list_is_zero():
    basis = make_basis("abc")
    zero = state_operator([], basis)
    assert zero == tuple(tuple(0 for _ in range(6)) for _ in range(6))


def test_commutes_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        commutes(mat_identity(2), mat_identity(3))


def test_apply_maps_matches_matrix_action():
    rng = random.Random(13)
    basis = make_basis("aabc")
    perms = subgroup_transpositions(3, 4)
    maps = element_maps(perms, basis)
    m = matrix_of_elements(perms, basis)
    for _ in range(10):
        vec = [rng.randint(-5, 5) for _ in range(len(basis))]
        assert apply_maps(maps, vec) == [sum(a * x for a, x in zip(row, vec)) for row in m]


def test_ket_map_degree_mismatch():
    with pytest.raises(ValueError):
        ket_map(identity(3), make_basis("ab"))


def test_dump_matrix_format(capsys):
    # `--verbose` writes the C(k) rows straight from the ket maps
    assert main(["eigenvalues", "--config", "ab", "--k", "2", "--verbose"]) == 0
    assert capsys.readouterr().err == "dim=2 label=C(2)\n0 1\n1 0\n"


def test_matrix_dump_roundtrip(capsys):
    basis = make_basis("aab")
    m = class_operator(3, basis)
    assert main(["eigenvalues", "--config", "aab", "--k", "3", "--verbose"]) == 0
    label, back = load_matrix_dump(capsys.readouterr().err)
    assert label == "C(3)" and back == m
    with pytest.raises(ValueError):
        load_matrix_dump("0 1\n1 0\n")
    with pytest.raises(ValueError):
        load_matrix_dump("dim=3 label=C(3)\n1 0\n")
