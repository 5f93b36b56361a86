import random
import re
from collections import Counter
from dataclasses import fields, replace

import pytest

from symadapt import solver
from symadapt.linalg import NotInvariantError, Subspace, dot, intersect, kernel
from symadapt.operators import apply_maps, element_maps, state_maps
from symadapt.solver import (
    CGTable,
    InternalCheckError,
    LabeledVector,
    block_structure_check,
    default_state_ops,
    normalize,
    resolve,
    verify_table,
)
from symadapt.young import spectrum, tableau_from_chain

from helpers import make_basis, random_permutation, s3_distinct_basis
from oracles import (
    chain_reference,
    from_rows,
    kostka,
    partitions_of,
    spectrum_reference,
    standard_tableaux,
    subgroup_transpositions,
    trial_state_ops,
)


def chains_to_vectors(table):
    return {
        (v.chain.nu, v.chain.state_labels): (v.coeffs, v.norm_sq)
        for i, v in enumerate(table.vectors)
        if i not in table.unlabeled
    }


def test_resolve_two_state_golden():
    table = resolve(make_basis("ab"))
    got = chains_to_vectors(table)
    assert got == {
        ((1,), ()): ((1, 1), 2),
        ((-1,), ()): ((1, -1), 2),
    }
    assert table.complete


def test_resolve_aab_golden():
    table = resolve(make_basis("aab"))
    assert table.complete
    assert [(v.chain.nu, v.coeffs, v.norm_sq, v.tableau.rows) for v in table.vectors] == [
        ((3, 1), (1, 1, 1), 3, ((1, 2, 3),)),
        ((0, 1), (2, -1, -1), 6, ((1, 2), (3,))),
        ((0, -1), (0, 1, -1), 2, ((1, 3), (2,))),
    ]


def test_resolve_distinct_states_golden_with_state_operator():
    table = resolve(s3_distinct_basis(), [[(0, 1)]])
    assert table.complete
    got = chains_to_vectors(table)
    assert got == {
        ((3, 1), (1,)): ((1, 1, 1, 1, 1, 1), 6),
        ((0, 1), (1,)): ((2, 2, -1, -1, -1, -1), 12),
        ((0, 1), (-1,)): ((0, 0, 1, -1, -1, 1), 4),
        ((0, -1), (1,)): ((0, 0, 1, -1, 1, -1), 4),
        ((0, -1), (-1,)): ((2, -2, 1, 1, -1, -1), 12),
        ((-3, -1), (-1,)): ((1, -1, -1, -1, 1, 1), 6),
    }


def test_resolve_singleton_orbit():
    table = resolve(make_basis("aaa"))
    assert len(table.vectors) == 1
    v = table.vectors[0]
    assert v.chain.nu == (3, 1)
    assert v.coeffs == (1,) and v.norm_sq == 1
    assert v.tableau.rows == ((1, 2, 3),)


def test_resolve_degree_one():
    table = resolve(make_basis("a"))
    v = table.vectors[0]
    assert v.chain.nu == ()
    assert v.tableau.rows == ((1,),)
    assert table.complete


def test_normalize_examples():
    assert normalize((-2, 1, 1)) == ((2, -1, -1), 6)
    assert normalize((0, 1, -1)) == ((0, 1, -1), 2)
    with pytest.raises(ValueError):
        normalize((0, 0, 0))


def test_state_labels_attach_to_nondegenerate_leaves_too():
    # a user-supplied operator labels every vector, even chains that were
    # already one-dimensional
    table = resolve(make_basis("ab"), [[(0, 1)]])
    got = chains_to_vectors(table)
    assert got[((1,), (1,))] == ((1, 1), 2)
    assert got[((-1,), (-1,))] == ((1, -1), 2)


def test_orbit_escaping_state_op_is_refused_before_the_chain(monkeypatch):
    def chain(basis, rows_only=False):
        raise AssertionError("the chain ran before the state operators were checked")

    monkeypatch.setattr(solver, "_chain", chain)
    with pytest.raises(ValueError, match="does not preserve the orbit"):
        resolve(make_basis("aab"), [[(0, 1)]])


@pytest.mark.parametrize("pair", [
    pytest.param((0, 1, 2), id="three-indices"),
    pytest.param((0,), id="one-index"),
    pytest.param(("a", "b"), id="labels-not-indices"),
    pytest.param((0, 1.0), id="float-index"),
    pytest.param((True, 2), id="bool-index"),
])
def test_a_malformed_state_pair_is_refused_with_value_error(pair):
    message = f"state transposition {pair!r} is not a pair of alphabet indices"
    with pytest.raises(ValueError, match=re.escape(message)):
        resolve(make_basis("abc"), [[pair]])
    table = resolve(make_basis("abc"))
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(table, state_ops=((pair,),))


def test_an_empty_state_operator_is_refused():
    # it would record () as applied, label every vector 0, and keep the
    # default swaps from running
    with pytest.raises(ValueError, match="a state operator needs at least one state transposition"):
        resolve(make_basis("abc"), [[]])


def test_default_state_ops_policy():
    # equal-multiplicity swaps in label order, less those that share a state
    # with an earlier one
    assert default_state_ops(make_basis("abc")) == [((0, 1),)]
    assert default_state_ops(make_basis("aabc")) == [((1, 2),)]
    assert default_state_ops(make_basis("aabb")) == [((0, 1),)]
    assert default_state_ops(make_basis("aaa")) == []
    assert default_state_ops(make_basis("abcd")) == [((0, 1),), ((2, 3),)]
    assert default_state_ops(make_basis("abcde")) == [((0, 1),), ((2, 3),)]
    assert default_state_ops(make_basis("aabbcd")) == [((0, 1),), ((2, 3),)]
    # the order follows the labels, not the alphabet indices: (b a), (d c)
    assert default_state_ops(make_basis("abcd", alphabet="dcba")) == [((2, 3),), ((0, 1),)]


@pytest.mark.parametrize("pattern", [p for n in range(1, 7) for p in partitions_of(n)])
def test_disjoint_default_swaps_give_the_trial_tables(pattern, monkeypatch):
    # every equal-multiplicity swap tried in turn applies only disjoint ones,
    # so the disjoint list gives the same table and skips nothing
    basis = make_basis("".join(c * m for c, m in zip("abcdef", pattern)))
    shipped = resolve(basis)
    monkeypatch.setattr(solver, "default_state_ops", trial_state_ops)
    trial = resolve(basis)
    assert shipped.vectors == trial.vectors
    assert shipped.state_ops == trial.state_ops
    assert shipped.skipped_state_ops == ()


def test_auto_lift_stops_once_degeneracy_clears():
    # the regular six-dimensional orbit resolves after the single swap (a b)
    table = resolve(make_basis("abc"))
    assert table.complete
    assert table.state_ops == (((0, 1),),)
    assert table.skipped_state_ops == ()


def test_non_invariant_user_operator_is_skipped():
    # after (a b), the swap (a c) is not invariant on the refined leaves
    basis = make_basis("abcd")
    table = resolve(basis, [[(0, 1)], [(0, 2)], [(2, 3)]])
    assert table.state_ops == (((0, 1),), ((2, 3),))
    assert table.skipped_state_ops == (((0, 2),),)
    assert table.complete


def test_tableau_is_decoded_from_the_chain():
    # vectors 1 and 3 of aabc have one shape but different tableaux; with
    # the tableau read off chain.nu, no table can pair a chain with the
    # other vector's tableau
    vecs = resolve(make_basis("aabc")).vectors
    assert vecs[1].tableau.shape == vecs[3].tableau.shape
    assert vecs[1].tableau != vecs[3].tableau
    with pytest.raises(TypeError):
        replace(vecs[1], tableau=vecs[3].tableau)
    for cfg, ops in [("aabc", None), ("abcde", None), ("abcd", [[(0, 1), (1, 2), (2, 3)]])]:
        for v in resolve(make_basis(cfg), ops).vectors:
            assert v.tableau == tableau_from_chain(v.chain.nu)


def test_a_vector_stores_no_tag():
    # whether a vector is labeled is read off the table's records
    v = resolve(make_basis("ab")).vectors[0]
    assert [f.name for f in fields(v)] == ["chain", "coeffs", "norm_sq"]
    with pytest.raises(TypeError):
        replace(v, tag=None)


# a subset of words x state-operator lists: the default policy, single and
# chained swaps, a skipped operator, and the path sum whose irrational
# remainder leaves keep their parent's shorter record
SWEEP_OPS = [
    None,
    [[(0, 1)]],
    [[(0, 1), (1, 2), (2, 3)]],
    [[(0, 1)], [(0, 1), (0, 2), (1, 2)]],
    [[(0, 2)]],
    [[(0, 1), (2, 3)], [(0, 2)]],
    [[(1, 2)], [(0, 1)]],
]
SWEEP = [
    pytest.param(word, ops, id=f"{word}-{k}")
    for word in ["a", "ab", "aab", "abc", "aabc", "abcd", "aabb", "aabbc", "aaabbc", "abcde", "aabbcc"]
    for k, ops in enumerate(SWEEP_OPS)
    # every operator must swap two states of equal multiplicity in the word
    if ops is None or all(
        t < len(set(word)) and word.count("abcde"[s]) == word.count("abcde"[t])
        for op in ops for s, t in op
    )
]


@pytest.mark.parametrize("word, ops", SWEEP)
def test_a_vector_is_unlabeled_exactly_when_its_record_is_shared(word, ops, monkeypatch):
    # resolve emits one orthogonalized row per vector of a leaf; a vector
    # whose leaf has more than one dimension is a degeneracy left unlifted
    leaf_dims = []
    real = solver._gram_schmidt

    def recorded(rows):
        leaf_dims.extend([len(rows)] * len(rows))
        return real(rows)

    monkeypatch.setattr(solver, "_gram_schmidt", recorded)
    table = resolve(make_basis(word), ops)
    records = Counter(v.chain for v in table.vectors)
    assert len(leaf_dims) == len(table.vectors)
    for i, (v, dim) in enumerate(zip(table.vectors, leaf_dims)):
        assert (i in table.unlabeled) == (records[v.chain] > 1) == (dim > 1)
    assert table.complete == (not table.unlabeled)


def test_resolve_deterministic():
    for cfg in ["aab", "abc", "aabc"]:
        a = resolve(make_basis(cfg))
        b = resolve(make_basis(cfg))
        assert a == b


def test_pruning_a_branching_corner_trips_the_dimension_check(monkeypatch):
    # the C(k) candidates come from the addable corners of the leaf's shape;
    # dropping one corner loses an eigenspace, which the dimension count catches
    real = solver.addable_corners
    monkeypatch.setattr(solver, "addable_corners", lambda shape: real(shape)[:-1])
    with pytest.raises(InternalCheckError, match="eigenspace dimensions sum"):
        resolve(make_basis("aab"))


def test_orbit_escaping_state_operator_raises():
    with pytest.raises(ValueError, match="does not preserve the orbit"):
        resolve(make_basis("aab"), [[(0, 1)]])


def test_resolved_tables_verify():
    for cfg, ops in [("ab", None), ("aab", None), ("abc", [[(0, 1)]]), ("aabb", None)]:
        report = verify_table(resolve(make_basis(cfg), ops))
        assert report.passed
        assert all(c.status == "PASS" for c in report.checks)


def test_verify_catches_corrupted_coefficient():
    table = resolve(make_basis("aab"))
    v = table.vectors[1]
    broken_coeffs = (v.coeffs[0] + 1,) + v.coeffs[1:]
    broken = CGTable(
        basis=table.basis,
        vectors=(
            table.vectors[0],
            LabeledVector(v.chain, broken_coeffs, sum(c * c for c in broken_coeffs)),
            table.vectors[2],
        ),
        state_ops=table.state_ops,
        skipped_state_ops=table.skipped_state_ops,
    )
    report = verify_table(broken)
    assert not report.passed
    failed = {c.name for c in report.checks if c.status == "FAIL"}
    # the chain's eigen-equations are certified by the Young relations
    assert "young_orthogonal_form" in failed


def test_verify_warns_on_honest_incomplete_table():
    table = resolve(make_basis("abcde"))
    assert not table.complete
    report = verify_table(table)
    assert report.passed
    by_name = {c.name: c.status for c in report.checks}
    assert by_name["completeness"] == "WARN"
    assert all(status == "PASS" for name, status in by_name.items() if name != "completeness")


def test_multiplicity_structure_matches_kostka_numbers():
    # the number of vectors carrying a given standard tableau equals the
    # semistandard-filling count of its shape, independent of the tableau
    for cfg in ["aab", "abc", "aabb", "aabc", "abcd", "aabbc"]:
        basis = make_basis(cfg)
        n = basis.degree
        content = tuple(sorted(basis.multiplicities(), reverse=True))
        table = resolve(basis)
        counts = Counter(v.tableau.rows for v in table.vectors)
        realized_shapes = {tab.shape for tab in (v.tableau for v in table.vectors)}
        expected_shapes = {lam for lam in partitions_of(n) if kostka(lam, content)}
        assert realized_shapes == expected_shapes
        expected_tableau_count = sum(
            len(standard_tableaux(lam)) for lam in expected_shapes
        )
        assert len(counts) == expected_tableau_count
        for rows, mult in counts.items():
            lam = tuple(len(r) for r in rows)
            assert mult == kostka(lam, content)


def test_repeated_state_orbit_realized_shapes():
    # the three-ket module splits into the full row shape plus one hook
    # shape; the column shape never occurs
    table = resolve(make_basis("aab"))
    tableau_counts = Counter(v.tableau.rows for v in table.vectors)
    assert set(tableau_counts.values()) == {1}
    assert {tuple(len(r) for r in rows) for rows in tableau_counts} == {(3,), (2, 1)}


def test_chain_eigenvalue_spectrum_on_distinct_states():
    # C(3) on the six-dimensional orbit has eigenvalue multiset {3, -3, 0x4}
    table = resolve(make_basis("abc"))
    multiset = Counter(v.chain.nu[0] for v in table.vectors)
    assert multiset == Counter({3: 1, -3: 1, 0: 4})


def test_block_structure_small_and_large():
    rng = random.Random(99)
    for cfg, ops in [("aab", None), ("abc", [[(0, 1)]]), ("aabb", None), ("abcd", None)]:
        table = resolve(make_basis(cfg), ops)
        elements = [random_permutation(table.basis.degree, rng) for _ in range(10)]
        assert block_structure_check(table, elements).status == "PASS"


def test_multi_transposition_operator_with_irrational_remainder():
    # the path sum (a b)+(b c)+(c d) has irrational eigenvalues on parts of
    # the regular orbit; those leaves must come back flagged, not mislabeled
    basis = make_basis("abcd")
    table = resolve(basis, [[(0, 1), (1, 2), (2, 3)]])
    assert not table.complete
    labeled = [v for i, v in enumerate(table.vectors) if i not in table.unlabeled]
    labels = {v.chain.state_labels for v in labeled}
    assert labels and all(len(rec) == 1 for rec in labels)
    remainder = [table.vectors[i] for i in table.unlabeled]
    # remainder leaves stop accumulating labels where the spectrum left Z
    assert remainder and all(len(v.chain.state_labels) <= 1 for v in remainder)
    report = verify_table(table)
    assert report.passed
    # labeled vectors really are eigenvectors of the summed operator
    from symadapt.operators import state_maps

    maps = state_maps([(0, 1), (1, 2), (2, 3)], basis)
    for v in labeled:
        lab = v.chain.state_labels[0]
        assert apply_maps(maps, v.coeffs) == [lab * c for c in v.coeffs]


def test_leaves_are_canonical_and_remainders_match_intersect():
    # split lifts its rows without re-eliminating them, and solves the
    # remainder in leaf coordinates; both must give the canonical rows
    # that ambient elimination gives
    basis = make_basis("abcd")
    chain = chain_reference(basis)
    maps = state_maps([(0, 1), (1, 2), (2, 3)], basis)
    leaves = solver._refine(chain, maps, "path", lambda leaf: range(3, -4, -1))
    for leaf in leaves:
        space = leaf.space
        canon = from_rows(space.ambient, space.rows)
        assert (space.rows, space.pivots) == (canon.rows, canon.pivots)
    remainders = [leaf for leaf in leaves if leaf.remainder]
    assert remainders
    d = len(basis)
    for rem in remainders:
        parent = next(leaf for leaf in chain if leaf.labels == rem.labels)
        rows = [
            row
            for leaf in leaves
            if not leaf.remainder and leaf.labels[:-1] == parent.labels
            for row in leaf.space.rows
        ]
        want = intersect(parent.space, Subspace.from_rows(d, kernel(rows, d)))
        assert rem.space.rows == want.rows
        # the remainder is orthogonal to every eigenspace piece, and the
        # pieces and the remainder fill the parent leaf
        assert all(dot(z, c) == 0 for z in rem.space.rows for c in rows)
        assert rem.space.dim + len(rows) == parent.space.dim


def test_refine_leaves_the_partition_as_it_was_when_a_later_leaf_fails():
    # the swap of two kets keeps the line through (1, 1) and splits it; it
    # moves (1, 0) out of its line, so the second leaf raises
    leaves = [solver._Leaf(from_rows(2, [row]), (7,)) for row in [(1, 1), (1, 0)]]

    def state():
        return [(id(leaf), leaf.space.rows, leaf.labels, leaf.remainder) for leaf in leaves]

    before = state()
    first = solver._refine(leaves[:1], [(1, 0)], "swap", lambda leaf: (1, -1))
    assert [leaf.labels for leaf in first] == [(7, 1)]
    with pytest.raises(NotInvariantError):
        solver._refine(leaves, [(1, 0)], "swap", lambda leaf: (1, -1))
    assert state() == before


def test_sum_operator_labels_beyond_plus_minus_one():
    # (a b)+(a c)+(b c) is the full state-side class sum; on the regular
    # orbit it labels the trivial and sign shapes with +3 and -3
    table = resolve(make_basis("abc"), [[(0, 1), (0, 2), (1, 2)]])
    by_nu = {}
    for v in table.vectors:
        by_nu.setdefault(v.chain.nu, set()).add(v.chain.state_labels)
    assert by_nu[(3, 1)] == {(3,)}
    assert by_nu[(-3, -1)] == {(-3,)}
    assert by_nu[(0, 1)] == {(0,)}


def test_vectors_satisfy_every_chain_equation():
    for cfg in ["aab", "abc", "aabb", "aabc"]:
        basis = make_basis(cfg)
        n = basis.degree
        table = resolve(basis)
        for k in range(2, n + 1):
            maps = element_maps(subgroup_transpositions(k, n), basis)
            for v in table.vectors:
                nu_k = v.chain.nu[n - k]
                assert apply_maps(maps, v.coeffs) == [nu_k * c for c in v.coeffs]
        assert len(table.vectors) == len(basis)


SPECTRUM_CASES = [
    ("".join(c * m for c, m in zip("abcde", pattern)), k)
    for n in range(2, 6)
    for pattern in partitions_of(n)
    for k in range(2, n + 1)
]


@pytest.mark.parametrize("config,k", SPECTRUM_CASES)
def test_spectrum_matches_dense_oracle(config, k):
    # the row-insertion count against dense C(k) eigenspaces
    basis = make_basis(config)
    assert spectrum(basis, k) == spectrum_reference(basis, k)


@pytest.mark.parametrize("pattern", [p for n in range(2, 7) for p in partitions_of(n)])
def test_spectrum_matches_the_resolved_chain_labels(pattern):
    # the row-insertion count against the nu_k labels resolve() writes
    basis = make_basis("".join(c * m for c, m in zip("abcdef", pattern)))
    n = basis.degree
    vectors = resolve(basis).vectors
    for k in range(2, n + 1):
        counts = Counter(v.chain.nu[n - k] for v in vectors)
        assert spectrum(basis, k) == sorted(counts.items(), key=lambda pair: (pair[1], -pair[0]))
