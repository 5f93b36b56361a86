"""Exact checks on faulted tables: verify_table's spectral orthogonality,
Young relations and Coxeter relations, and block_structure_check's
integer block sums, must report exactly what the direct all-pairs dot
products, tableau entry swaps with Fraction Bessel sums, Fraction
Parseval sums and maps of composed permutations report.  A table that
passes verify_table satisfies every C(k) and X(j) eigen-equation and the
generators' block structure, applied term by term.  Zero vectors and
short remainder label records are reported, never raised.  A table
refuses broken bookkeeping when it is built: a record that resolve never
writes raises ValueError there."""
import random
import re
from dataclasses import fields, replace
from functools import lru_cache
from math import factorial, prod

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from symadapt import solver
from symadapt.operators import element_maps
from symadapt.perm import transposition
from symadapt.solver import (
    CGTable,
    Check,
    LabelChain,
    LabeledVector,
    block_structure_check,
    normalize,
    resolve,
    verify_table,
)

from helpers import make_basis, random_permutation
from oracles import (
    block_structure_reference,
    chain_equation_failures,
    partitions_of,
    verify_table_reference,
)

UNLABELED = "WARN completeness: 28 of 60 vectors left unlabeled (flagged residue)"
REPRESENTATION = "PASS representation_property"


def _outside(g: str, i: int) -> Check:
    return Check(
        "block_structure", "FAIL", f"{g} maps vector {i} outside its (shape, state-label) block"
    )


OUTSIDE = _outside("(1 5)", 3)
# (1 2), ..., (5 6): the elements `symadapt verify` checks on S_6
GENERATORS = [transposition(i, i + 1, 6) for i in range(1, 6)]


# the path sum (a b)+(b c)+(c d) leaves irrational remainder leaves with
# short label records on abcd
PATH = (((0, 1), (1, 2), (2, 3)),)


@lru_cache(maxsize=None)
def _table(config: str, state_ops=None):
    return resolve(make_basis(config), state_ops)


def _elements(n: int, seed: int = 1729, count: int = 10):
    """Seeded pseudorandom elements of S_n."""
    rng = random.Random(seed)
    return [random_permutation(n, rng) for _ in range(count)]


def _with(table, changes: dict):
    """The table with vectors[i] replaced by changes[i]."""
    vecs = [changes.get(i, v) for i, v in enumerate(table.vectors)]
    return replace(table, vectors=tuple(vecs))


def _mixed(table, i: int, j: int):
    """Vector i replaced by its sum with vector j, keeping i's labels."""
    coeffs = tuple(a + b for a, b in zip(table.vectors[i].coeffs, table.vectors[j].coeffs))
    return _with(table, {i: replace(table.vectors[i], coeffs=coeffs,
                                    norm_sq=sum(c * c for c in coeffs))})


def _swapped(table, a: int, b: int):
    va, vb = table.vectors[a], table.vectors[b]
    return _with(table, {a: replace(va, chain=vb.chain), b: replace(vb, chain=va.chain)})


# aaabbc has 60 kets, so block_structure_check relies on the Parseval sums
# alone (its direct cross-block scan only runs up to 32 kets); the expected
# reports were recorded from the all-pairs and Fraction-Bessel checks


def test_cross_block_mix_fails_orthogonality_and_block_structure():
    table = _table("aaabbc")
    assert table.vectors[3].tableau.shape != table.vectors[59].tableau.shape
    broken = _mixed(table, 3, 59)
    assert verify_table(broken).lines() == [
        "PASS unit_norm",
        "FAIL orthogonality: non-orthogonal pairs [(3, 59)]",
        "PASS eigen_equations",
        UNLABELED,
        # vectors 1 and 2 map under (5 6) into vector 3's record
        "FAIL young_orthogonal_form: failed relations "
        "[(1, '(5 6)'), (2, '(5 6)'), (3, '(1 2)'), (3, '(2 3)'), (3, '(3 4)')]",
        REPRESENTATION,
    ]
    assert block_structure_check(broken, _elements(6)) == OUTSIDE
    assert block_structure_check(broken, GENERATORS) == _outside("(1 2)", 3)


def test_swapped_labels_fail_the_eigen_equations():
    # the chain's eigen-equations fail term by term, and verify_table
    # reports them as broken Young relations: with no state operator,
    # eigen_equations has nothing to check
    broken = _swapped(_table("aaabbc"), 0, 10)
    assert chain_equation_failures(broken)[:5] == [
        (0, "C(2)"), (0, "C(3)"), (0, "C(4)"), (0, "C(5)"), (0, "C(6)")]
    assert verify_table(broken).lines() == [
        "PASS unit_norm",
        "PASS orthogonality",
        "PASS eigen_equations",
        UNLABELED,
        "FAIL young_orthogonal_form: failed relations "
        "[(0, '(1 2)'), (0, '(2 3)'), (8, '(2 3)'), (10, '(1 2)'), (10, '(2 3)')]",
        REPRESENTATION,
    ]
    assert block_structure_check(broken, _elements(6)) == OUTSIDE
    assert block_structure_check(broken, GENERATORS) == _outside("(2 3)", 8)


@pytest.mark.parametrize("config, complete", [("aaabbc", False), ("aab", True)])
def test_a_duplicated_vector_shares_its_record_so_the_table_is_not_complete(config, complete):
    # completeness is read off the label records: a copy of vector 0 shares
    # its record, so even a table that was complete before is not after
    table = _table(config)
    assert table.complete == complete
    broken = replace(table, vectors=table.vectors + (table.vectors[0],))
    assert not broken.complete and broken.unlabeled >= {0, len(table.vectors)}
    d = len(table.vectors)
    assert verify_table(broken).lines() == [
        "PASS unit_norm",
        f"FAIL orthogonality: non-orthogonal pairs [(0, {d})]",
        "PASS eigen_equations",
        f"FAIL completeness: {d + 1} vectors for orbit size {d}; complete flag False",
        "PASS young_orthogonal_form",
        REPRESENTATION,
    ]


def _words() -> list[str]:
    """One word per multiplicity pattern of 2-6 particles whose orbit has
    at most 120 kets, largest orbit first (Hypothesis favours early
    entries)."""
    sized = []
    for n in range(2, 7):
        for pattern in partitions_of(n):
            size = factorial(n) // prod(map(factorial, pattern))
            if size <= 120:
                sized.append((-size, "".join(c * m for c, m in zip("abcdef", pattern))))
    return [word for _, word in sorted(sized)]


# (word, state operators) pairs: every default-policy word, then tables
# resolved with user operators: a complete lift, a skipped operator, and
# the path sum whose remainder leaves keep short label records
TABLES = [(word, None) for word in _words()] + [
    ("aabbcc", (((0, 1),), ((0, 1), (0, 2), (1, 2)))),
    ("abcd", (((0, 1), (2, 3)), ((0, 2),))),
    ("abcd", PATH),
    ("abc", (((0, 1),),)),
]


FAULTS = ("none", "swap_labels", "perturb", "mix", "duplicate")


def _fault(table, kind: str, i: int, j: int, delta: int):
    vecs = table.vectors
    m = len(vecs)
    i, j = i % m, j % m
    if kind == "swap_labels":
        return _swapped(table, i, j)
    if kind == "perturb":
        v = vecs[i]
        t = j % len(v.coeffs)
        coeffs = v.coeffs[:t] + (v.coeffs[t] + delta,) + v.coeffs[t + 1:]
        return _with(table, {i: replace(v, coeffs=coeffs, norm_sq=sum(c * c for c in coeffs))})
    if kind == "mix":
        key = (vecs[i].tableau.shape, vecs[i].chain.state_labels)
        others = [b for b, u in enumerate(vecs) if (u.tableau.shape, u.chain.state_labels) != key]
        return _mixed(table, i, others[j % len(others)] if others else (i + 1) % m)
    if kind == "duplicate":
        return replace(table, vectors=vecs + (vecs[i],))
    return table


# no shrinking: a failing example re-runs the all-pairs oracle for every
# shrink candidate, which stalls the suite for minutes instead of failing
FAULT_SWEEP = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                       phases=(Phase.explicit, Phase.generate))
FAULTED = dict(
    source=st.sampled_from(TABLES),
    kind=st.sampled_from(FAULTS),
    i=st.integers(0, 10**6),
    j=st.integers(0, 10**6),
    delta=st.sampled_from((-3, -2, -1, 1, 2, 3)),
)


@FAULT_SWEEP
@given(**FAULTED, seed=st.integers(0, 2**16))
def test_verify_table_equals_the_direct_reference(source, kind, i, j, delta, seed):
    table = _fault(_table(*source), kind, i, j, delta)
    assert verify_table(table) == verify_table_reference(table)
    elements = _elements(table.basis.degree, seed, count=3)
    assert block_structure_check(table, elements) == block_structure_reference(table, elements)


@FAULT_SWEEP
@given(**FAULTED)
def test_a_table_that_passes_verify_passes_the_chain_equations_and_block_structure(
        source, kind, i, j, delta):
    table = _fault(_table(*source), kind, i, j, delta)
    if verify_table(table).passed:
        n = table.basis.degree
        assert chain_equation_failures(table) == []
        generators = [transposition(a, a + 1, n) for a in range(1, n)]
        assert block_structure_reference(table, generators) == Check("block_structure", "PASS")


def test_short_record_remainder_mixed_into_its_leaf_fails_orthogonality():
    # a remainder vector has no eigenvalue for the path operator, so its
    # different record does not make it orthogonal to its leaf mates: the
    # sum r + f keeps r's short record and passes every equation it records
    table = _table("abcd", PATH)
    vecs = table.vectors
    mixes = 0
    for r, rv in enumerate(vecs):
        if len(rv.chain.state_labels) == len(table.state_ops):
            continue
        for f, fv in enumerate(vecs):
            if fv.chain.nu == rv.chain.nu and len(fv.chain.state_labels) == len(table.state_ops):
                broken = _mixed(table, r, f)
                report = verify_table(broken)
                assert report == verify_table_reference(broken)
                assert report.checks[0] == Check("unit_norm", "PASS")
                assert report.checks[1].status == "FAIL"
                assert f"({min(r, f)}, {max(r, f)})" in report.checks[1].detail
                mixes += 1
    assert mixes == 12


def test_overfull_mates_that_pass_the_young_relations_send_every_pair_to_be_dotted():
    # abc has two copies of shape (2,1).  g1, g2 span the row tableau T's
    # leaf and phi = -2 s_2 - 1 maps it onto the leaf of s_2 T, sqrt(3)
    # times an isometry.  In the coordinates a g1 + b g2, whose squared
    # norm is 4 (3a^2 + b^2), (0, 1), (1, -1) and (1, 1) lie 60 degrees
    # apart and (1, 2), (2, -3) are orthogonal: the five rows under T's
    # record sum to 5/2 of the identity as a Bessel frame.  The three rows
    # under s_2 T's record are phi of the first three plus z times the sign
    # vector, with z^2 = n: each carries a third of its norm outside the
    # leaf, so their frame is exactly the identity on it.  So every Bessel
    # sum holds over non-orthogonal mates, and the whole table passes the
    # Young relations, while the s_2 T rows are not orthogonal to the sign
    # vector, a pair under different records that only the all-pairs
    # fallback dots.
    basis = make_basis("abc")
    triv, g1, g2, _, _, sign = (v.coeffs for v in _table("abc").vectors)
    (s2,) = element_maps([transposition(2, 3, 3)], basis)

    def comb(a, b, z=0, phi=False):
        row = [a * x + b * y for x, y in zip(g1, g2)]
        if phi:
            row = [-2 * row[s] - x for s, x in zip(s2, row)]
        return [x + z * e for x, e in zip(row, sign)]

    records = [
        ((-3, -1), [sign]),
        ((0, -1), [comb(0, 1, 1, True), comb(1, -1, 2, True), comb(1, 1, 2, True)]),
        ((3, 1), [triv]),
        ((0, 1), [comb(0, 1), comb(1, -1), comb(1, 1), comb(1, 2), comb(2, -3)]),
    ]
    vectors = tuple(LabeledVector(LabelChain(nu, ()), *normalize(row))
                    for nu, rows in records for row in rows)
    table = replace(_table("abc"), vectors=vectors, state_ops=(), skipped_state_ops=())
    report = verify_table(table)
    assert report == verify_table_reference(table)
    assert report.lines() == [
        "PASS unit_norm",
        # (0, 1), (0, 2) and (0, 3) pair the sign vector with s_2 T's rows
        "FAIL orthogonality: non-orthogonal pairs [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]",
        "PASS eigen_equations",
        "FAIL completeness: 10 vectors for orbit size 6; complete flag False",
        "PASS young_orthogonal_form",
        REPRESENTATION,
    ]


def test_zero_vector_fails_block_structure_without_raising():
    table = _table("aa")
    broken = _with(table, {0: replace(table.vectors[0], coeffs=(0,), norm_sq=0)})
    zero = Check("block_structure", "FAIL", "vector 0 has norm_sq 0, so no Parseval sum holds")
    assert block_structure_check(broken, [transposition(1, 2, 2)]) == zero
    report = verify_table(broken)
    assert report == verify_table_reference(broken)
    assert report.lines() == [
        "FAIL unit_norm: vectors [0] break the normalization contract",
        "PASS orthogonality",
        "PASS eigen_equations",
        "PASS completeness",
        "PASS young_orthogonal_form",
        REPRESENTATION,
    ]


def _map_as(monkeypatch, p, sigma):
    """Make verify_table map the permutation p to sigma instead of its ket map."""
    real = solver.element_maps
    monkeypatch.setattr(solver, "element_maps", lambda perms, basis: [
        sigma if q == p else m for q, m in zip(perms, real(perms, basis))])


def test_a_non_involutive_generator_map_fails(monkeypatch):
    # (1 2) mapped as a 3-cycle of kets 0, 1, 2: the Young relations apply
    # s_a(c)[t] = c[sigma_a[t]], which is exact only for involutions, and
    # representation_property reports that the map is not one
    table = resolve(make_basis("abc"))
    _map_as(monkeypatch, transposition(1, 2, 3), (1, 2, 0, 3, 4, 5))
    report = verify_table(table)
    assert not report.passed
    assert [line for line in report.lines() if line.startswith("FAIL")] == [
        "FAIL young_orthogonal_form: failed relations "
        "[(1, '(1 2)'), (2, '(1 2)'), (3, '(1 2)'), (4, '(1 2)'), (5, '(1 2)')]",
        "FAIL representation_property: generator maps break (s_a s_b)^m = 1 for "
        "[('(1 2)', '(1 2)'), ('(1 2)', '(2 3)')]",
        "FAIL state_particle_commutation: non-commuting state operators [((0, 1),)]",
    ]


def test_a_generator_map_that_breaks_a_coxeter_relation_fails(monkeypatch):
    # (1 2) mapped as the identity still squares to 1, but (s_1 s_2)^3 is
    # then s_2, which moves kets of abc
    table = resolve(make_basis("abc"))
    s1 = transposition(1, 2, 3)
    _map_as(monkeypatch, s1, tuple(range(len(table.basis))))
    checks = {c.name: c for c in verify_table(table).checks}
    assert checks["representation_property"] == Check(
        "representation_property", "FAIL",
        "generator maps break (s_a s_b)^m = 1 for [('(1 2)', '(2 3)')]",
    )


def _first(change):
    """The table fields with vector 0 changed."""
    return lambda t: {"vectors": (change(t.vectors[0]),) + t.vectors[1:]}


# aab has no state operators, so one state label is one too many
REFUSALS = [
    pytest.param(_first(lambda v: replace(v, chain=LabelChain(v.chain.nu, (1,)))),
                 "vector 0 has 3 coefficients and state labels (1,), for 3 kets and 0 state operators",
                 id="extra-state-label"),
    pytest.param(_first(lambda v: replace(v, chain=LabelChain(v.chain.nu[:1], ()))),
                 "vector 0 has chain (3,), which spells no tableau of 3 boxes", id="short-nu"),
    # verify_table and block_structure_check weigh by the stored norm_sq
    pytest.param(_first(lambda v: replace(v, norm_sq=v.norm_sq - 1)),
                 "vector 0 has norm_sq 2, not its sum of squares",
                 id="understated-norm"),
    pytest.param(_first(lambda v: replace(v, coeffs=v.coeffs[:2])),
                 "vector 0 has 2 coefficients and state labels (), for 3 kets and 0 state operators",
                 id="short-coefficients"),
    # box 2 cannot have content 3
    pytest.param(_first(lambda v: replace(v, chain=LabelChain((0, 3), ()))),
                 "vector 0 has chain (0, 3), which spells no tableau of 3 boxes", id="unrealizable-nu"),
] + [
    pytest.param(lambda t, field=field, op=op: {field: (op,)}, message, id=f"{field}-{name}")
    for field in ("state_ops", "skipped_state_ops")
    for op, message, name in [
        (((0, 0),), "state transposition needs two distinct states, got (a a)", "one-state-twice"),
        # (a b) swaps states of multiplicities 2 and 1
        (((0, 1),), "state swap (a b) does not preserve the orbit: multiplicity of a is 2 "
                    "but multiplicity of b is 1", "orbit-escaping"),
        (((0, 5),), "state indices (0, 5) out of range for alphabet ('a', 'b')", "out-of-range"),
        # an empty operator would label every vector 0 and lift nothing
        ((), "a state operator needs at least one state transposition", "empty"),
    ]
]


@pytest.mark.parametrize("change, message", REFUSALS)
def test_a_table_refuses_records_that_resolve_never_writes(change, message):
    table = _table("aab")
    changes = change(table)
    with pytest.raises(ValueError, match=re.escape(message)):
        replace(table, **changes)
    with pytest.raises(ValueError, match=re.escape(message)):
        CGTable(**{f.name: getattr(table, f.name) for f in fields(table)} | changes)
