"""State operators split one row leaf per shape; _carry takes the split to
the shape's other leaves.  With a state operator queued, the chain builds
only the row leaves; with none, the row leaves carried whole give the full
chain's leaves.  resolve must equal resolve_reference, which refines
every chain leaf, and Subspace.from_rows must equal the kernel of the
kernel."""
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symadapt import solver
from symadapt.linalg import Subspace, kernel
from symadapt.solver import InternalCheckError, resolve
from symadapt.young import reads_by_rows, rows_from_contents

from helpers import make_basis
from oracles import resolve_reference, span_reference

# the default policy, single and chained swaps, the path sum whose
# irrational remainders are carried, a class sum after a swap, a skipped
# operator, and a second operator that does not commute with the first
OPS = {
    "default": None,
    "ab": [[(0, 1)]],
    "path": [[(0, 1), (1, 2), (2, 3)]],
    "ab,abc": [[(0, 1)], [(0, 1), (0, 2), (1, 2)]],
    "ac": [[(0, 2)]],
    "ab+cd,ac": [[(0, 1), (2, 3)], [(0, 2)]],
    "bc,ab": [[(1, 2)], [(0, 1)]],
}


def words(max_n):
    """One word per composition of n <= max_n: aab for (2, 1), and so on."""
    for n in range(1, max_n + 1):
        for cuts in product([False, True], repeat=n - 1):
            parts = [1]
            for cut in cuts:
                if cut:
                    parts.append(1)
                else:
                    parts[-1] += 1
            yield "".join("abcdefg"[i] * m for i, m in enumerate(parts))


def outcome(resolver, basis, ops):
    """The table's fields, or the refusal's type and message."""
    try:
        table = resolver(basis, ops)
    except ValueError as exc:
        return type(exc), str(exc)
    return table.vectors, table.state_ops, table.skipped_state_ops


@pytest.mark.parametrize("word", [*words(5), "aabbcd"])
def test_resolve_equals_refining_every_leaf(word):
    basis = make_basis(word)
    shuffled = list(basis)
    random.Random(word).shuffle(shuffled)
    # abcde and aabbcd keep their own order: Gram-Schmidt and leaf order
    # are covered by the shuffled small words
    bases = [basis] if len(basis) > 60 else [basis, basis.with_ordering(shuffled)]
    for b in bases:
        for name, ops in OPS.items():
            assert outcome(resolve, b, ops) == outcome(resolve_reference, b, ops), name


def test_state_operators_split_only_the_row_leaves(monkeypatch):
    seen, chain = [], []
    real = solver._refine

    def recorded(leaves, maps, label, cands):
        (seen if label.startswith("state op") else chain).append([leaf.labels[:4] for leaf in leaves])
        return real(leaves, maps, label, cands)

    monkeypatch.setattr(solver, "_refine", recorded)
    resolve(make_basis("abcd"), [[(0, 1)], [(0, 1), (0, 2), (1, 2)]])
    rows = [rows_from_contents(labels) for labels in seen[0]]
    # one leaf per shape of S_4, each filled 1..4 row by row
    assert [tuple(map(len, r)) for r in rows] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert all([x for row in r for x in row] == [1, 2, 3, 4] for r in rows)
    assert len(seen) == 2
    # the chain hands X(2), X(3) and X(4) only leaves that read by rows
    assert [len(leaves) for leaves in chain] == [1, 2, 3]
    assert all(reads_by_rows(labels) for leaves in chain for labels in leaves)


@pytest.mark.parametrize("word", list(words(6)))
def test_the_pruned_chain_builds_exactly_the_row_leaves(word):
    basis = make_basis(word)

    def fields(leaves):
        return [(leaf.space.rows, leaf.space.pivots, leaf.labels, leaf.remainder) for leaf in leaves]

    rows = [leaf for leaf in solver._chain(basis) if reads_by_rows(leaf.labels)]
    assert fields(solver._chain(basis, rows_only=True)) == fields(rows)


# one row leaf per shape of at most two rows: (4), (3, 1), (2, 2) for aabb
@pytest.mark.parametrize("word, shapes", [("aabb", 3), ("aaabbb", 4)])
def test_a_queued_swap_that_never_applies_still_carries(word, shapes, monkeypatch):
    # two states: every row leaf is one-dimensional, so the default swap is
    # queued but never applied, the chain stops at the row leaves, and
    # _carry builds the rest
    basis = make_basis(word)
    assert solver.default_state_ops(basis) == [((0, 1),)]
    carried = []
    real = solver._carry
    monkeypatch.setattr(solver, "_carry", lambda pieces, b: carried.append(len(pieces)) or real(pieces, b))
    table = resolve(basis)
    assert (table.state_ops, table.skipped_state_ops) == ((), ())
    assert carried == [shapes]
    assert table.vectors == resolve_reference(basis).vectors


# every word of n <= 7 whose multiplicities are pairwise distinct, plus
# (5, 2, 1) and (4, 3, 1), at 168 and 280 kets
DISTINCT = [w for w in words(7) if len(set(map(w.count, set(w)))) == len(set(w))] + ["aaaaabbc", "aaaabbbc"]


@pytest.mark.parametrize("word", DISTINCT)
def test_the_carry_builds_the_full_chain_without_a_state_operator(word):
    # resolve runs the carry only when a state operator is queued; on every
    # other word the row leaves carried whole must still give every leaf
    basis = make_basis(word)

    def fields(leaves):
        return sorted((leaf.labels, leaf.space.rows, leaf.space.pivots) for leaf in leaves)

    assert fields(solver._carry(solver._chain(basis, rows_only=True), basis)) == fields(solver._chain(basis))


def test_no_state_operator_runs_no_carry(monkeypatch):
    monkeypatch.setattr(solver, "_carry", None)
    assert resolve(make_basis("aaabbc")).vectors == resolve_reference(make_basis("aaabbc")).vectors


def test_a_walk_that_drops_a_step_is_refused(monkeypatch):
    # (2, 1) has two standard tableaux, joined only by s_2; the leaf the
    # walk misses holds 2 of the orbit's 6 dimensions
    real = solver.steps
    monkeypatch.setattr(solver, "steps", lambda contents: [s for s in real(contents) if s[0] != 2])
    with pytest.raises(InternalCheckError, match="span 4 of the orbit's 6 dimensions"):
        resolve(make_basis("abc"), [[(0, 1)]])


@pytest.mark.parametrize("word, message", [
    # no state operator: with no second row open, only the one-row leaf is left
    ("aaabbc", "span 1 of the orbit's 60 dimensions"),
    # the default swap is queued: the chain stops at the row leaves, and the
    # carried pieces must span the orbit
    ("aabbcd", "span 1 of the orbit's 180 dimensions"),
])
def test_a_chain_split_that_misses_a_candidate_is_refused(word, message, monkeypatch):
    real = solver.corner_contents
    monkeypatch.setattr(solver, "corner_contents", lambda contents: real(contents)[:-1])
    # the missed eigenspace is a remainder, and the chain keeps none in
    # either mode, so only resolve's span count can see the loss
    basis = make_basis(word)
    for rows_only in (False, True):
        assert not any(leaf.remainder for leaf in solver._chain(basis, rows_only))
    with pytest.raises(InternalCheckError, match=message):
        resolve(basis)


def test_a_carried_piece_that_loses_rank_is_refused(monkeypatch):
    real = Subspace.from_rows.__func__
    monkeypatch.setattr(Subspace, "from_rows",
                        classmethod(lambda cls, ambient, rows: real(cls, ambient, rows[:1])))
    # the path sum leaves a two-dimensional remainder on the (3, 1) leaves
    with pytest.raises(InternalCheckError, match="rank"):
        resolve(make_basis("abcd"), [[(0, 1), (1, 2), (2, 3)]])


@st.composite
def spanning_rows(draw):
    """Integer rows with zero rows and dependent rows mixed in, or none."""
    ambient = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=ambient, max_size=ambient)
    rows = draw(st.lists(row, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            k = draw(st.integers(-3, 3))
            rows.append([x + k * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ambient)
    return ambient, rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spanning_rows())
def test_from_rows_equals_the_kernel_of_the_kernel(case):
    ambient, rows = case
    got = Subspace.from_rows(ambient, rows)
    want = span_reference(ambient, rows)
    assert (got.rows, got.pivots) == (want.rows, want.pivots)
    # the kernel's own rows, with no elimination by from_rows in between
    assert got.rows == kernel(kernel(rows, ambient), ambient)
