from collections import Counter
from itertools import accumulate

import pytest

from symadapt.young import (
    StandardTableau,
    addable_corners,
    chain_contents,
    corner_contents,
    reads_by_rows,
    rows_from_contents,
    spectrum,
    steps,
    tableau_from_chain,
)

from helpers import make_basis
from oracles import content_sum, partitions_of, standard_tableaux


def test_content_sum_values():
    assert content_sum((2,)) == 1
    assert content_sum((1, 1)) == -1
    assert content_sum((3,)) == 3
    assert content_sum((2, 1)) == 0
    assert content_sum((1, 1, 1)) == -3


def test_tableau_validation():
    StandardTableau(((1, 2), (3,)))
    with pytest.raises(ValueError):
        StandardTableau(((1, 3), (2, 4), (5, 6, 7)))  # not a partition shape
    with pytest.raises(ValueError):
        StandardTableau(((2, 1), (3,)))  # row not increasing
    with pytest.raises(ValueError):
        StandardTableau(((1, 2), (4,)))  # entries not 1..n
    with pytest.raises(ValueError):
        StandardTableau(((2, 3), (1,)))  # column not increasing


def test_bracket_lines():
    t = StandardTableau(((1, 2), (3,)))
    assert t.bracket_lines() == ["[1 2]", "[3]"]


def test_addable_corners_have_distinct_contents():
    for n in range(1, 8):
        for shape in partitions_of(n):
            contents = [c for _, c in addable_corners(shape)]
            assert len(contents) == len(set(contents))


def test_tableau_from_chain_known_labels():
    assert tableau_from_chain((3, 1)).rows == ((1, 2, 3),)
    assert tableau_from_chain((0, 1)).rows == ((1, 2), (3,))
    assert tableau_from_chain((0, -1)).rows == ((1, 3), (2,))
    assert tableau_from_chain((-3, -1)).rows == ((1,), (2,), (3,))
    assert tableau_from_chain(()).rows == ((1,),)


def test_tableau_from_chain_rejects_unrealizable_chains():
    with pytest.raises(ValueError):
        tableau_from_chain((0, 2))  # box 2 cannot have content 2
    with pytest.raises(ValueError):
        tableau_from_chain((5, 1))  # content 4 has no corner on a 2-box shape


def test_tableau_from_chain_inverts_content_reading():
    # every standard tableau of every shape of n <= 6 is recovered from its
    # own partial content sums
    for n in range(1, 7):
        for shape in partitions_of(n):
            for rows in standard_tableaux(shape):
                tab = StandardTableau(rows)
                content = {x: c - r for r, row in enumerate(rows) for c, x in enumerate(row)}
                partial = 0
                chain = []
                for entry in range(2, n + 1):
                    partial += content[entry]
                    chain.append(partial)
                assert tableau_from_chain(tuple(reversed(chain))) == tab


def _contents(rows) -> tuple[int, ...]:
    """Box contents c_1, ..., c_n read off a filling by position."""
    at = {x: c - r for r, row in enumerate(rows) for c, x in enumerate(row)}
    return tuple(at[x] for x in range(1, len(at) + 1))


def test_steps_and_chain_contents_agree_with_every_tableau():
    # every standard tableau up to 6 boxes: swapping the entries a and a+1
    # gives a standard tableau exactly when steps finds |r| >= 2, with the
    # contents steps reports; its chain decodes back to its contents
    for n in range(1, 7):
        for shape in partitions_of(n):
            for rows in standard_tableaux(shape):
                contents = _contents(rows)
                found = steps(contents)
                assert [(a, r) for a, r, _ in found] == [
                    (a, contents[a] - contents[a - 1]) for a in range(1, n)]
                for a, r, target in found:
                    swap = {a: a + 1, a + 1: a}
                    swapped = tuple(tuple(swap.get(x, x) for x in row) for row in rows)
                    try:
                        standard = bool(StandardTableau(swapped))
                    except ValueError:
                        standard = False
                    assert standard == (abs(r) >= 2) == (target is not None)
                    assert target is None or target == _contents(swapped)
                nu = tuple(accumulate(contents))[:0:-1]  # nu_n, ..., nu_2
                assert chain_contents(nu) == contents
                assert rows_from_contents(chain_contents(nu)) == tableau_from_chain(nu).rows == rows


def test_only_the_row_tableau_has_contents_that_never_rise_by_two():
    # the rule the chain uses to keep each shape's row leaf, over all 351
    # standard tableaux of at most 7 boxes
    seen = 0
    for n in range(1, 8):
        for shape in partitions_of(n):
            for rows in standard_tableaux(shape):
                contents = _contents(rows)
                assert reads_by_rows(contents) == ([x for row in rows for x in row] == list(range(1, n + 1)))
                seen += 1
    assert seen == 351


def test_corner_contents_is_the_branching_rule():
    # over the 351 standard tableaux of at most 7 boxes: box k+1 sits at a
    # corner that corner_contents lists for the first k contents, and every
    # k-box tableau (the empty one included) grows in exactly as many ways
    by_size = {0: [()]}
    for n in range(1, 8):
        by_size[n] = [_contents(rows) for shape in partitions_of(n) for rows in standard_tableaux(shape)]
    assert sum(map(len, by_size.values())) == 352
    for k in range(7):
        grown = Counter(contents[:-1] for contents in by_size[k + 1])
        for contents in by_size[k]:
            corners = corner_contents(contents)
            assert corners == sorted(corners, reverse=True)
            assert grown[contents] == len(corners)
        assert all(contents[-1] in corner_contents(contents[:-1]) for contents in by_size[k + 1])


def test_standard_tableaux_oracle_agrees_with_hook_counts():
    # spot values: number of standard tableaux per shape
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((3, 1))) == 3
    assert len(standard_tableaux((2, 2))) == 2
    assert len(standard_tableaux((3, 2))) == 5
    assert len(standard_tableaux((2, 2, 1))) == 5


@pytest.mark.parametrize("config", ["aab", "abcd", "aabbc", "aaabcd", "aabbcd"])
def test_spectrum_ignores_ordering_and_label_names(config):
    # the count reads each ket's letters, so neither the orbit's order, the
    # alphabet's order nor the label spelling may move it
    letters = sorted(set(config))
    basis = make_basis(config)
    reordered = basis.with_ordering(basis.configs[::-1])
    reversed_alphabet = make_basis(config, alphabet="".join(reversed(letters)))
    names = {c: f"{c}{c}x" for c in letters}
    spelled = make_basis(",".join(names[c] for c in config))
    for k in range(2, len(config) + 1):
        want = spectrum(basis, k)
        assert spectrum(reordered, k) == want
        assert spectrum(reversed_alphabet, k) == want
        assert spectrum(spelled, k) == want
