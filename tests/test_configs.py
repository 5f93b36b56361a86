import math
import random
from collections import Counter

import pytest

from symadapt.configs import (
    MAX_DEGREE,
    OrbitBasis,
    StateAlphabet,
    act_particle,
    act_state,
    alphabet_for,
    orbit,
    parse_ordering,
)
from symadapt.perm import Permutation, transposition

from helpers import S3_DISTINCT_ORDER, make_basis, random_permutation
from oracles import brute_orbit, compose, identity

ABC = StateAlphabet("abc")


def W(text, alphabet=ABC):
    return alphabet.word_from_text(text)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        StateAlphabet([])
    with pytest.raises(ValueError):
        StateAlphabet(["a", "a"])
    with pytest.raises(ValueError):
        StateAlphabet(["a", "b c"])
    multi = StateAlphabet.from_text("alpha,beta,gamma")
    assert multi.labels == ("alpha", "beta", "gamma")
    assert multi.word_from_text("alpha,gamma,beta") == (0, 2, 1)
    assert multi.text_from_word((0, 2, 1)) == "alpha,gamma,beta"


def test_alphabet_for_sorts_distinct_labels():
    assert alphabet_for("baca").labels == ("a", "b", "c")
    assert alphabet_for("beta,alpha").labels == ("alpha", "beta")


@pytest.mark.parametrize("text, labels", [
    ("ab", ["a", "b"]),
    (" a , b ", ["a", "b"]),
    ("alpha,beta", ["alpha", "beta"]),
    (" beta , alpha , alpha ", ["beta", "alpha", "alpha"]),
])
def test_the_label_readers_split_a_list_alike(text, labels):
    default = alphabet_for(text)
    assert default.labels == tuple(sorted(set(labels)))
    assert [default.labels[i] for i in default.word_from_text(text)] == labels
    if len(set(labels)) == len(labels):
        assert StateAlphabet.from_text(text).labels == tuple(labels)
    else:
        with pytest.raises(ValueError, match="alphabet labels must be distinct"):
            StateAlphabet.from_text(text)


def refusal(read, text):
    with pytest.raises(ValueError) as exc:
        read(text)
    return str(exc.value)


@pytest.mark.parametrize("text, alphabet, default, word", [
    ("", "alphabet must contain at least one state", "empty configuration", "empty configuration"),
    ("   ", "alphabet must contain at least one state", "empty configuration", "empty configuration"),
    ("a,,b", "invalid state label ''", "invalid state label ''",
     "unknown state label ''; alphabet is ('a', 'b')"),
])
def test_the_label_readers_refuse_blank_lists_and_empty_labels(text, alphabet, default, word):
    assert refusal(StateAlphabet.from_text, text) == alphabet
    assert refusal(alphabet_for, text) == default
    assert refusal(StateAlphabet("ab").word_from_text, text) == word


def test_act_particle_examples():
    # (12)|abc> = |bac>
    assert act_particle(transposition(1, 2, 3), W("abc")) == W("bac")
    # equal states swap invisibly
    assert act_particle(transposition(1, 2, 3), W("aab")) == W("aab")
    # (12)|acb> = |cab>, i.e. phi_4 -> phi_5 in the fixture ordering
    assert act_particle(transposition(1, 2, 3), W("acb")) == W("cab")


def test_act_particle_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        act_particle(identity(2), W("abc"))


def test_act_particle_is_left_action():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 6)
        alpha = StateAlphabet("abcdef"[: rng.randint(1, 6)])
        word = tuple(rng.randrange(len(alpha)) for _ in range(n))
        p, q = random_permutation(n, rng), random_permutation(n, rng)
        assert act_particle(p, act_particle(q, word)) == act_particle(compose(p, q), word)


def test_act_state_examples():
    swap_ab = Permutation((2, 1, 3))  # alphabet transposition (a b)
    assert act_state(swap_ab, W("abc")) == W("bac")
    # phi_3 -> phi_5 in the fixture ordering
    assert act_state(swap_ab, W("cba")) == W("cab")
    assert act_state(identity(3), W("cab")) == W("cab")


def test_act_state_rejects_short_bijection():
    with pytest.raises(ValueError):
        act_state(identity(2), W("abc"))


def test_actions_commute():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(1, 5)
        alpha = StateAlphabet("abcde"[:m])
        word = tuple(rng.randrange(m) for _ in range(n))
        p = random_permutation(n, rng)
        s = random_permutation(m, rng)
        assert act_state(s, act_particle(p, word)) == act_particle(p, act_state(s, word))


def test_orbit_sizes():
    assert make_basis("aab").texts() == ["aab", "aba", "baa"]
    assert len(make_basis("abc")) == 6
    assert make_basis("aaa").texts() == ["aaa"]
    assert len(make_basis("abcde")) == 120


def test_orbit_matches_brute_force_and_size_formula():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        alpha = StateAlphabet("abcd"[:m])
        word = tuple(rng.randrange(m) for _ in range(n))
        basis = orbit(word, alpha)
        expected = brute_orbit(word)
        assert set(basis.configs) == expected
        mult_fact = math.prod(math.factorial(v) for v in Counter(word).values())
        assert len(basis) * mult_fact == math.factorial(n)
        assert word in expected
        # the orbit of any member is the same set
        g = random_permutation(n, rng)
        assert set(orbit(act_particle(g, word), alpha).configs) == expected


def test_orbit_index_roundtrip_and_determinism():
    basis = make_basis("aabc")
    assert [basis.index_of(w) for w in basis] == list(range(len(basis)))
    again = make_basis("aabc")
    assert basis.configs == again.configs


def test_orbit_rejects_large_degree():
    alpha = StateAlphabet("abcdefghi")
    with pytest.raises(ValueError, match=str(MAX_DEGREE)):
        orbit(tuple(range(9)), alpha)


def test_ordering_override():
    basis = make_basis("abc", order=S3_DISTINCT_ORDER)
    assert basis.texts() == S3_DISTINCT_ORDER
    with pytest.raises(ValueError, match="not a permutation of orbit"):
        make_basis("abc", order=["abc", "bac", "cba", "acb", "cab", "cab"])
    with pytest.raises(ValueError, match="not a permutation of orbit"):
        make_basis("aab", order=["aab", "aba"])


@pytest.mark.parametrize("words", [
    pytest.param([(0, 0, 1), (0, 1, 0)], id="part-of-the-orbit"),
    pytest.param([(0, 0, 1), (0, 1, 0), (0, 1, 0)], id="repeated-word"),
    pytest.param([(0, 0, 1), (0, 1, 0), (1, 1, 0)], id="not-a-rearrangement"),
    pytest.param([(0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 0, 0)], id="extra-word"),
])
def test_orbit_basis_refuses_anything_but_the_whole_orbit(words):
    # on part of an orbit, a particle permutation's ket map leaves the basis
    with pytest.raises(ValueError, match="ordering is not a permutation of orbit"):
        OrbitBasis(StateAlphabet("ab"), (0, 0, 1), words)


def test_parse_ordering_skips_blank_lines():
    words = parse_ordering(["aab\n", "\n", "aba\n", "baa\n"], StateAlphabet("ab"))
    assert words == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    with pytest.raises(ValueError):
        parse_ordering([], StateAlphabet("ab"))


def test_multiplicities():
    assert make_basis("aabc").multiplicities() == (2, 1, 1)
    assert make_basis("aaa").multiplicities() == (3,)
