"""Shared fixtures for the test suite."""
from __future__ import annotations

from symadapt import OrbitBasis, Permutation, StateAlphabet, alphabet_for, orbit

# the phi-ordering used in the distinct-state S_3 fixtures
S3_DISTINCT_ORDER = ["abc", "bac", "cba", "acb", "cab", "bca"]


def make_basis(config: str, alphabet: str | None = None, order: list[str] | None = None) -> OrbitBasis:
    alpha = StateAlphabet.from_text(alphabet) if alphabet else alphabet_for(config)
    basis = orbit(alpha.word_from_text(config), alpha)
    if order is not None:
        basis = basis.with_ordering([alpha.word_from_text(w) for w in order])
    return basis


def s3_distinct_basis() -> OrbitBasis:
    return make_basis("abc", order=S3_DISTINCT_ORDER)


def random_permutation(n: int, rng) -> Permutation:
    """A pseudorandom element of S_n drawn from the given ``random.Random``."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    return Permutation(points)
