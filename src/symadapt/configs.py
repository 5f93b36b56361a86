"""Configuration words over a state alphabet and their orbit bases.

A configuration assigns one state to each of n particles and is stored as
a tuple of alphabet indices.  Two commuting actions matter:

  * the particle action  (act_particle): permuting which particle sits in
    which slot, w'[p(i)] = w[i];
  * the state action     (act_state): relabelling the states themselves,
    w'[i] = s(w[i]).

The orbit of a configuration under the particle action, listed in a fixed
deterministic order, is the basis that all operator matrices are written
in.
"""
from __future__ import annotations

from collections import Counter
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from .perm import Permutation

# The hard limit on the number of particles: 8! = 40320 kets.  Exact
# elimination inside the chain pieces grows like orbit^3, so orbits of more
# than a few hundred kets are slow well before this limit.
MAX_DEGREE = 8

_FORBIDDEN_IN_LABEL = set(" \t,()+")

Word = tuple[int, ...]


def _tokens(text: str) -> list[str]:
    """A label list's labels: its stripped comma-separated fields when it
    has a comma, else its characters; a blank list has none."""
    text = text.strip()
    return [tok.strip() for tok in text.split(",")] if "," in text else list(text)


class StateAlphabet:
    """An ordered list of distinct state labels; order is fixed for a run."""

    __slots__ = ("labels", "_index")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise ValueError("alphabet must contain at least one state")
        if len(set(labels)) != len(labels):
            raise ValueError(f"alphabet labels must be distinct, got {labels}")
        for lab in labels:
            if not lab or set(lab) & _FORBIDDEN_IN_LABEL:
                raise ValueError(f"invalid state label {lab!r}")
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    @classmethod
    def from_text(cls, text: str) -> "StateAlphabet":
        """Parse "abc" (single-character labels) or "alpha,beta,gamma"."""
        return cls(_tokens(text))

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown state label {label!r}; alphabet is {self.labels}") from None

    @property
    def compact(self) -> bool:
        """True when every label is a single character (bare-word formats)."""
        return all(len(lab) == 1 for lab in self.labels)

    def word_from_text(self, text: str) -> Word:
        """Parse a configuration word: bare characters or comma-separated labels."""
        toks = _tokens(text)
        if not toks:
            raise ValueError("empty configuration")
        if "," not in text and not self.compact:
            raise ValueError(
                f"alphabet {self.labels} has multi-character labels; "
                "write the configuration comma-separated"
            )
        return tuple(self.index(tok) for tok in toks)

    def text_from_word(self, word: Sequence[int]) -> str:
        if self.compact:
            return "".join(self.labels[i] for i in word)
        return ",".join(self.labels[i] for i in word)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StateAlphabet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"StateAlphabet({self.labels})"


def alphabet_for(config_text: str) -> StateAlphabet:
    """The default alphabet of a configuration: its distinct labels, sorted."""
    toks = _tokens(config_text)
    if not toks:
        raise ValueError("empty configuration")
    return StateAlphabet(sorted(set(toks)))


def act_particle(p: Permutation, word: Sequence[int]) -> Word:
    """Move particle i's state to slot p(i); a left action of S_n on words.

    Applying q and then p moves particle i's state to slot p(q(i)), the
    action of the product with q applied first.
    """
    if p.degree != len(word):
        raise ValueError(f"degree mismatch: permutation {p.degree}, word {len(word)}")
    out = [0] * len(word)
    for i, img in enumerate(p.images):
        out[img - 1] = word[i]
    return tuple(out)


def act_state(s: Permutation, word: Sequence[int]) -> Word:
    """Relabel every state through the alphabet bijection s (1-based points).

    Commutes with act_particle for every pair: the two actions touch
    disjoint index types.
    """
    images = s.images
    if any(not 0 <= x < len(images) for x in word):
        raise ValueError(
            f"state permutation of degree {len(images)} cannot act on word {word}"
        )
    return tuple(images[x] - 1 for x in word)


class OrbitBasis:
    """The ordered particle-action orbit of a configuration: ``configs``
    lists every distinct rearrangement of ``seed`` once, or is refused."""

    __slots__ = ("alphabet", "seed", "configs", "_index")

    def __init__(self, alphabet: StateAlphabet, seed: Word, configs: Sequence[Word]):
        self.alphabet = alphabet
        self.seed = tuple(seed)
        self.configs = tuple(tuple(w) for w in configs)
        self._index = {w: i for i, w in enumerate(self.configs)}
        letters = sorted(self.seed)
        size = factorial(len(letters)) // prod(map(factorial, Counter(letters).values()))
        if (len(self._index) != len(self.configs) or len(self.configs) != size
                or any(sorted(w) != letters for w in self.configs)):
            raise ValueError("ordering is not a permutation of orbit")

    @property
    def degree(self) -> int:
        return len(self.seed)

    def __len__(self) -> int:
        return len(self.configs)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.configs)

    def index_of(self, word: Sequence[int]) -> int:
        try:
            return self._index[tuple(word)]
        except KeyError:
            raise ValueError(f"configuration {word} is not in the orbit") from None

    def multiplicities(self) -> tuple[int, ...]:
        """Occurrences of each alphabet state in the seed configuration."""
        counts = Counter(self.seed)
        return tuple(counts.get(i, 0) for i in range(len(self.alphabet)))

    def texts(self) -> list[str]:
        return [self.alphabet.text_from_word(w) for w in self.configs]

    def with_ordering(self, words: Sequence[Sequence[int]]) -> "OrbitBasis":
        """The same orbit under an explicit ordering (e.g. from an override file)."""
        return OrbitBasis(self.alphabet, self.seed, words)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrbitBasis)
            and self.alphabet == other.alphabet
            and self.configs == other.configs
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.configs))

    def __repr__(self) -> str:
        return f"OrbitBasis(seed={self.alphabet.text_from_word(self.seed)!r}, size={len(self)})"


def orbit(word: Sequence[int], alphabet: StateAlphabet) -> OrbitBasis:
    """All distinct particle-permutations of ``word``, in lexicographic order.

    Closure is taken under the adjacent transpositions (1 2), ..., (n-1 n),
    which generate S_n, so the full n! elements are never enumerated.  The
    orbit size is n! divided by the product of the state multiplicity
    factorials.
    """
    word = tuple(word)
    n = len(word)
    if n < 1:
        raise ValueError("configuration must have at least one particle")
    if n > MAX_DEGREE:
        raise ValueError(
            f"degree {n} exceeds the supported maximum {MAX_DEGREE} "
            f"(orbit sizes up to {MAX_DEGREE}! = 40320)"
        )
    if any(not 0 <= x < len(alphabet) for x in word):
        raise ValueError(f"word {word} has indices outside alphabet {alphabet.labels}")
    seen = {word}
    queue = [word]
    while queue:
        w = queue.pop()
        for i in range(n - 1):
            nxt = w[:i] + (w[i + 1], w[i]) + w[i + 2 :]
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return OrbitBasis(alphabet, word, sorted(seen))


def parse_ordering(lines: Iterable[str], alphabet: StateAlphabet) -> list[Word]:
    """Parse an ordering-override file: one configuration word per line."""
    words = []
    for raw in lines:
        line = raw.strip()
        if line:
            words.append(alphabet.word_from_text(line))
    if not words:
        raise ValueError("ordering file contains no configurations")
    return words


__all__ = [
    "MAX_DEGREE",
    "StateAlphabet",
    "OrbitBasis",
    "alphabet_for",
    "act_particle",
    "act_state",
    "orbit",
    "parse_ordering",
]
