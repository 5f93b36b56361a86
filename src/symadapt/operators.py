"""Group-algebra elements on an orbit basis, as ket maps.

Every operator here is a sum of permutations of the basis kets, so each
one is held as the list of its terms' index maps: sigma[j] is the index
of the ket that the term sends |phi_j> to.  The operator's matrix, with
M[i][j] the number of terms that send |phi_j> to |phi_i>, is built only
for display (maps_to_matrix, used by the CLI's --verbose dump); the
solver applies the sum to a coefficient vector with apply_maps in
O(dim + terms * nonzeros).
"""
from __future__ import annotations

from collections.abc import Sequence

from .configs import OrbitBasis, act_particle, act_state
from .perm import Permutation, transposition

StatePair = tuple[int, int]


def ket_map(p: Permutation, basis: OrbitBasis) -> tuple[int, ...]:
    """Index map sigma of a particle permutation: sigma[j] = index of p|phi_j>."""
    if p.degree != basis.degree:
        raise ValueError(f"degree mismatch: permutation {p.degree}, basis {basis.degree}")
    return tuple(basis.index_of(act_particle(p, w)) for w in basis)


def element_maps(perms: Sequence[Permutation], basis: OrbitBasis) -> list[tuple[int, ...]]:
    """Ket maps of permutations, one ket_map per permutation."""
    return [ket_map(p, basis) for p in perms]


def jm_maps(j: int, basis: OrbitBasis) -> list[tuple[int, ...]]:
    """Ket maps of the terms (1 j), ..., (j-1 j) of the Jucys-Murphy
    element X(j)."""
    return element_maps([transposition(i, j, basis.degree) for i in range(1, j)], basis)


def class_maps(k: int, basis: OrbitBasis) -> list[tuple[int, ...]]:
    """Ket maps of the transpositions of S_k, the terms of the class sum
    C(k) = X(2) + ... + X(k)."""
    return [sigma for j in range(2, k + 1) for sigma in jm_maps(j, basis)]


def normalize_state_pairs(pairs: Sequence[Sequence[int]], basis: OrbitBasis) -> tuple[StatePair, ...]:
    """Validate a list of alphabet transpositions against the orbit.

    The list must be nonempty, and each pair two int alphabet indices
    naming distinct states of equal multiplicity in the configuration,
    otherwise the state swap would map the orbit outside itself; anything
    else raises ValueError.
    """
    if not pairs:
        raise ValueError("a state operator needs at least one state transposition")
    labels = basis.alphabet.labels
    mults = basis.multiplicities()
    out = []
    for pair in pairs:
        if not (isinstance(pair, Sequence) and len(pair) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in pair)):
            raise ValueError(f"state transposition {pair!r} is not a pair of alphabet indices")
        s, t = pair
        if not (0 <= s < len(labels) and 0 <= t < len(labels)):
            raise ValueError(f"state indices {pair} out of range for alphabet {labels}")
        if s == t:
            raise ValueError(f"state transposition needs two distinct states, got ({labels[s]} {labels[s]})")
        if s > t:
            s, t = t, s
        if mults[s] != mults[t]:
            raise ValueError(
                f"state swap ({labels[s]} {labels[t]}) does not preserve the orbit: "
                f"multiplicity of {labels[s]} is {mults[s]} but multiplicity of {labels[t]} is {mults[t]}"
            )
        out.append((s, t))
    return tuple(out)


def state_maps(pairs: Sequence[Sequence[int]], basis: OrbitBasis) -> list[tuple[int, ...]]:
    """Index maps of a state operator's transpositions acting on the orbit,
    checked first by normalize_state_pairs."""
    m = len(basis.alphabet)
    swaps = [transposition(s + 1, t + 1, m) for s, t in normalize_state_pairs(pairs, basis)]
    return [tuple(basis.index_of(act_state(swap, w)) for w in basis) for swap in swaps]


def maps_to_matrix(maps: Sequence[tuple[int, ...]], dim: int) -> tuple[tuple[int, ...], ...]:
    """Dense matrix of a sum of mapped permutations:
    M[i][j] = number of maps with sigma[j] = i."""
    rows = [[0] * dim for _ in range(dim)]
    for sigma in maps:
        for j, i in enumerate(sigma):
            rows[i][j] += 1
    return tuple(tuple(r) for r in rows)


def apply_maps(maps: Sequence[tuple[int, ...]], vec: Sequence) -> list:
    """Apply the sum of the mapped permutation matrices to a column vector.

    Only the vector's nonzero entries are walked for each map: chain
    eigenspace rows are mostly zeros."""
    out = [0] * len(vec)
    support = [(j, x) for j, x in enumerate(vec) if x]
    for sigma in maps:
        for j, x in support:
            out[sigma[j]] += x
    return out


__all__ = [
    "ket_map",
    "element_maps",
    "jm_maps",
    "class_maps",
    "normalize_state_pairs",
    "state_maps",
    "maps_to_matrix",
    "apply_maps",
]
