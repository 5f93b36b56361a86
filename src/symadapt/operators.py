"""Integer matrices of group-algebra elements on an orbit basis.

The matrix element convention is M[i][j] = number of summed elements g
with g|phi_j> = |phi_i>, so columns are images of basis kets and a single
permutation gives a 0/1 permutation matrix.

Since every operator here is a sum of basis-ket permutations, each one is
also kept as a list of index maps (sigma with M[sigma(j)][j] += 1), which
applies to a coefficient vector in O(dim + terms * nonzeros) instead of
O(dim^2).
"""
from __future__ import annotations

from typing import Sequence

from .configs import OrbitBasis, act_particle, act_state
from .perm import Permutation, subgroup_transpositions

IntMatrix = tuple[tuple[int, ...], ...]

StatePair = tuple[int, int]


def ket_map(p: Permutation, basis: OrbitBasis) -> tuple[int, ...]:
    """Index map sigma of a particle permutation: sigma[j] = index of p|phi_j>."""
    if p.degree != basis.degree:
        raise ValueError(f"degree mismatch: permutation {p.degree}, basis {basis.degree}")
    return tuple(basis.index_of(act_particle(p, w)) for w in basis)


def element_maps(perms: Sequence[Permutation], basis: OrbitBasis) -> list[tuple[int, ...]]:
    return [ket_map(p, basis) for p in perms]


def normalize_state_pairs(pairs: Sequence[Sequence[int]], basis: OrbitBasis) -> tuple[StatePair, ...]:
    """Validate a list of alphabet transpositions against the orbit.

    Each pair must name two distinct states of equal multiplicity in the
    configuration, otherwise the state swap would map the orbit outside
    itself.
    """
    labels = basis.alphabet.labels
    mults = basis.multiplicities()
    out = []
    for pair in pairs:
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


def state_map(pair: StatePair, basis: OrbitBasis) -> tuple[int, ...]:
    """Index map of one state transposition acting on the orbit."""
    s, t = pair
    m = len(basis.alphabet)
    images = list(range(1, m + 1))
    images[s], images[t] = t + 1, s + 1
    swap = Permutation(images)
    return tuple(basis.index_of(act_state(swap, w)) for w in basis)


def state_maps(pairs: Sequence[Sequence[int]], basis: OrbitBasis) -> list[tuple[int, ...]]:
    return [state_map(pair, basis) for pair in normalize_state_pairs(pairs, basis)]


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


def maps_to_matrix(maps: Sequence[tuple[int, ...]], dim: int) -> IntMatrix:
    rows = [[0] * dim for _ in range(dim)]
    for sigma in maps:
        for j in range(dim):
            rows[sigma[j]][j] += 1
    return tuple(tuple(r) for r in rows)


def matrix_of_elements(perms: Sequence[Permutation], basis: OrbitBasis) -> IntMatrix:
    """M[i][j] = #{g in perms : g|phi_j> = |phi_i>}."""
    return maps_to_matrix(element_maps(perms, basis), len(basis))


def class_operator(k: int, basis: OrbitBasis) -> IntMatrix:
    """Matrix of the transposition class sum of the embedded subgroup S_k."""
    return matrix_of_elements(subgroup_transpositions(k, basis.degree), basis)


def state_operator(pairs: Sequence[Sequence[int]], basis: OrbitBasis) -> IntMatrix:
    """Matrix of a sum of state transpositions (an empty list gives zero)."""
    return maps_to_matrix(state_maps(pairs, basis), len(basis))


def dump_matrix(matrix: IntMatrix, label: str) -> str:
    """Plain-text dump: header "dim=<d> label=<name>" then one row per line."""
    lines = [f"dim={len(matrix)} label={label}"]
    lines.extend(" ".join(str(x) for x in row) for row in matrix)
    return "\n".join(lines) + "\n"


__all__ = [
    "IntMatrix",
    "ket_map",
    "element_maps",
    "normalize_state_pairs",
    "state_map",
    "state_maps",
    "apply_maps",
    "maps_to_matrix",
    "matrix_of_elements",
    "class_operator",
    "state_operator",
    "dump_matrix",
]
