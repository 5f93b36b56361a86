"""Exact symmetry-adapted bases for symmetric-group configuration spaces.

The package resolves the orbit of a particle configuration under S_n into
simultaneous integer eigenspaces of the Jucys-Murphy elements
X(2), ..., X(n), whose partial sums are the transposition class sums
C(k) = X(2) + ... + X(k) (lifting leftover multiplicity with
state-permutation operators), and reads exact coupling coefficients off
the resulting labeled basis.  All arithmetic is exact integer
arithmetic; coefficients come out as integers under a square root, never
floats.
"""

from .configs import (
    MAX_DEGREE,
    OrbitBasis,
    StateAlphabet,
    act_particle,
    act_state,
    alphabet_for,
    orbit,
    parse_ordering,
)
from .linalg import NotInvariantError, Subspace, kernel
from .perm import Permutation, cycle_string, transposition
from .solver import (
    CGTable,
    InternalCheckError,
    LabelChain,
    LabeledVector,
    VerifyReport,
    block_structure_check,
    default_state_ops,
    normalize,
    resolve,
    verify_table,
)
from .young import StandardTableau, tableau_from_chain

__version__ = "0.1.0"

__all__ = [
    "MAX_DEGREE",
    "OrbitBasis",
    "StateAlphabet",
    "act_particle",
    "act_state",
    "alphabet_for",
    "orbit",
    "parse_ordering",
    "NotInvariantError",
    "Subspace",
    "kernel",
    "Permutation",
    "cycle_string",
    "transposition",
    "CGTable",
    "InternalCheckError",
    "LabelChain",
    "LabeledVector",
    "VerifyReport",
    "block_structure_check",
    "default_state_ops",
    "normalize",
    "resolve",
    "verify_table",
    "StandardTableau",
    "tableau_from_chain",
    "__version__",
]
