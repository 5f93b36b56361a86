"""Independent brute-force oracles and test-only helpers for the test suite.

The oracles recompute results by a route the package never takes: full
n! enumeration instead of generator closure, backtracking tableau fills
instead of corner growth, spectral projection products instead of kernel
extraction, semistandard fillings for multiplicities, all-pairs dot
products instead of spectral orthogonality, tableau entry swaps and
Fraction Bessel sums instead of chain arithmetic for Young's orthogonal
form, Fraction Parseval sums instead of integer block sums, C(k) and X(j)
applied term by term, maps of composed permutations instead of Coxeter
relations, dense C(k) eigenspaces instead of the Jucys-Murphy chain's
leaves, every integer in [-(j - 1), j - 1] tried as an X(j) eigenvalue
instead of the addable-corner contents (chain_reference), state
operators refined on every chain leaf instead of carried from each
shape's row leaf (resolve_reference), every equal-multiplicity state
swap tried in turn instead of only the pairwise-disjoint ones
(trial_state_ops), and a span as the kernel of its kernel instead of one
elimination (span_reference).

The dense representation lives here too.  The package holds every
operator as ket maps and every subspace as integer rows; the tests check
it against dense integer matrices of class sums and state operators,
their eigenspaces for every content-sum candidate and restriction to
an invariant subspace, with rational input and output at the edge
(row_to_int, from_rows, coords).

The other helpers (dense matrix products, matrix-dump parsing, a
Fraction RREF view of the package's elimination, cycle-notation parsing,
the identity, products, inverses and subgroup transpositions of
permutations, and content sums of shapes) serve only the tests as well.
"""
from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from symadapt.configs import act_particle, act_state
from symadapt.linalg import NotInvariantError, Subspace, _jordan, kernel, restrict_apply
from symadapt.operators import (
    element_maps,
    jm_maps,
    ket_map,
    maps_to_matrix,
    normalize_state_pairs,
    state_maps,
)
from symadapt.perm import Permutation, transposition
from symadapt.solver import (
    CGTable,
    Check,
    LabelChain,
    LabeledVector,
    VerifyReport,
    _Leaf,
    _gram_schmidt,
    _refine,
    default_state_ops,
    normalize,
)


def row_to_int(row) -> list[int]:
    """Scale a rational row to integers (per-row lcm of denominators).
    Scaling a row does not change its span or its nullspace."""
    den = lcm(*(Fraction(x).denominator for x in row))
    return [int(Fraction(x) * den) for x in row]


def from_rows(ambient: int, rows) -> Subspace:
    """The Subspace spanned by arbitrary integer or rational rows."""
    return Subspace.from_rows(ambient, [row_to_int(r) for r in rows])


def span_reference(ambient: int, rows) -> Subspace:
    """The span of integer rows as the kernel of their kernel: a span
    equals (span⊥)⊥.  kernel() already gives canonical rows, which
    from_rows keeps as they are."""
    return Subspace.from_rows(ambient, kernel(kernel(rows, ambient), ambient))


def coords(space: Subspace, vec) -> tuple[Fraction, ...] | None:
    """Coordinates of ``vec`` in the row basis of ``space``, or None if
    the vector lies outside it."""
    if len(vec) != space.ambient:
        raise ValueError(f"vector length {len(vec)} != ambient {space.ambient}")
    out = tuple(Fraction(vec[p]) / row[p] for row, p in zip(space.rows, space.pivots))
    residual = [Fraction(x) for x in vec]
    for a, row in zip(out, space.rows):
        for t, x in enumerate(row):
            residual[t] -= a * x
    return None if any(residual) else out


def contains(space: Subspace, vec) -> bool:
    return coords(space, vec) is not None


def matrix_of_elements(perms, basis):
    """M[i][j] = #{g in perms : g|phi_j> = |phi_i>}."""
    return maps_to_matrix(element_maps(perms, basis), len(basis))


def class_operator(k: int, basis):
    """Dense matrix of the transposition class sum of the embedded S_k."""
    return matrix_of_elements(subgroup_transpositions(k, basis.degree), basis)


def state_operator(pairs, basis):
    """Dense matrix of a sum of state transpositions (zero for no pairs,
    which the package refuses as a state operator)."""
    return maps_to_matrix(state_maps(pairs, basis) if pairs else [], len(basis))


def eigenspace(matrix, nu: int) -> Subspace:
    """Kernel of (M - nu*I) for a square integer matrix; empty when nu is
    not an eigenvalue."""
    d = len(matrix)
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != d:
            raise ValueError("eigenspace needs a square matrix")
        rows.append([x - nu if t == i else x for t, x in enumerate(row)])
    return Subspace.from_rows(d, kernel(rows, d))


def candidate_eigenvalues(k: int) -> tuple[int, ...]:
    """Every integer a transposition class sum of S_k can take as an
    eigenvalue: the content sums of the partitions of k, largest first.

    >>> candidate_eigenvalues(3)
    (3, 0, -3)
    """
    if k < 2:
        raise ValueError(f"subgroup degree must be at least 2, got {k}")
    return tuple(sorted({content_sum(lam) for lam in partitions_of(k)}, reverse=True))


def restrict(matrix, space: Subspace) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of an integer ``matrix`` in the row basis of the invariant
    subspace ``space``: the package's integer block divided by the pivot
    entries.  A non-integer entry raises ValueError."""
    d = len(matrix)
    if space.ambient != d:
        raise ValueError(f"ambient mismatch: matrix {d}, subspace {space.ambient}")
    for i, row in enumerate(matrix):
        if [int(x) for x in row] != list(row):
            raise ValueError(f"restrict needs an integer matrix; row {i} is {tuple(row)}")

    def apply_int(vec):
        return [sum(int(a) * x for a, x in zip(row, vec) if a) for row in matrix]

    block = restrict_apply(apply_int, space)
    return tuple(
        tuple(Fraction(a, lead) for a in row) for row, lead in zip(block, space.leads)
    )


def all_elements(n: int) -> list[Permutation]:
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def brute_orbit(word: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The particle-action orbit by enumerating all n! permutations."""
    out = set()
    for perm in itertools.permutations(range(len(word))):
        new = [0] * len(word)
        for i, img in enumerate(perm):
            new[img] = word[i]
        out.add(tuple(new))
    return out


def mat_mul_frac(a, b):
    bt = list(zip(*b))
    return [[sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)) for col in bt] for row in a]


def spectral_projection_columns(matrix, nu: int, candidates) -> list[list[Fraction]]:
    """Columns of prod_{nu' != nu} (M - nu' I), which span the nu-eigenspace
    of a semisimple integer matrix whose spectrum lies in ``candidates``
    (and are all zero when nu is not realized)."""
    d = len(matrix)
    prod = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    for other in candidates:
        if other == nu:
            continue
        shifted = [
            [Fraction(matrix[i][j] - (other if i == j else 0)) for j in range(d)]
            for i in range(d)
        ]
        prod = mat_mul_frac(prod, shifted)
    return [[prod[i][j] for i in range(d)] for j in range(d)]


def partitions_of(n: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in partitions_of(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """All standard fillings of ``shape``, by cell-at-a-time backtracking."""
    n = sum(shape)
    grid = [[0] * rowlen for rowlen in shape]
    results = []

    def fill(entry: int) -> None:
        if entry > n:
            results.append(tuple(tuple(row) for row in grid))
            return
        for r, row in enumerate(grid):
            for c in range(len(row)):
                if row[c]:
                    continue
                left_ok = c == 0 or (row[c - 1] and row[c - 1] < entry)
                up_ok = r == 0 or (grid[r - 1][c] and grid[r - 1][c] < entry)
                if left_ok and up_ok:
                    row[c] = entry
                    fill(entry + 1)
                    row[c] = 0

    fill(1)
    return results


def kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Number of semistandard fillings of ``shape`` with content[i] copies
    of value i: the multiplicity of the shape's irreducible in the
    permutation module of that content."""
    if sum(shape) != sum(content):
        raise ValueError("shape and content sizes differ")
    grid = [[0] * rowlen for rowlen in shape]
    remaining = list(content)
    cells = [(r, c) for r, rowlen in enumerate(shape) for c in range(rowlen)]
    count = 0

    def fill(idx: int) -> None:
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, c = cells[idx]
        lo = grid[r][c - 1] if c > 0 else 1
        for value in range(lo, len(content) + 1):
            if remaining[value - 1] == 0:
                continue
            if r > 0 and grid[r - 1][c] >= value:
                continue
            grid[r][c] = value
            remaining[value - 1] -= 1
            fill(idx + 1)
            remaining[value - 1] += 1
            grid[r][c] = 0

    fill(0)
    return count


def spectrum_reference(basis, k: int) -> list[tuple[int, int]]:
    """Realized eigenvalues of C(k) with multiplicities, from the dense
    matrix: one kernel per content sum, rarest first, ties broken by
    descending eigenvalue."""
    matrix = class_operator(k, basis)
    found = []
    total = 0
    for nu in candidate_eigenvalues(k):
        dim = eigenspace(matrix, nu).dim
        if dim:
            found.append((nu, dim))
            total += dim
    if total != len(basis):
        raise RuntimeError(f"eigenspace dimensions sum to {total}, expected {len(basis)}")
    found.sort(key=lambda pair: (pair[1], -pair[0]))
    return found


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise ValueError(f"dimension mismatch: {len(a[0])} != {len(b)}")
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_identity(dim: int):
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def commutes(a, b) -> bool:
    """True iff AB = BA exactly."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} != {len(b)}")
    return mat_mul(a, b) == mat_mul(b, a)


def load_matrix_dump(text: str):
    """Parse one `--verbose` operator block back into (label, matrix)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("dim="):
        raise ValueError("matrix dump must start with a 'dim=<d> label=<name>' header")
    head, _, label_part = lines[0].partition(" ")
    dim = int(head[len("dim="):])
    if not label_part.startswith("label="):
        raise ValueError(f"malformed dump header {lines[0]!r}")
    label = label_part[len("label="):]
    rows = [tuple(int(tok) for tok in ln.split()) for ln in lines[1 : dim + 1]]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError(f"matrix dump body does not match dim={dim}")
    return label, tuple(rows)


def rref(matrix):
    """Reduced row echelon form and rank of the package's fraction-free
    elimination, read as Fractions.

    The result has the same number of rows as the input (zero rows sink
    to the bottom), every pivot entry is 1, and rank equals the number of
    pivots.
    """
    rows = [row_to_int(r) for r in matrix]
    red, pivots = _jordan(rows)
    ncols = len(rows[0]) if rows else 0
    out = [tuple(Fraction(a, row[p]) for a in row) for row, p in zip(red, pivots)]
    zero = tuple(Fraction(0) for _ in range(ncols))
    out.extend(zero for _ in range(len(rows) - len(pivots)))
    return tuple(out), len(pivots)


def identity(n: int) -> Permutation:
    """The identity permutation of degree n.

    >>> identity(3).images
    (1, 2, 3)
    """
    return Permutation(range(1, n + 1))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The product p∘q with q applied first: (p∘q)(x) = p(q(x)).

    >>> compose(transposition(1, 2, 3), transposition(2, 3, 3)).images
    (2, 3, 1)
    """
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    return Permutation(p.images[x - 1] for x in q.images)


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for point, img in enumerate(p.images, start=1):
        inv[img - 1] = point
    return Permutation(inv)


def subgroup_transpositions(k: int, n: int) -> list[Permutation]:
    """All transpositions (i j) with i < j <= k, embedded in S_n: the
    k(k-1)/2 terms of the class sum C(k)."""
    if k < 2:
        raise ValueError(f"subgroup degree must be at least 2, got {k}")
    if k > n:
        raise ValueError(f"subgroup degree {k} exceeds ambient degree {n}")
    return [transposition(i, j, n) for i in range(1, k) for j in range(i + 1, k + 1)]


def content_sum(shape) -> int:
    """Sum of box contents c - r over the diagram of ``shape``.

    >>> content_sum((3,)), content_sum((2, 1))
    (3, 0)
    """
    return sum(c - r for r, rowlen in enumerate(shape) for c in range(rowlen))


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(1 2)(3 4)" into a permutation of degree n.

    Cycles are parenthesized, points whitespace-separated, juxtaposed cycles
    must be disjoint, fixed points may be omitted, and "()" is the identity.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty cycle expression")
    cycles: list[list[int]] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} in {text!r}")
        end = text.find(")", pos)
        if end < 0:
            raise ValueError(f"unbalanced '(' in {text!r}")
        body = text[pos + 1 : end].split()
        try:
            points = [int(tok) for tok in body]
        except ValueError:
            raise ValueError(f"non-integer point in cycle {text[pos:end + 1]!r}") from None
        cycles.append(points)
        pos = end + 1
    images = list(range(1, n + 1))
    seen: set[int] = set()
    for points in cycles:
        for x in points:
            if not 1 <= x <= n:
                raise ValueError(f"point {x} out of range 1..{n}")
            if x in seen:
                raise ValueError(f"point {x} repeated; cycles must be disjoint")
            seen.add(x)
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b
    return Permutation(images)


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _apply_maps(maps, vec) -> list:
    """Sum of the mapped permutation matrices on a vector, walking every
    entry for every map."""
    out = [0] * len(vec)
    for sigma in maps:
        for j, x in enumerate(vec):
            if x:
                out[sigma[j]] += x
    return out


def _tableau_chains(n: int) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Every standard tableau of n boxes, keyed by its chain (nu_n, ...,
    nu_2), where nu_k sums the contents of the boxes holding 1..k."""
    out = {}
    for shape in partitions_of(n):
        for rows in standard_tableaux(shape):
            content = {x: c - r for r, row in enumerate(rows) for c, x in enumerate(row)}
            out[tuple(sum(content[x] for x in range(1, k + 1)) for k in range(n, 1, -1))] = rows
    return out


def _is_standard(rows) -> bool:
    return all(a < b for row in rows for a, b in zip(row, row[1:])) and all(
        upper[c] < lower[c] for upper, lower in zip(rows, rows[1:]) for c in range(len(lower))
    )


def young_relation_failures(table) -> list[tuple[int, str]]:
    """The (vector, "(a a+1)") pairs that break Young's orthogonal form,
    found by swapping the entries a and a+1 of each vector's enumerated
    tableau: u = r s_a(c) - c must be 0 when the swap is not standard, and
    otherwise pass the Fraction Bessel sum over the nonzero vectors that
    hold the swapped tableau's chain and the same state labels."""
    basis = table.basis
    n = basis.degree
    d = len(basis)
    vecs = table.vectors
    tableaux = _tableau_chains(n)
    chain_of = {rows: nu for nu, rows in tableaux.items()}
    generators = [transposition(a, a + 1, n) for a in range(1, n)]
    sigmas = [ket_map(g, basis) for g in generators]
    failures = []
    for i, v in enumerate(vecs):
        rows = tableaux[v.chain.nu]
        where = {x: (r, c) for r, row in enumerate(rows) for c, x in enumerate(row)}
        for a, s_a, sigma in zip(range(1, n), generators, sigmas):
            image = [0] * d
            for j, x in enumerate(v.coeffs):
                image[sigma[j]] = x
            (ra, ca), (rb, cb) = where[a], where[a + 1]
            r = (cb - rb) - (ca - ra)
            u = [r * y - x for x, y in zip(v.coeffs, image)]
            swapped = tuple(tuple({a: a + 1, a + 1: a}.get(x, x) for x in row) for row in rows)
            if _is_standard(swapped):
                partner = chain_of[swapped]
                group = [w.coeffs for w in vecs
                         if (w.chain.nu, w.chain.state_labels) == (partner, v.chain.state_labels)
                         and any(w.coeffs)]
                held = sum(Fraction(_dot(u, g) ** 2, _dot(g, g)) for g in group) == _dot(u, u)
            else:
                held = not any(u)
            if not held:
                failures.append((i, str(s_a)))
    return failures


def chain_equation_failures(table) -> list[tuple[int, str]]:
    """Every (vector, operator) pair whose chain eigen-equation fails, term
    by term: C(k) as the sum of the transpositions of S_k with eigenvalue
    nu_k, and X(j) = (1 j) + ... + (j-1 j) with eigenvalue the content
    nu_j - nu_{j-1}."""
    basis = table.basis
    n = basis.degree
    failures = []
    for i, v in enumerate(table.vectors):
        nu = v.chain.nu
        for k in range(2, n + 1):
            maps = element_maps(subgroup_transpositions(k, n), basis)
            if _apply_maps(maps, v.coeffs) != [nu[n - k] * c for c in v.coeffs]:
                failures.append((i, f"C({k})"))
        for j in range(2, n + 1):
            maps = element_maps([transposition(p, j, n) for p in range(1, j)], basis)
            content = nu[n - j] - (nu[n - j + 1] if j > 2 else 0)
            if _apply_maps(maps, v.coeffs) != [content * c for c in v.coeffs]:
                failures.append((i, f"X({j})"))
    return failures


def verify_table_reference(table) -> VerifyReport:
    """symadapt.solver.verify_table by the direct route: all-pairs dot
    products for orthogonality, Young's orthogonal form by
    young_relation_failures, the representation property as
    M(s_a)M(s_b) = M(s_a s_b) on maps of composed generators, the
    state-particle commutation on the configuration words themselves, and
    completeness by its own count of shared label records."""
    basis = table.basis
    n = basis.degree
    d = len(basis)
    vecs = table.vectors
    checks: list[Check] = []

    bad_norm = []
    for i, v in enumerate(vecs):
        g = 0
        for c in v.coeffs:
            g = gcd(g, c)
        lead = next((c for c in v.coeffs if c), 0)
        if (
            len(v.coeffs) != d
            or v.norm_sq <= 0
            or sum(c * c for c in v.coeffs) != v.norm_sq
            or g != 1
            or lead <= 0
        ):
            bad_norm.append(i)
    checks.append(
        Check("unit_norm", "PASS" if not bad_norm else "FAIL",
              "" if not bad_norm else f"vectors {bad_norm} break the normalization contract")
    )

    bad_pairs = [
        (i, j)
        for i in range(len(vecs))
        for j in range(i + 1, len(vecs))
        if _dot(vecs[i].coeffs, vecs[j].coeffs) != 0
    ]
    checks.append(
        Check("orthogonality", "PASS" if not bad_pairs else "FAIL",
              "" if not bad_pairs else f"non-orthogonal pairs {bad_pairs[:5]}")
    )

    failures = []
    op_maps = [state_maps(op, basis) for op in table.state_ops]
    for i, v in enumerate(vecs):
        for idx, lab in enumerate(v.chain.state_labels):
            if _apply_maps(op_maps[idx], v.coeffs) != [lab * c for c in v.coeffs]:
                failures.append((i, f"state op {idx}"))
    checks.append(
        Check("eigen_equations", "PASS" if not failures else "FAIL",
              "" if not failures else f"failed equations {failures[:5]}")
    )

    records = Counter((v.chain.nu, v.chain.state_labels) for v in vecs)
    unlabeled = sum(1 for v in vecs if records[v.chain.nu, v.chain.state_labels] > 1)
    if len(vecs) != d:
        checks.append(
            Check("completeness", "FAIL",
                  f"{len(vecs)} vectors for orbit size {d}; complete flag {not unlabeled}")
        )
    elif not unlabeled:
        checks.append(Check("completeness", "PASS"))
    else:
        checks.append(
            Check("completeness", "WARN",
                  f"{unlabeled} of {len(vecs)} vectors left unlabeled (flagged residue)")
        )

    relations = young_relation_failures(table)
    checks.append(
        Check("young_orthogonal_form", "PASS" if not relations else "FAIL",
              "" if not relations else f"failed relations {relations[:5]}")
    )

    generators = [transposition(a, a + 1, n) for a in range(1, n)]
    s_maps = {g: ket_map(g, basis) for g in generators}
    bad = []
    for p in generators:
        for q in generators:
            if tuple(s_maps[p][j] for j in s_maps[q]) != ket_map(compose(p, q), basis):
                bad.append((str(p), str(q)))
    checks.append(
        Check("representation_property", "PASS" if not bad else "FAIL",
              "" if not bad else f"M(p)M(q) != M(pq) for {bad}")
    )

    if table.state_ops:
        m = len(basis.alphabet)
        words = set(basis.configs)
        bad_ops = []
        for op in table.state_ops:
            for s, t in op:
                images = list(range(1, m + 1))
                images[s], images[t] = t + 1, s + 1
                swap = Permutation(images)
                # a swap of states with unequal multiplicities commutes on
                # words but sends orbit words outside the orbit; a pair that
                # names one state twice is no transposition at all
                if s == t or any(act_state(swap, w) not in words for w in basis.configs) or any(
                    act_particle(g, act_state(swap, w)) != act_state(swap, act_particle(g, w))
                    for g in generators for w in basis.configs
                ):
                    bad_ops.append(op)
                    break
        checks.append(
            Check("state_particle_commutation", "PASS" if not bad_ops else "FAIL",
                  "" if not bad_ops else f"non-commuting state operators {bad_ops}")
        )
    return VerifyReport(tuple(checks))


def block_structure_reference(table, elements) -> Check:
    """symadapt.solver.block_structure_check by the direct route: each
    transformed vector's Parseval sum over its block in Fractions, one dot
    product at a time."""
    vecs = table.vectors
    d = len(table.basis)
    keys = []
    for i, v in enumerate(vecs):
        if v.norm_sq <= 0:
            return Check("block_structure", "FAIL",
                         f"vector {i} has norm_sq {v.norm_sq}, so no Parseval sum holds")
        try:
            keys.append((v.tableau.shape, v.chain.state_labels))
        except ValueError:
            return Check("block_structure", "FAIL",
                         f"vector {i} has chain {v.chain.nu}, which no tableau realizes")
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    direct = d <= 32
    for g in elements:
        sigma = ket_map(g, table.basis)
        for i, v in enumerate(vecs):
            image = [0] * d
            for j, c in enumerate(v.coeffs):
                image[sigma[j]] = c
            mates = groups[keys[i]]
            projected = sum(
                Fraction(_dot(image, vecs[b].coeffs) ** 2, vecs[b].norm_sq)
                for b in mates
            )
            if projected != v.norm_sq:
                return Check(
                    "block_structure", "FAIL",
                    f"{g} maps vector {i} outside its (shape, state-label) block",
                )
            if direct:
                for b, w in enumerate(vecs):
                    if b not in mates and _dot(image, w.coeffs) != 0:
                        return Check(
                            "block_structure", "FAIL",
                            f"{g} connects vectors {i} and {b} across blocks",
                        )
    return Check("block_structure", "PASS")


def trial_state_ops(basis) -> list[tuple[tuple[int, int], ...]]:
    """Every swap of two states with equal (nonzero) multiplicity, in
    lexicographic label order.  Tried in turn, resolve() skips each swap
    that does not keep the pieces the earlier ones leave; the shipped
    default_state_ops keeps only the pairwise-disjoint swaps, which it
    never needs to skip, and must give the same tables."""
    labels = basis.alphabet.labels
    mults = basis.multiplicities()
    pairs = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if mults[i] == mults[j] and mults[i] > 0
    ]
    pairs.sort(key=lambda p: (labels[p[0]], labels[p[1]]))
    return [((i, j),) for i, j in pairs]


def chain_reference(basis) -> list[_Leaf]:
    """The orbit split by X(2), ..., X(n) through _refine, trying every
    integer from j - 1 down to -(j - 1) as an X(j) eigenvalue on every leaf
    instead of the contents of the leaf shape's addable corners."""
    leaves = [_Leaf(Subspace.full(len(basis)), ())]
    for j in range(2, basis.degree + 1):
        cands = tuple(range(j - 1, -j, -1))
        leaves = _refine(leaves, jm_maps(j, basis), f"X({j})", lambda labels: cands)
    return leaves


def resolve_reference(basis, state_ops=None) -> CGTable:
    """resolve() with every state operator refining every chain leaf
    through _refine, instead of splitting each shape's row leaf and
    carrying the split."""
    n = basis.degree
    auto = not state_ops
    ops_queue = (default_state_ops(basis) if auto
                 else [normalize_state_pairs(op, basis) for op in state_ops])
    leaves = chain_reference(basis)
    applied, skipped = [], []
    for i, op in enumerate(ops_queue):
        if auto and not any(lf.space.dim > 1 and not lf.remainder for lf in leaves):
            break
        maps = state_maps(op, basis)
        cands = tuple(range(len(op), -len(op) - 1, -1))
        try:
            leaves = _refine(leaves, maps, f"state op {i}", lambda labels: cands)
        except NotInvariantError:
            skipped.append(op)
            continue
        applied.append(op)

    def nu(leaf) -> tuple[int, ...]:
        return tuple(itertools.accumulate(leaf.labels[: n - 1]))[::-1]

    leaves.sort(key=nu, reverse=True)
    vectors = []
    for leaf in leaves:
        chain = LabelChain(nu(leaf), leaf.labels[n - 1:])
        for row in _gram_schmidt(leaf.space.rows):
            vectors.append(LabeledVector(chain, *normalize(row)))
    return CGTable(basis=basis, vectors=tuple(vectors),
                   state_ops=tuple(applied), skipped_state_ops=tuple(skipped))
