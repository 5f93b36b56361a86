"""Simultaneous eigenvalue refinement along the subgroup chain.

resolve() splits the orbit space into joint integer eigenspaces of the
Jucys-Murphy elements X(k) = (1 k) + ... + (k-1 k), k = 2..n, then lifts
any remaining multiplicity with state-permutation operators; one routine,
_refine, applies every operator.  _refine chooses the candidate
eigenvalues and the labels; linalg.split does the linear algebra of each
split.  A state operator commutes with S_n, so it splits only each
shape's row leaf, and _carry takes that split to the shape's other leaves
by Young's seminormal form.  With a state operator queued, the chain
therefore stops at the row leaves and builds no other leaf.  Every
one-dimensional piece becomes a labeled basis vector: its eigenvalue
chain, the standard Young tableau the chain encodes, and exact integer
coefficients c with an implied overall factor 1/sqrt(norm_sq).  The
coefficient table read off this basis is the coupling-coefficient table
of the configuration.

On a leaf of shape lambda^(k-1), X(k) acts as the content of the box that
k adds (Okounkov-Vershik), so its split tries only the contents of the
addable corners (young.corner_contents).  resolve's one span count, on
the final leaves, proves that none was missed.
C(k) = X(2) + ... + X(k) is the class sum of S_k, so a leaf's chain
label nu_k is the sum of its first k box contents.

verify_table() certifies the chain without applying any X(k): each
adjacent transposition s_a must act on every vector by Young's orthogonal
form, which by induction on a gives every X(k) and C(k) eigen-equation
and keeps every (shape, state-label) block.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Callable, Sequence

from .configs import OrbitBasis
from .linalg import NotInvariantError, Subspace, dot, primitive, split
from .operators import (
    apply_maps,
    element_maps,
    jm_maps,
    normalize_state_pairs,
    state_maps,
)
from .perm import Permutation, transposition
from .young import (StandardTableau, chain_contents, corner_contents, reads_by_rows, steps,
                    tableau_from_chain)

StateOp = tuple[tuple[int, int], ...]


class InternalCheckError(RuntimeError):
    """An internal invariance or dimension-count check failed; this signals
    an implementation bug, not a user error."""


@dataclass(frozen=True)
class LabelChain:
    """Eigenvalue labels of one basis vector.

    ``nu`` holds (nu_n, ..., nu_2), the class-sum eigenvalues down the
    subgroup chain; ``state_labels`` holds the eigenvalues of the state
    operators that were applied, in application order.
    """

    nu: tuple[int, ...]
    state_labels: tuple[int, ...]


@dataclass(frozen=True)
class LabeledVector:
    """One symmetry-adapted basis vector with exact radical coefficients.

    Stored: the eigenvalue chain, the coefficients and norm_sq, which
    CGTable holds equal to the coefficients' sum of squares.  The actual
    coefficient on basis ket i is coeffs[i] / sqrt(norm_sq); coeffs is
    primitive (gcd 1) with its first nonzero entry positive.  Derived: the
    standard tableau, decoded from chain.nu, so it is always the one the
    eigen-equations check.  Whether the vector is labeled is a fact of the
    table (CGTable.unlabeled), not of the vector.
    """

    chain: LabelChain
    coeffs: tuple[int, ...]
    norm_sq: int

    @cached_property
    def tableau(self) -> StandardTableau:
        """The standard tableau that chain.nu spells out; ValueError when
        no tableau realizes the chain."""
        return tableau_from_chain(self.chain.nu)


@dataclass(frozen=True)
class CGTable:
    """The resolved basis of one orbit: resolve() writes one vector per ket.

    Stored: the orbit basis, the vectors, and the state operators that
    were applied and skipped.  Derived: ``records``, ``unlabeled`` and
    ``complete``, all read off the vectors' label records.
    A record that resolve() never writes raises ValueError: a state operator
    that normalize_state_pairs rejects, or a vector without one coefficient
    per ket, with a norm_sq that is not its sum of squares, with more state
    labels than operators, or with no n-box tableau.
    """

    basis: OrbitBasis
    vectors: tuple[LabeledVector, ...]
    state_ops: tuple[StateOp, ...]
    skipped_state_ops: tuple[StateOp, ...]

    def __post_init__(self):
        for op in self.state_ops + self.skipped_state_ops:
            normalize_state_pairs(op, self.basis)
        d, n, ops = len(self.basis), self.basis.degree, len(self.state_ops)
        for i, v in enumerate(self.vectors):
            if len(v.coeffs) != d or len(v.chain.state_labels) > ops:
                raise ValueError(f"vector {i} has {len(v.coeffs)} coefficients and state labels "
                                 f"{v.chain.state_labels}, for {d} kets and {ops} state operators")
            if dot(v.coeffs, v.coeffs) != v.norm_sq:
                raise ValueError(f"vector {i} has norm_sq {v.norm_sq}, not its sum of squares")
            try:
                realized = sum(v.tableau.shape) == n
            except ValueError:
                realized = False
            if not realized:
                raise ValueError(f"vector {i} has chain {v.chain.nu}, which spells no tableau of {n} boxes")

    @cached_property
    def records(self) -> dict[LabelChain, list[int]]:
        """The indices of the vectors under each label record."""
        index: dict[LabelChain, list[int]] = {}
        for i, v in enumerate(self.vectors):
            index.setdefault(v.chain, []).append(i)
        return index

    @cached_property
    def unlabeled(self) -> frozenset[int]:
        """The vectors whose label record another vector shares."""
        return frozenset(i for mates in self.records.values() if len(mates) > 1 for i in mates)

    @property
    def complete(self) -> bool:
        """True when every vector has a label record of its own."""
        return not self.unlabeled


def normalize(vec: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The primitive form of an integer vector (gcd 1, first nonzero entry
    positive) and its sum of squares."""
    coeffs = primitive(vec)
    return coeffs, dot(coeffs, coeffs)


def default_state_ops(basis: OrbitBasis) -> list[StateOp]:
    """The automatic degeneracy lifters: the swaps of two states with equal
    (nonzero) multiplicity, in lexicographic label order, less every swap
    that shares a state with an earlier one.

    Disjoint swaps commute, and every state swap commutes with S_n, so
    each lifter keeps every piece that the chain and the earlier lifters
    leave: resolve() never skips one.  tests/oracles.py keeps every such
    swap, tried in turn, as trial_state_ops; the tests check that both
    give the same tables.
    """
    labels = basis.alphabet.labels
    mults = basis.multiplicities()
    pairs = sorted(((i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))
                    if mults[i] == mults[j] > 0), key=lambda p: (labels[p[0]], labels[p[1]]))
    ops, used = [], set()
    for i, j in pairs:
        if i not in used and j not in used:
            used |= {i, j}
            ops.append(((i, j),))
    return ops


@dataclass
class _Leaf:
    """A piece of the partition: the eigenvalues of the operators applied
    so far (the box contents c_1 = 0, c_2, ..., c_k, then the state-operator
    eigenvalues), or a frozen remainder, which only a user state operator
    leaves and later operators skip."""

    space: Subspace
    labels: tuple[int, ...]
    remainder: bool = False


def _refine(
    leaves: list[_Leaf],
    maps: Sequence[tuple[int, ...]],
    label: str,
    cands: Callable[[tuple[int, ...]], Sequence[int]],
) -> list[_Leaf]:
    """Split every live leaf into the integer eigenspaces of one operator,
    a sum of ket permutations given by its index maps.

    ``cands(labels)`` lists the eigenvalues to try on a leaf with those
    labels; children keep that order and append their eigenvalue to the
    labels.  The result is a new list, so a NotInvariantError on any leaf,
    which only a user state operator raises, leaves the caller's partition
    as it was.
    Whatever the candidates leave uncovered (a user operator's irrational
    eigenvalues) is split's orthogonal remainder and becomes a frozen
    remainder leaf that keeps the parent's labels.
    """
    out = []
    for leaf in leaves:
        if leaf.remainder:
            out.append(leaf)
            continue
        values = cands(leaf.labels)
        pieces, rem = split(leaf.space, lambda v: apply_maps(maps, v), values)
        total = sum(piece.dim for piece in pieces)
        if total > leaf.space.dim:
            raise InternalCheckError(f"{label}: eigenspaces overfill the leaf")
        out.extend(_Leaf(piece, leaf.labels + (c,)) for c, piece in zip(values, pieces) if piece.dim)
        if rem is not None:
            if rem.dim != leaf.space.dim - total:
                raise InternalCheckError(f"{label}: remainder dimension mismatch")
            out.append(_Leaf(rem, leaf.labels, remainder=True))
    return out


def _gram_schmidt(rows: Sequence[Sequence[int]]) -> list[Sequence[int]]:
    """Fraction-free Gram-Schmidt: v <- (b.b) v - (v.b) b against each
    earlier b, then primitive().  Every step scales by a nonzero integer,
    so each row spans the line that rational Gram-Schmidt gives, and
    normalize() fixes its sign."""
    basis: list[tuple[Sequence[int], int]] = []
    for v in rows:
        for b, bb in basis:
            vb = dot(v, b)
            if vb:
                v = primitive([bb * x - vb * y for x, y in zip(v, b)])
        basis.append((v, dot(v, v)))
    return [v for v, _ in basis]


def _chain(basis: OrbitBasis, rows_only: bool = False) -> list[_Leaf]:
    """The orbit split into joint eigenspaces of X(2), ..., X(n); each
    leaf's labels are its n box contents.

    After each X(j) split the chain drops every remainder, which only a
    missed candidate leaves, so that resolve's span count sees the loss.
    With ``rows_only`` it also keeps only the leaves whose contents read
    1..j by rows (young.reads_by_rows), since no descendant of another
    leaf is a row leaf.
    """
    leaves = [_Leaf(Subspace.full(len(basis)), (0,))]
    for j in range(2, basis.degree + 1):
        try:
            leaves = _refine(leaves, jm_maps(j, basis), f"X({j})", corner_contents)
        except NotInvariantError as exc:
            raise InternalCheckError(f"X({j}) failed to leave a chain eigenspace invariant") from exc
        leaves = [leaf for leaf in leaves
                  if not leaf.remainder and (not rows_only or reads_by_rows(leaf.labels))]
    return leaves


def _carry(pieces: list[_Leaf], basis: OrbitBasis) -> list[_Leaf]:
    """Every chain leaf's pieces, carried from the pieces of its shape's
    row leaf, which the state operators split (or left whole).

    ``pieces`` are the row leaves' pieces in order.  A breadth-first walk
    over the standard tableaux of each shape, from the row tableau, takes
    every step T -> s_a T that young.steps finds.  Each piece's rows go
    through x -> r s_a(x) - x, with s_a(x)[t] = x[sigma_a[t]] for the ket
    map sigma_a of (a a+1), and are put in canonical form.  The result
    lists the leaves in walk order, each leaf's pieces in the order of its
    row leaf's.

    Why this is exact:
    - act_state and act_particle commute, so every state operator
      commutes with s_a.
    - On the leaf of T, r s_a - 1 is r sqrt(1 - 1/r^2) times an isometry
      onto the leaf of s_a T, one copy at a time (Young's seminormal form,
      Okounkov-Vershik).
    - So it maps each eigenspace piece onto the piece with the same
      eigenvalue, and the orthogonal remainder onto the remainder, with
      the same dimensions.  An operator is invariant on the row leaf's
      pieces exactly when it is invariant on every leaf's pieces, so
      splitting only the row leaves changes neither the auto loop's stop
      nor which user operators are skipped.
    - Canonical RREF is unique, so the carried pieces equal, row for row,
      what _refine gives when it splits every leaf: leaf order,
      Gram-Schmidt and every output stay the same.

    Raises InternalCheckError when a carried piece loses rank; a tableau
    that the walk misses leaves resolve's span count short.
    """
    n = basis.degree
    s_maps = element_maps([transposition(a, a + 1, n) for a in range(1, n)], basis)
    split: dict[tuple[int, ...], list[_Leaf]] = {}
    for piece in pieces:
        split.setdefault(piece.labels[:n], []).append(piece)
    walk = list(split)
    for contents in walk:  # the walk grows as it goes: breadth first
        for a, r, target in steps(contents):
            if target is None or target in split:
                continue
            sigma = s_maps[a - 1]
            carried = []
            for piece in split[contents]:
                space = piece.space
                rows = [[r * row[s] - x for s, x in zip(sigma, row)] for row in space.rows]
                image = Subspace.from_rows(space.ambient, rows)
                if image.dim != space.dim:
                    raise InternalCheckError(
                        f"s_{a} carried a piece of rank {space.dim} to rank {image.dim}")
                carried.append(_Leaf(image, target + piece.labels[n:]))
            split[target] = carried
            walk.append(target)
    return [piece for carried in split.values() for piece in carried]


def resolve(basis: OrbitBasis, state_ops: Sequence[Sequence[Sequence[int]]] | None = None) -> CGTable:
    """Resolve an orbit into labeled symmetry-adapted basis vectors.

    The chain splits the orbit by X(2), ..., X(n).  With a state operator
    queued it keeps only the row leaf of each shape (the leaf whose tableau
    holds 1..n read row by row); the state operators go through the same
    routine, _refine, on those leaves, and _carry builds every other
    leaf's pieces from its row leaf's, split or not.  The table is the
    one that splitting every leaf gives (see _carry).  With no state
    operator queued, the chain builds every leaf and nothing is carried.

    One count proves the table complete: the final leaves must span the
    orbit, or InternalCheckError is raised.  Exact eigenspaces never exceed
    their multiplicity and _refine and _carry refuse overfilled or
    rank-losing pieces, so a missed candidate or tableau leaves it short.

    ``state_ops`` is an ordered list of state operators, each a list of
    alphabet transpositions (index pairs) whose matrices are summed.  When
    none are supplied, the default lifters apply in turn until no row leaf
    is degenerate or they run out.  They are disjoint swaps: none is
    skipped and none leaves a remainder (see default_state_ops).

    A user state operator refines the table only if every current leaf is
    invariant under it (operators after the first need not commute with
    the earlier ones); non-invariant operators are recorded as skipped.
    Every applied operator labels every leaf, so complete tables have one
    state eigenvalue per applied operator on every vector.  A leaf that
    stays degenerate gives an orthogonalized basis whose vectors share its
    label record: they are ``unlabeled``, and the table is not ``complete``.
    """
    n = basis.degree
    # an orbit-escaping state operator is refused before the chain runs
    auto = not state_ops
    ops_queue = (default_state_ops(basis) if auto
                 else [normalize_state_pairs(op, basis) for op in state_ops])
    # with a state operator queued the chain stops at the row leaves and
    # _carry builds the rest.  With none queued the full chain still runs,
    # so that bench/check.py's re-check of every round stays within its time
    # limit; the condition goes once that checker is bounded (ROADMAP item 1).
    leaves = _chain(basis, rows_only=bool(ops_queue))
    applied: list[StateOp] = []
    skipped: list[StateOp] = []
    for i, op in enumerate(ops_queue):
        if auto and not any(lf.space.dim > 1 for lf in leaves):
            break
        maps = state_maps(op, basis)
        cands = tuple(range(len(op), -len(op) - 1, -1))
        try:
            leaves = _refine(leaves, maps, f"state op {i}", lambda labels: cands)
        except NotInvariantError:
            skipped.append(op)
            continue
        applied.append(op)
    if ops_queue:
        leaves = _carry(leaves, basis)
    total = sum(leaf.space.dim for leaf in leaves)
    if total != len(basis):
        raise InternalCheckError(f"the leaves span {total} of the orbit's {len(basis)} dimensions")

    def nu(leaf: _Leaf) -> tuple[int, ...]:
        # nu_k is the sum of the box contents up to k, and nu_1 = 0 is left out
        return tuple(accumulate(leaf.labels[1:n]))[::-1]

    # each chain leaf has its own nu and its pieces stay contiguous, so one
    # stable sort gives the descending-chain order
    leaves.sort(key=nu, reverse=True)
    vectors: list[LabeledVector] = []
    for leaf in leaves:
        chain = LabelChain(nu(leaf), leaf.labels[n:])
        # _gram_schmidt returns a single row as it is
        for row in _gram_schmidt(leaf.space.rows):
            vectors.append(LabeledVector(chain, *normalize(row)))
    return CGTable(
        basis=basis,
        vectors=tuple(vectors),
        state_ops=tuple(applied),
        skipped_state_ops=tuple(skipped),
    )


@dataclass(frozen=True)
class Check:
    name: str
    status: str  # PASS, FAIL or WARN
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.status != "FAIL" for c in self.checks)

    def lines(self) -> list[str]:
        return [
            f"{c.status} {c.name}" + (f": {c.detail}" if c.detail else "")
            for c in self.checks
        ]


def _spans(vecs: Sequence[LabeledVector], keys: Sequence) -> dict:
    """Per key: the nonzero vectors g under it (keys[i] is the key of
    vecs[i]), each weighted by L / (g . g), and L, the lcm of those g . g."""
    spans: dict = {}
    for key, g in zip(keys, vecs):
        if g.norm_sq:
            spans.setdefault(key, []).append(g)
    for key, mates in spans.items():
        big = lcm(*(g.norm_sq for g in mates))
        spans[key] = [(g.coeffs, big // g.norm_sq) for g in mates], big
    return spans


def _in_span(u: Sequence[int], span) -> bool:
    """Bessel's equality sum_g (u . g)^2 L / (g . g) = (u . u) L over one
    entry of _spans; over orthogonal g it holds exactly when u lies in
    their span, and over no g exactly when u = 0."""
    mates, big = span
    return sum(dot(u, g) ** 2 * w for g, w in mates) == dot(u, u) * big


def _verdict(name: str, bad, detail: str) -> Check:
    """PASS when nothing is bad, else FAIL with the detail."""
    return Check(name, "FAIL", detail) if bad else Check(name, "PASS")


def _failed_relations(table: CGTable, s_maps: Sequence[tuple[int, ...]]) -> list[tuple[int, int]]:
    """The (vector, a) pairs that break Young's orthogonal form for
    s_a = (a a+1), whose ket map is s_maps[a - 1]; see verify_table."""
    vecs = table.vectors
    contents = [chain_contents(v.chain.nu) for v in vecs]
    # per record, by box contents and state labels
    spans = _spans(vecs, [(c, v.chain.state_labels) for c, v in zip(contents, vecs)])
    failed = []
    for i, v in enumerate(vecs):
        coeffs = v.coeffs
        for (a, r, target), sigma in zip(steps(contents[i]), s_maps):
            # s_a(c)[t] = c[sigma[t]] as in _carry, exact for an involution
            u = [r * coeffs[s] - x for s, x in zip(sigma, coeffs)]
            if target is None:
                held = not any(u)
            else:
                held = _in_span(u, spans.get((target, v.chain.state_labels), ((), 1)))
            if not held:
                failed.append((i, a))
    return failed


def verify_table(table: CGTable) -> VerifyReport:
    """Exact self-verification of a resolved table: the whole suite of
    `symadapt verify`.

    Checks, in order: every vector nonzero and primitive, pairwise
    orthogonality, the recorded state-operator eigen-equations,
    completeness (one vector per ket, none sharing its label record; an
    incomplete table warns), Young's orthogonal form on s_a = (a a+1),
    the representation property of the orbit action and, with state
    operators, their commutation with every s_a.

    Young's orthogonal form (Okounkov-Vershik) sends c_T to c_T / r plus a
    multiple of c_{s_a T}, with r = c_{a+1} - c_a the axial distance of
    T's box contents.  So u = r s_a(c) - c, in integers, must be 0 when
    |r| = 1 (s_a T is not standard), and otherwise lie in the span of the
    record with nu_a replaced by nu_a + r and the same state labels: the
    Bessel equality of _in_span over that record's nonzero vectors g,
    each g . g its norm_sq (orthogonality dots them pairwise), which an
    empty record reads as u = 0.

    Why this replaces the C(k) eigen-equations and the generator block
    check: say every s_a map is an involution and every vector passes.
    X(2) = s_1 and c_2 = r = +-1, so X(2) c = c_2 c.  If X(a) c = c_a c
    for every vector, X(a+1) = s_a X(a) s_a + s_a gives X(a+1) c =
    c_{a+1} c: for |r| = 1 from s_a c = r c, for |r| >= 2 from
    s_a c = (c + u) / r, X(a) u = c_{a+1} u and s_a^2 = 1.  So every X(j),
    and so every C(k) = X(2) + ... + X(k), has its recorded eigenvalue,
    and s_a keeps each (shape, state-label) block.

    Orthogonality is read off the spectrum: with every map an involution
    the operators are symmetric, so vectors that pass unit_norm,
    eigen_equations and young_orthogonal_form with different records are
    orthogonal, and only record mates and short-record vectors (remainder
    leaves) are dotted.  Otherwise, or when a dot taken is not 0 (Bessel
    proves membership only over orthogonal mates), every pair is dotted.
    The maps of the s_a define a representation of S_n exactly when they
    satisfy the Coxeter relations (s_a s_b)^m = 1, m = 1, 3 or 2 for
    b = a, a + 1 or farther; what holds for the generators then holds for
    every element.
    """
    basis = table.basis
    n = basis.degree
    d = len(basis)
    vecs = table.vectors
    m = len(vecs)

    # CGTable holds norm_sq to the sum of squares: a positive one is a nonzero row
    bad_norm = [i for i, v in enumerate(vecs)
                if v.norm_sq <= 0 or primitive(v.coeffs) != tuple(v.coeffs)]

    op_maps = [state_maps(op, basis) for op in table.state_ops]
    failures = [
        (i, f"state op {idx}")
        for i, v in enumerate(vecs)
        for idx, (lab, maps) in enumerate(zip(v.chain.state_labels, op_maps))
        if apply_maps(maps, v.coeffs) != [lab * c for c in v.coeffs]
    ]
    generators = [transposition(a, a + 1, n) for a in range(1, n)]
    s_maps = element_maps(generators, basis)
    relations = [(i, str(generators[a - 1])) for i, a in _failed_relations(table, s_maps)]

    def nonorthogonal(partners) -> list[tuple[int, int]]:
        return [(i, j) for i in range(m) for j in partners(i)
                if dot(vecs[i].coeffs, vecs[j].coeffs)]

    short = {i for i, v in enumerate(vecs) if len(v.chain.state_labels) < len(op_maps)}
    spectral = not (bad_norm or failures or relations) and all(
        sigma[s] == t for maps in [s_maps, *op_maps] for sigma in maps for t, s in enumerate(sigma)
    )
    bad_pairs = []
    if spectral:
        bad_pairs = nonorthogonal(
            lambda i: range(i + 1, m) if i in short
            else sorted(j for j in short.union(table.records[vecs[i].chain]) if j > i))
    if bad_pairs or not spectral:
        bad_pairs = nonorthogonal(lambda i: range(i + 1, m))

    if m != d:
        completeness = Check(
            "completeness", "FAIL",
            f"{m} vectors for orbit size {d}; complete flag {table.complete}")
    elif table.complete:
        completeness = Check("completeness", "PASS")
    else:
        completeness = Check(
            "completeness", "WARN",
            f"{len(table.unlabeled)} of {m} vectors left unlabeled (flagged residue)")

    broken = []
    for a, sa in enumerate(s_maps):
        for b in range(a, n - 1):
            walk = range(d)
            # m = 1, 3 or 2 for b = a, a + 1 or farther
            for _ in range({0: 1, 1: 3}.get(b - a, 2)):
                walk = [sa[s_maps[b][t]] for t in walk]
            if walk != list(range(d)):
                broken.append((str(generators[a]), str(generators[b])))
    checks = [
        _verdict("unit_norm", bad_norm, f"vectors {bad_norm} break the normalization contract"),
        _verdict("orthogonality", bad_pairs, f"non-orthogonal pairs {bad_pairs[:5]}"),
        _verdict("eigen_equations", failures, f"failed equations {failures[:5]}"),
        completeness,
        _verdict("young_orthogonal_form", relations, f"failed relations {relations[:5]}"),
        _verdict("representation_property", broken,
                 f"generator maps break (s_a s_b)^m = 1 for {broken}"),
    ]
    if table.state_ops:
        bad_ops = [
            op for op, maps in zip(table.state_ops, op_maps)
            if any(tuple(smap[j] for j in gmap) != tuple(gmap[j] for j in smap)
                   for smap in maps for gmap in s_maps)
        ]
        checks.append(_verdict("state_particle_commutation", bad_ops,
                               f"non-commuting state operators {bad_ops}"))
    return VerifyReport(tuple(checks))


def block_structure_check(table: CGTable, elements: Sequence[Permutation]) -> Check:
    """Every group element must act block-diagonally on the resolved basis:
    no matrix element may connect vectors of different shapes or different
    state-label records.  A standalone check: verify_table does not call
    it, since its Young relations keep each block under the generators.

    For each transformed vector g v the exact Parseval identity over its
    own block, sum_b (g v . v_b)^2 / n_b = n_v, is asserted in integers by
    _in_span, with the norm_sq weights of the Young relations, so a vector
    whose norm_sq is not positive fails at once; for tables of at most 32
    kets every cross-block entry is also checked to be zero directly.
    """
    vecs = table.vectors
    for i, v in enumerate(vecs):
        if v.norm_sq <= 0:
            return Check("block_structure", "FAIL",
                         f"vector {i} has norm_sq {v.norm_sq}, so no Parseval sum holds")
    keys = [(v.tableau.shape, v.chain.state_labels) for v in vecs]
    spans = _spans(vecs, keys)
    direct = len(table.basis) <= 32
    for g, sigma in zip(elements, element_maps(elements, table.basis)):
        for i, v in enumerate(vecs):
            # an element map need not be an involution: image[sigma[j]] = coeffs[j]
            image = apply_maps([sigma], v.coeffs)
            if not _in_span(image, spans[keys[i]]):
                return Check(
                    "block_structure", "FAIL",
                    f"{g} maps vector {i} outside its (shape, state-label) block",
                )
            if direct:
                for b, u in enumerate(vecs):
                    if keys[b] != keys[i] and dot(image, u.coeffs) != 0:
                        return Check(
                            "block_structure", "FAIL",
                            f"{g} connects vectors {i} and {b} across blocks",
                        )
    return Check("block_structure", "PASS")


__all__ = [
    "InternalCheckError",
    "LabelChain",
    "LabeledVector",
    "CGTable",
    "StateOp",
    "normalize",
    "default_state_ops",
    "resolve",
    "verify_table",
    "VerifyReport",
    "Check",
    "block_structure_check",
]
