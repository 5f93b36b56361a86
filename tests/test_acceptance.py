"""Acceptance suite: one test per criterion, exact comparisons throughout.

Golden coefficient tables are compared after both sides pass through
normalize(), which fixes the leading sign; that is precisely "equal up to
a global sign per vector".
"""
import json
import subprocess
import sys
import time
from collections import Counter

from symadapt.solver import block_structure_check, normalize, resolve, verify_table

from helpers import make_basis, random_permutation, s3_distinct_basis
from oracles import (
    candidate_eigenvalues,
    class_operator,
    eigenspace,
    from_rows,
    spectral_projection_columns,
)

import random


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num} {name}: PASS")


def labeled(table):
    return {
        (v.chain.nu, v.chain.state_labels): (v.coeffs, v.norm_sq)
        for v in table.vectors
    }


def test_criterion_1_two_state_golden():
    table = resolve(make_basis("ab"))
    got = labeled(table)
    assert got[((1,), ())] == (normalize((1, 1))[0], 2)
    assert got[((-1,), ())] == (normalize((1, -1))[0], 2)
    assert len(table.vectors) == 2 and table.complete
    _report(1, "two-state golden table")


def test_criterion_2_repeated_state_golden():
    table = resolve(make_basis("aab"))
    assert table.complete
    rows = [(v.chain.nu, v.coeffs, v.norm_sq, v.tableau.rows) for v in table.vectors]
    assert rows == [
        ((3, 1), (1, 1, 1), 3, ((1, 2, 3),)),
        ((0, 1), (2, -1, -1), 6, ((1, 2), (3,))),
        ((0, -1), (0, 1, -1), 2, ((1, 3), (2,))),
    ]
    _report(2, "repeated-state golden table")


def test_criterion_3_distinct_state_golden():
    table = resolve(s3_distinct_basis(), [[(0, 1)]])
    assert table.complete
    got = labeled(table)
    published = {
        ((0, 1), (1,)): (2, 2, -1, -1, -1, -1),
        ((0, -1), (1,)): (0, 0, -1, 1, -1, 1),
        ((0, 1), (-1,)): (0, 0, -1, 1, 1, -1),
        ((0, -1), (-1,)): (2, -2, 1, 1, -1, -1),
        ((3, 1), (1,)): (1, 1, 1, 1, 1, 1),
        ((-3, -1), (-1,)): (1, -1, -1, -1, 1, 1),
    }
    assert set(got) == set(published)
    for key, vec in published.items():
        coeffs, norm_sq = normalize(vec)  # comparison up to a global sign
        assert got[key] == (coeffs, norm_sq)
    _report(3, "distinct-state golden table with state operator")


def test_criterion_4_class_sum_spectrum():
    basis = make_basis("abc")
    matrix = class_operator(3, basis)
    multiset = Counter()
    for nu in candidate_eigenvalues(3):
        dim = eigenspace(matrix, nu).dim
        if dim:
            multiset[nu] = dim
    assert multiset == Counter({3: 1, -3: 1, 0: 4})
    _report(4, "class-sum spectrum on the distinct-state orbit")


def test_criterion_5_property_suite_n4_n5():
    start = time.monotonic()
    rng = random.Random(20250)
    for cfg in ["abcd", "aabb", "aabc", "abcde", "aabbc"]:
        basis = make_basis(cfg)
        table = resolve(basis)
        report = verify_table(table)
        assert report.passed, (cfg, report.lines())
        statuses = {c.name: c.status for c in report.checks}
        for name in ("unit_norm", "orthogonality", "eigen_equations", "young_orthogonal_form"):
            assert statuses[name] == "PASS", (cfg, name)
        assert statuses["completeness"] in ("PASS", "WARN")
        if statuses["completeness"] == "WARN":
            assert not table.complete  # flagged, not silently wrong
        elements = [random_permutation(basis.degree, rng) for _ in range(10)]
        assert block_structure_check(table, elements).status == "PASS", cfg
        assert len(table.vectors) == len(basis)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"property suite took {elapsed:.1f}s"
    _report(5, f"n=4/n=5 property suite in {elapsed:.1f}s")


def test_criterion_6_projection_oracle_equivalence():
    for cfg in ["ab", "aaa", "aab", "abc", "aabb", "aabc", "abcd"]:
        basis = make_basis(cfg)
        if len(basis) > 24:
            continue
        for k in range(2, basis.degree + 1):
            matrix = class_operator(k, basis)
            cands = candidate_eigenvalues(k)
            for nu in cands:
                cols = spectral_projection_columns(matrix, nu, cands)
                span = from_rows(len(basis), cols)
                assert span == eigenspace(matrix, nu), (cfg, k, nu)
    _report(6, "kernel eigenspaces equal spectral-projection spans")


def test_criterion_7_candidate_completeness():
    for cfg in ["ab", "aab", "abc", "aabb", "aabc", "abcd", "abcde", "aabbc"]:
        basis = make_basis(cfg)
        for k in range(2, min(basis.degree, 5) + 1):
            matrix = class_operator(k, basis)
            cands = candidate_eigenvalues(k)
            total = 0
            for nu in cands:
                total += eigenspace(matrix, nu).dim
            # dims summing to the orbit size means no eigenvalue exists
            # outside the candidate set
            assert total == len(basis), (cfg, k)
    _report(7, "content-sum candidates cover every realized spectrum")


def test_criterion_8_byte_identical_json():
    cmd = [sys.executable, "-m", "symadapt", "basis", "--config", "aabc", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # nonempty
    json.loads(first.stdout.decode())  # and valid
    _report(8, "byte-identical repeated JSON runs")
