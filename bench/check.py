"""Output checks that share no code with the symadapt solver.

Every command the benchmark runs is checked here, outside the timed
section.  The checks parse what the CLI printed (text, JSON or CSV) and
test properties that hold for any correct table, whatever labelling
policy produced it:

* the orbit is every distinct rearrangement of the configuration word;
* one vector per orbit ket, each primitive (gcd 1), with a positive lead
  and sum of squares equal to its ``norm_sq``;
* the vectors are pairwise orthogonal;
* every label is a standard tableau, and a tableau of shape lambda labels
  exactly K(lambda, mu) vectors, where mu is the multiplicity pattern of
  the word and K is computed here;
* an ``eigenvalues --k`` spectrum equals the one predicted from Kostka
  numbers and hook lengths of the restriction to S_k;
* ``verify`` reports that it passed.

No output digest is pinned: labels may change between versions by
design, and only these invariants must hold.
"""
from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial, gcd, prod


@dataclass(frozen=True)
class Outcome:
    """What the check learnt about one command's output.

    ``vectors`` and ``unlabeled`` count emitted vectors and those tagged
    unlabeled; both are None when the output format does not show them.
    """

    ok: bool
    reason: str = ""
    vectors: int | None = None
    unlabeled: int | None = None


class CheckError(ValueError):
    """The output broke a property every correct output has."""


# ----------------------------- combinatorics -----------------------------

def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n with parts at most ``cap``, largest parts first."""
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(p,) + rest for p in range(min(n, cap), 0, -1) for rest in partitions(n - p, p)]


@lru_cache(maxsize=None)
def kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """K(shape, content): semistandard tableaux of ``shape`` with ``content``.

    The largest letter fills a horizontal strip, so peel that strip off
    in every possible way and recurse on the rest.

    >>> kostka((2, 1), (1, 1, 1))
    2
    >>> kostka((3, 1), (2, 2))
    1
    """
    content = tuple(c for c in content if c)
    shape = tuple(s for s in shape if s)
    if sum(shape) != sum(content):
        return 0
    if not content:
        return 1
    last, rest = content[-1], content[:-1]
    below = shape[1:] + (0,)
    total = 0
    # row i keeps between below[i] and shape[i] boxes
    for inner in product(*(range(b, s + 1) for s, b in zip(shape, below))):
        if sum(shape) - sum(inner) == last:
            total += kostka(inner, rest)
    return total


def hook_dim(shape: tuple[int, ...]) -> int:
    """Number of standard tableaux of ``shape`` (hook length formula)."""
    n = sum(shape)
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])] if shape else []
    hooks = prod(shape[r] - c + cols[c] - r - 1 for r in range(len(shape)) for c in range(shape[r]))
    return factorial(n) // hooks


def content_sum(shape: tuple[int, ...]) -> int:
    return sum(c - r for r, length in enumerate(shape) for c in range(length))


def multiplicity_pattern(word: str) -> tuple[int, ...]:
    return tuple(sorted(Counter(word).values(), reverse=True))


def orbit_size(word: str) -> int:
    return factorial(len(word)) // prod(factorial(m) for m in Counter(word).values())


def expected_spectrum(word: str, k: int) -> Counter:
    """Eigenvalue multiset of the class sum C(k) on the orbit of ``word``.

    Restricted to S_k x S_(n-k), the permutation module splits by the
    states of the first k particles (a composition alpha of k under the
    word's multiplicities): each alpha contributes M^alpha of S_k, once
    per arrangement of the remaining n-k particles.  M^alpha holds the
    irreducible S^lambda K(lambda, alpha) times, and C(k) acts on S^lambda
    by the content sum of lambda, with dimension f^lambda.
    """
    mults = list(Counter(word).values())
    n = len(word)
    spectrum: Counter = Counter()
    for alpha in product(*(range(m + 1) for m in mults)):
        if sum(alpha) != k:
            continue
        rest = [m - a for m, a in zip(mults, alpha)]
        copies = factorial(n - k) // prod(factorial(r) for r in rest)
        pattern = tuple(sorted(alpha, reverse=True))
        for lam in partitions(k):
            mult = kostka(lam, pattern)
            if mult:
                spectrum[content_sum(lam)] += copies * mult * hook_dim(lam)
    return spectrum


# ----------------------------- parsing -----------------------------

@dataclass(frozen=True)
class Vec:
    tableau: tuple[tuple[int, ...], ...]
    coeffs: tuple[int, ...]
    norm_sq: int
    tag: str | None  # "?" when the format does not show tags


@dataclass(frozen=True)
class Table:
    configuration: str
    ordering: tuple[str, ...]
    vectors: tuple[Vec, ...]


def _tableau(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in rows)


def parse_json_table(out: str) -> Table:
    obj = json.loads(out)
    vecs = tuple(
        Vec(_tableau(v["tableau"]), tuple(v["coeffs"]), v["norm_sq"], v.get("tag"))
        for v in obj["vectors"]
    )
    return Table(obj["configuration"], tuple(obj["ordering"]), vecs)


def parse_csv_table(out: str, configuration: str) -> Table:
    """A CSV table; the orbit order is the ket order of its first vector."""
    records = list(csv.DictReader(io.StringIO(out)))
    first = records[0]["vector_id"] if records else None
    ordering = tuple(r["ket"] for r in records if r["vector_id"] == first)
    index = {ket: i for i, ket in enumerate(ordering)}
    rows: dict[int, dict] = {}
    for rec in records:
        entry = rows.setdefault(int(rec["vector_id"]), {
            "tableau": _tableau(json.loads(rec["tableau"])),
            "norm_sq": int(rec["norm_sq"]),
            "coeffs": [0] * len(ordering),
        })
        if rec["ket"] not in index:
            raise CheckError(f"csv row names ket {rec['ket']!r} outside the orbit")
        entry["coeffs"][index[rec["ket"]]] = int(rec["coeff_numerator"])
    vecs = tuple(
        Vec(e["tableau"], tuple(e["coeffs"]), e["norm_sq"], "?")
        for _, e in sorted(rows.items())
    )
    return Table(configuration, ordering, vecs)


_HEAD = re.compile(r"vector \d+: nu=\S+ state=\S+(?: \[(\w+)\])?$")
_TERM = re.compile(r"^(-?)(\d+)(?:/√(\d+))?$")


def parse_text_table(out: str) -> Table:
    lines = out.splitlines()
    header = {}
    for line in lines:
        if not line:
            break
        key, _, value = line.partition(": ")
        header[key] = value
    ordering = tuple(header["orbit"].split())
    index = {ket: i for i, ket in enumerate(ordering)}
    vecs = []
    cur = None
    for line in lines:
        head = _HEAD.match(line)
        if head:
            cur = {"tag": head.group(1), "rows": []}
            continue
        if cur is None or not line.startswith("  "):
            continue
        body = line.strip()
        if body.startswith("["):
            cur["rows"].append(body[1:-1].split())
            continue
        coeffs = [0] * len(ordering)
        norm = 1
        toks = body.split()
        i = 0
        while i < len(toks):
            sign = 1
            if toks[i] in ("+", "-"):
                sign = -1 if toks[i] == "-" else 1
                i += 1
            m = _TERM.match(toks[i])
            ket = toks[i + 1]
            if not m or not (ket.startswith("|") and ket.endswith(">")) or ket[1:-1] not in index:
                raise CheckError(f"unreadable term {toks[i]} {ket} in vector {len(vecs) + 1}")
            coeffs[index[ket[1:-1]]] = sign * (-1 if m.group(1) else 1) * int(m.group(2))
            norm = int(m.group(3) or 1)
            i += 2
        vecs.append(Vec(_tableau(cur["rows"]), tuple(coeffs), norm, cur["tag"]))
        cur = None
    return Table(header["configuration"], ordering, tuple(vecs))


# ----------------------------- table properties -----------------------------

def _is_standard(t: tuple[tuple[int, ...], ...], n: int) -> bool:
    shape = [len(r) for r in t]
    if not shape or any(a < b for a, b in zip(shape, shape[1:])) or 0 in shape:
        return False
    if sorted(x for r in t for x in r) != list(range(1, n + 1)):
        return False
    if any(a >= b for r in t for a, b in zip(r, r[1:])):
        return False
    return all(up[c] < low[c] for up, low in zip(t, t[1:]) for c in range(len(low)))


def check_table(table: Table, word: str) -> None:
    """Raise CheckError unless ``table`` is a correct basis for ``word``."""
    n = len(word)
    if sorted(table.configuration) != sorted(word):
        raise CheckError(f"configuration {table.configuration!r} is not a rearrangement of {word!r}")
    d = orbit_size(word)
    if len(table.ordering) != d or len(set(table.ordering)) != d or any(
        sorted(k) != sorted(word) for k in table.ordering
    ):
        raise CheckError(f"orbit of {len(table.ordering)} kets is not the {d} rearrangements of {word!r}")
    if len(table.vectors) != d:
        raise CheckError(f"{len(table.vectors)} vectors for an orbit of {d} kets")

    for i, v in enumerate(table.vectors):
        g = 0
        for c in v.coeffs:
            g = gcd(g, c)
        lead = next((c for c in v.coeffs if c), 0)
        if len(v.coeffs) != d or sum(c * c for c in v.coeffs) != v.norm_sq or g != 1 or lead <= 0:
            raise CheckError(f"vector {i + 1} breaks the norm contract")

    sparse = [[(j, c) for j, c in enumerate(v.coeffs) if c] for v in table.vectors]
    dense = [v.coeffs for v in table.vectors]
    for i in range(d):
        for j in range(i + 1, d):
            if sum(c * dense[j][t] for t, c in sparse[i]):
                raise CheckError(f"vectors {i + 1} and {j + 1} are not orthogonal")

    mu = multiplicity_pattern(word)
    counts = Counter(v.tableau for v in table.vectors)
    per_shape: Counter = Counter()
    for t, count in counts.items():
        if not _is_standard(t, n):
            raise CheckError(f"label {t} is not a standard tableau of size {n}")
        shape = tuple(len(r) for r in t)
        want = kostka(shape, mu)
        if count != want:
            raise CheckError(f"tableau {t} labels {count} vectors, K{shape, mu} = {want}")
        per_shape[shape] += 1
    for lam in partitions(n):
        want = hook_dim(lam) if kostka(lam, mu) else 0
        if per_shape[lam] != want:
            raise CheckError(f"{per_shape[lam]} tableaux of shape {lam} appear, expected {want}")


# ----------------------------- per command -----------------------------

def _basis_outcome(table: Table) -> Outcome:
    tags = [v.tag for v in table.vectors]
    if "?" in tags:
        return Outcome(True)
    return Outcome(True, vectors=len(tags), unlabeled=sum(1 for t in tags if t == "unlabeled"))


def _spectrum_of(out: str, fmt: str) -> Counter:
    if fmt == "json":
        pairs = json.loads(out)["eigenvalues"]
    else:
        pairs = [item.split(":") for item in out.strip().split(", ")]
    spectrum: Counter = Counter()
    for nu, mult in pairs:
        spectrum[int(nu)] += int(mult)
    return spectrum


_UNLABELED = re.compile(r"(\d+) of (\d+) vectors left unlabeled")


def _verify_outcome(out: str, fmt: str, word: str) -> Outcome:
    if fmt == "json":
        obj = json.loads(out)
        passed = obj["passed"] is True
        checks = [(c["name"], c["status"], c["detail"]) for c in obj["checks"]]
    else:
        passed = out.rstrip().splitlines()[-1].startswith("verification: PASS")
        checks = []
        for line in out.splitlines()[:-1]:
            status, _, rest = line.partition(" ")
            name, _, detail = rest.partition(": ")
            checks.append((name, status, detail))
    if not passed:
        return Outcome(False, "verify did not pass")
    vectors = orbit_size(word)
    for name, status, detail in checks:
        if name == "completeness" and status != "PASS":
            m = _UNLABELED.search(detail)
            if not m or int(m.group(2)) != vectors:
                return Outcome(False, f"unreadable completeness detail {detail!r}")
            return Outcome(True, vectors=vectors, unlabeled=int(m.group(1)))
    return Outcome(True, vectors=vectors, unlabeled=0)


def check_output(argv: list[str], out: str) -> Outcome:
    """Check the standard output of one ``symadapt`` command line."""
    command = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    word = opts["--config"]
    fmt = opts.get("--format", "text")
    try:
        if command == "basis":
            if fmt == "json":
                table = parse_json_table(out)
            elif fmt == "csv":
                table = parse_csv_table(out, word)
            else:
                table = parse_text_table(out)
            check_table(table, word)
            return _basis_outcome(table)
        if command == "eigenvalues":
            got = _spectrum_of(out, fmt)
            want = expected_spectrum(word, int(opts["--k"]))
            if got != want:
                return Outcome(False, f"spectrum {dict(got)} != expected {dict(want)}")
            return Outcome(True)
        if command == "verify":
            return _verify_outcome(out, fmt, word)
    except CheckError as exc:
        return Outcome(False, str(exc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome(False, f"unreadable {command} output: {exc!r}")
    return Outcome(False, f"no check for command {command!r}")
