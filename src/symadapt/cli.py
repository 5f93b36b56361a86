"""Command-line surface: compute and print coupling-coefficient tables,
class-operator spectra, and verification reports.

    symadapt basis       --config abc [--state-ops "(a b)"] [--format json]
    symadapt eigenvalues --config abc --k 3
    symadapt verify      --config abcd

Exit codes are a stable contract: 0 on success with a complete labeling,
1 on input or usage errors (or failed verification), 2 when a table is
emitted with honestly flagged residual degeneracy.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .configs import OrbitBasis, StateAlphabet, alphabet_for, orbit, parse_ordering
from .operators import class_maps, maps_to_matrix, state_maps
from .solver import CGTable, StateOp, resolve, verify_table
from .young import spectrum


def parse_state_ops(text: str, alphabet: StateAlphabet) -> list[list[tuple[int, int]]]:
    """Parse a state-operator list: operators are comma-separated, and one
    operator is a sum of transpositions, "(a b)" or "(a b)+(a c)+(b c)"."""
    ops = []
    for op_text in text.split(","):
        op_text = op_text.strip()
        if not op_text:
            raise ValueError(f"empty state operator in {text!r}")
        pairs = []
        for term in op_text.split("+"):
            term = term.strip()
            if not (term.startswith("(") and term.endswith(")")):
                raise ValueError(
                    f"state transposition {term!r} must look like (a b); "
                    "sum transpositions with '+', separate operators with ','"
                )
            toks = term[1:-1].split()
            if len(toks) != 2:
                raise ValueError(f"state transposition {term!r} needs exactly two states")
            pairs.append((alphabet.index(toks[0]), alphabet.index(toks[1])))
        ops.append(pairs)
    return ops


def read_inputs(args: argparse.Namespace) -> tuple[OrbitBasis, list[list[tuple[int, int]]] | None]:
    """The orbit basis and the parsed state operators of one invocation.

    Inputs are checked in a fixed order, before any output, so a run with
    several bad inputs always names the same one: alphabet, word, --order
    file, --state-ops syntax, the orbit, then the operators' multiplicities
    on that orbit, which their first user (the --verbose dump or resolve)
    checks."""
    alphabet = (
        StateAlphabet.from_text(args.alphabet) if args.alphabet else alphabet_for(args.config)
    )
    word = alphabet.word_from_text(args.config)
    ordering = None
    if args.order:
        with open(args.order, encoding="utf-8-sig") as handle:
            ordering = parse_ordering(handle, alphabet)
    state_ops = None
    # eigenvalues has no --state-ops
    if getattr(args, "state_ops", None) is not None:
        state_ops = parse_state_ops(args.state_ops, alphabet)
    basis = orbit(word, alphabet)
    if ordering is not None:
        basis = basis.with_ordering(ordering)
    return basis, state_ops


def _dump_operator(maps, dim: int, label: str) -> None:
    """Write an operator's matrix to stderr as a "dim=<d> label=<name>"
    header and one row per line: row i counts the maps with sigma[j] = i."""
    lines = [f"dim={dim} label={label}"]
    lines.extend(" ".join(map(str, row)) for row in maps_to_matrix(maps, dim))
    sys.stderr.write("\n".join(lines) + "\n")


def _dump_operators(basis: OrbitBasis, state_ops) -> None:
    # state_maps checks each operator, so a bad one is refused before any dump
    op_maps = [state_maps(op, basis) for op in state_ops or ()]
    for k in range(2, basis.degree + 1):
        _dump_operator(class_maps(k, basis), len(basis), f"C({k})")
    for i, maps in enumerate(op_maps):
        _dump_operator(maps, len(basis), f"state_op_{i}")


# ----------------------------- rendering -----------------------------

def _header(basis: OrbitBasis) -> dict:
    """The group and configuration that open every output."""
    return {
        "group": f"S{basis.degree}",
        "configuration": basis.alphabet.text_from_word(basis.seed),
    }


def _state_op_text(op: StateOp, alphabet: StateAlphabet) -> str:
    """A state operator as written on the command line: "(a b)+(c d)"."""
    labels = alphabet.labels
    return "+".join(f"({labels[s]} {labels[t]})" for s, t in op)


def coeff_text(c: int, norm_sq: int) -> str:
    """An exact radical coefficient, "c/√N"."""
    if norm_sq == 1:
        return str(c)
    return f"{c}/√{norm_sq}"


def _vector_terms(vector, kets: list[str]) -> str:
    parts = []
    for c, ket in zip(vector.coeffs, kets):
        if not c:
            continue
        mag = coeff_text(abs(c), vector.norm_sq)
        if not parts:
            parts.append(f"{'-' if c < 0 else ''}{mag} {ket}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {mag} {ket}")
    return " ".join(parts)


def _labels_text(values) -> str:
    return "(" + ",".join(str(x) for x in values) + ")"


def render_text_table(table: CGTable) -> str:
    basis = table.basis
    alpha = basis.alphabet
    lines = [f"{key}: {value}" for key, value in _header(basis).items()]
    texts = basis.texts()
    lines.append("orbit: " + " ".join(texts))
    ops = ", ".join(_state_op_text(op, alpha) for op in table.state_ops)
    lines.append(f"state operators: {ops if ops else '(none)'}")
    if table.skipped_state_ops:
        skipped = ", ".join(_state_op_text(op, alpha) for op in table.skipped_state_ops)
        lines.append(f"skipped state operators (not invariant on every leaf): {skipped}")
    lines.append(f"complete: {'yes' if table.complete else 'no'}")
    kets = [f"|{text}>" for text in texts]
    for idx, v in enumerate(table.vectors):
        lines.append("")
        head = f"vector {idx + 1}: nu={_labels_text(v.chain.nu)} state={_labels_text(v.chain.state_labels)}"
        if idx in table.unlabeled:
            head += " [unlabeled]"
        lines.append(head)
        lines.extend("  " + row for row in v.tableau.bracket_lines())
        lines.append("  " + _vector_terms(v, kets))
    return "\n".join(lines) + "\n"


def table_to_dict(table: CGTable) -> dict:
    basis = table.basis
    vectors = []
    for idx, v in enumerate(table.vectors):
        entry = {
            "nu": list(v.chain.nu),
            "state_eigenvalues": list(v.chain.state_labels),
            "tableau": [list(r) for r in v.tableau.rows],
            "coeffs": list(v.coeffs),
            "norm_sq": v.norm_sq,
        }
        if idx in table.unlabeled:
            entry["tag"] = "unlabeled"
        vectors.append(entry)
    return {
        **_header(basis),
        "ordering": basis.texts(),
        "vectors": vectors,
        "complete": table.complete,
    }


def canonical_json(obj) -> str:
    """The one JSON serialization used everywhere, so output round-trips
    byte-identically (insertion-ordered keys, integers only, no floats)."""
    return json.dumps(obj, indent=2) + "\n"


def _csv(header: list[str], rows) -> str:
    """CSV text: the header line, then one line per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def render_csv_table(table: CGTable) -> str:
    kets = table.basis.texts()

    def rows():
        for idx, v in enumerate(table.vectors, 1):
            nu_chain = ",".join(str(x) for x in v.chain.nu)
            tableau = json.dumps([list(r) for r in v.tableau.rows], separators=(",", ":"))
            for c, ket in zip(v.coeffs, kets):
                yield [idx, nu_chain, tableau, ket, c, v.norm_sq]

    return _csv(["vector_id", "nu_chain", "tableau", "ket", "coeff_numerator", "norm_sq"], rows())


def _write(fmt: str, **render) -> None:
    """Write one result to stdout in the requested format: ``render[fmt]()``
    builds its text, and no other format is built."""
    sys.stdout.write(render[fmt]())


# ----------------------------- commands -----------------------------

def cmd_basis(args: argparse.Namespace, table: CGTable) -> int:
    _write(
        args.format,
        json=lambda: canonical_json(table_to_dict(table)),
        csv=lambda: render_csv_table(table),
        text=lambda: render_text_table(table),
    )
    return 0 if table.complete else 2


def cmd_eigenvalues(args: argparse.Namespace, basis: OrbitBasis) -> int:
    k = args.k
    if basis.degree < 2:
        raise ValueError(
            f"eigenvalues needs at least 2 particles, the configuration has {basis.degree}")
    if not 2 <= k <= basis.degree:
        raise ValueError(f"--k must lie in 2..{basis.degree}, got {k}")
    if args.verbose:
        _dump_operator(class_maps(k, basis), len(basis), f"C({k})")
    pairs = spectrum(basis, k)
    _write(
        args.format,
        json=lambda: canonical_json(
            {**_header(basis), "k": k, "eigenvalues": [[nu, mult] for nu, mult in pairs]}),
        csv=lambda: _csv(["eigenvalue", "multiplicity"], pairs),
        text=lambda: ", ".join(f"{nu}:{mult}" for nu, mult in pairs) + "\n",
    )
    return 0


def cmd_verify(args: argparse.Namespace, table: CGTable) -> int:
    report = verify_table(table)
    checks = report.checks
    warned = sum(1 for c in checks if c.status == "WARN")
    verdict = "PASS" if report.passed else "FAIL"
    _write(
        args.format,
        json=lambda: canonical_json({
            **_header(table.basis),
            "checks": [{"name": c.name, "status": c.status, "detail": c.detail} for c in checks],
            "passed": report.passed,
            "complete": table.complete,
        }),
        csv=lambda: _csv(["check", "status", "detail"], ([c.name, c.status, c.detail] for c in checks)),
        text=lambda: "".join(line + "\n" for line in report.lines())
        + f"verification: {verdict} ({len(checks)} checks, {warned} warnings)\n",
    )
    if not report.passed:
        return 1
    return 0 if table.complete else 2


# ----------------------------- entry point -----------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the input-error code;
    argparse's own 2 is the code for a flagged residue."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="symadapt",
        description=(
            "Exact symmetry-adapted bases and coupling-coefficient tables for "
            "configurations of n particles under the symmetric group S_n."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(cmd: argparse.ArgumentParser, state_ops: bool) -> None:
        cmd.add_argument("--config", required=True,
                         help="configuration word, e.g. 'aab' or 'alpha,alpha,beta'")
        cmd.add_argument("--alphabet", default=None,
                         help="state alphabet, e.g. 'abc' or 'alpha,beta,gamma' "
                              "(default: the sorted distinct labels of --config)")
        cmd.add_argument("--order", default=None, metavar="FILE",
                         help="orbit ordering override: one configuration word per line")
        if state_ops:
            cmd.add_argument("--state-ops", default=None, metavar="LIST",
                             help="state operators, e.g. '(a b)' or '(a b),(a b)+(a c)+(b c)'")
        cmd.add_argument("--format", default="text", choices=("text", "csv", "json"))
        cmd.add_argument("--verbose", action="store_true",
                         help="dump operator matrices to standard error")

    add_options(sub.add_parser(
        "basis", help="compute and print the labeled basis / coefficient table"), True)
    eig = sub.add_parser("eigenvalues",
                         help="print the realized eigenvalue multiset of a class operator")
    add_options(eig, False)
    eig.add_argument("--k", type=int, required=True,
                     help="subgroup degree k of the class operator C(k)")
    add_options(sub.add_parser(
        "verify", help="recompute the table and run the exact verification suite"), True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        basis, state_ops = read_inputs(args)
        if args.command == "eigenvalues":
            return cmd_eigenvalues(args, basis)
        if args.verbose:
            _dump_operators(basis, state_ops)
        table = resolve(basis, state_ops)
        if args.command == "basis":
            return cmd_basis(args, table)
        return cmd_verify(args, table)
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed the pipe; leave quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
