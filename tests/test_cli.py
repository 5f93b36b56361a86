import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from symadapt import cli, linalg, operators, solver
from symadapt.cli import canonical_json, main, parse_state_ops
from symadapt.configs import StateAlphabet

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DATA = os.path.join(os.path.dirname(__file__), "data")
ORDER_FILE = os.path.join(DATA, "s3_distinct.ord")


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_state_ops():
    alpha = StateAlphabet("abc")
    assert parse_state_ops("(a b)", alpha) == [[(0, 1)]]
    assert parse_state_ops("(a b),(b c)", alpha) == [[(0, 1)], [(1, 2)]]
    assert parse_state_ops("(a b)+(a c)+(b c)", alpha) == [[(0, 1), (0, 2), (1, 2)]]
    with pytest.raises(ValueError):
        parse_state_ops("(a b)(b c)", alpha)
    with pytest.raises(ValueError):
        parse_state_ops("(a)", alpha)
    with pytest.raises(ValueError):
        parse_state_ops("(a z)", alpha)


# SHA-256 of `<subcommand> ... --format json` stdout.  The basis tables were
# pinned from the rational-arithmetic solver; the integer core, the
# branching-rule candidates and the X(k) chain split must reproduce them byte
# for byte.  The verify reports were pinned again when the Young relations
# replaced the jucys_murphy and block_structure checks: only those check
# names changed, each verdict and exit code held
STATE_OPS = ["--state-ops", "(a b)+(b c)+(a c),(a b)"]
# (a c) does not leave the (a b)+(c d) eigenspaces invariant, so it is skipped
SKIPPED_OP = ["--state-ops", "(a b)+(c d),(a c)"]
PINNED_JSON = [
    pytest.param(["basis", "--config", "aaabbc"], 2,
                 "3f0429642a866f04a5650351a48834a9126b808cc97dd976d441c9d280bddb01",
                 id="aaabbc"),
    pytest.param(["basis", "--config", "aaaabbc"], 2,
                 "4701fd2bf5c55910b64192a86cafc77a1dccdb81cfcf7afecee9ad5d0338e00a",
                 id="aaaabbc"),
    pytest.param(["basis", "--config", "abcde"], 2,
                 "7d5927f8a8e0e3a021fafbe86adc7e6445438593b9df0fd62a18d41c609bc752",
                 id="abcde"),
    pytest.param(["basis", "--config", "aabbcd"], 2,
                 "6f743636f82912117ee5078b029f4c8192d864168dc1bdd1b16f2ea85d755a8a",
                 id="aabbcd"),
    pytest.param(["basis", "--config", "aabbcc", *STATE_OPS], 0,
                 "69ac0ee98ffcfe0b3ee48dc8ba1cd10aec9db5dc066a7ed7525f5eef99b6ab15",
                 id="aabbcc-state-ops"),
    pytest.param(["verify", "--config", "abcd"], 0,
                 "9d927e4ec517784f8d54277543536c431927f3b6c9246d1c185ae0a0d48b8769",
                 id="verify-abcd"),
    pytest.param(["verify", "--config", "aabbcc"], 2,
                 "1413c7e8566584c91475f732964a7ef2b596e68b48de79870af43b91008f68bf",
                 id="verify-aabbcc"),
    pytest.param(["verify", "--config", "abcde"], 2,
                 "6ae623e5a8296002d1494d9177cd37f0cb10d36436230adbc470357911555a7f",
                 id="verify-abcde"),
    pytest.param(["verify", "--config", "aabbcd"], 2,
                 "1c75f33620ffd966a2dcbd2532fc2e7c63b875a95e80af1fcc5d1dbffaf6ac8f",
                 id="verify-aabbcd"),
    pytest.param(["verify", "--config", "aaaabbc"], 2,
                 "67b145a091c84cde7f26b0bf1affa0256b7eec5e64934c86f467cfacb22fd989",
                 id="verify-aaaabbc"),
    pytest.param(["verify", "--config", "aabbcc", *STATE_OPS], 0,
                 "2e3e225830db6fb2da624ebdb77a761b7877763dc5bc7b6cdbe1774c5f8f5035",
                 id="verify-aabbcc-state-ops"),
    # a skipped state operator, the 280-ket largest chain-only word, and a
    # complete lift by a three-term state operator
    pytest.param(["basis", "--config", "abcd", *SKIPPED_OP], 2,
                 "f49f192c82e30ce8d9bd8bd9b4d058c3f6b3bfcfd5ef6f9fe9fb729adefe2009",
                 id="abcd-skipped-op"),
    pytest.param(["basis", "--config", "aaaabbbc"], 2,
                 "e697807f97df9458c3bbff37e2f310458226c56f92d999b9a0374afefbce6dd6",
                 id="aaaabbbc"),
    pytest.param(["basis", "--config", "abcd", *STATE_OPS], 0,
                 "a14946d25f14309cd5fb7796b9cc3233a08169e50fe738e6d3d0a5dda475cc50",
                 id="abcd-state-ops"),
    pytest.param(["verify", "--config", "abcd", *SKIPPED_OP], 2,
                 "373c9201f900f0356652955fb79fb87f29b833df401c4e334d90f3dd43803575",
                 id="verify-abcd-skipped-op"),
    # path sums with irrational eigenvalues: their remainder leaves are
    # solved and lifted by linalg.split (digests taken before it existed)
    pytest.param(["basis", "--config", "abcde", "--state-ops", "(a b)+(b c)+(c d)+(d e)"], 2,
                 "6ca4e0ca701b774b1ab88f84d6b261c9da270655c3b94483bb207350e8cd8859",
                 id="abcde-path-remainder"),
    pytest.param(["basis", "--config", "abcd", "--state-ops", "(a b)+(b c)+(c d)"], 2,
                 "0e45da3037533b85169c0a8ee6237107ea62d8db644af833ad1e73c202d34902",
                 id="abcd-path-remainder"),
    # the default lifters on words with several equal-multiplicity pairs
    pytest.param(["basis", "--config", "aabbcc"], 2,
                 "60468f78844b3f72481c9f00639313e0ebb9fb031302d87672ab7c0f0fbaee7c",
                 id="aabbcc"),
    pytest.param(["basis", "--config", "aabcde"], 2,
                 "696ba8fa2c41ffed37a346d91966d4a5d77dd72292d97396e602013318611f57",
                 id="aabcde"),
    # spectra pinned from the dense C(k) kernels, now read off the X(k) chain
    pytest.param(["eigenvalues", "--config", "abcde", "--k", "5"], 0,
                 "5b4a1611c3f4fdcbaaa730d8b1e5c1e7f5496caa5edc027db5d11d0d9c8281cb",
                 id="eigenvalues-abcde-5"),
    pytest.param(["eigenvalues", "--config", "aabbcd", "--k", "6"], 0,
                 "7d3febc238780effa1f705dbf0932c6b4e206270fe203688bb90a7ce852a1894",
                 id="eigenvalues-aabbcd-6"),
    pytest.param(["eigenvalues", "--config", "aaaabbbc", "--k", "8"], 0,
                 "8ac6782c2c6d55c7c4b095025cf1d30be862d8800c955f4c4105c9895e7dbbe2",
                 id="eigenvalues-aaaabbbc-8"),
    pytest.param(["eigenvalues", "--config", "aaaabbbc", "--k", "5"], 0,
                 "509c590abb01f179b0f32a1253571c6dee0b009ca44e50fac37a0b7b06872c83",
                 id="eigenvalues-aaaabbbc-5"),
]


@pytest.mark.parametrize("args,want_code,digest", PINNED_JSON)
def test_basis_json_matches_pinned_digest(args, want_code, digest, capsys):
    code, out, err = run_cli([*args, "--format", "json"], capsys)
    assert code == want_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# SHA-256 of the eigenvalues and verify stdout in the other two formats,
# pinned before both commands shared one writer (verify again with the
# Young relations, as above)
PINNED_TEXT_CSV = [
    pytest.param(["eigenvalues", "--config", "aabbcd", "--k", "6", "--format", "text"], 0,
                 "a7a1f9933102486d635adcf41945fc78eb2bb3cdeb49532cb522fbbb209ed09d",
                 id="eigenvalues-aabbcd-6-text"),
    pytest.param(["eigenvalues", "--config", "aabbcd", "--k", "6", "--format", "csv"], 0,
                 "2600b04a8dc5dc10223c1ae06475d0e13191bc46d3328d22bf7aa47603fd926b",
                 id="eigenvalues-aabbcd-6-csv"),
    pytest.param(["verify", "--config", "abcd", "--format", "text"], 0,
                 "f23e3d0905c5db9ec4da46639e96e9316fca9ece445e6343253ab427cc59da4b",
                 id="verify-abcd-text"),
    pytest.param(["verify", "--config", "abcd", "--format", "csv"], 0,
                 "f47521e546daefcb0bc98bccf330685cd2b0a284401d732d2bdbfb7e21cf7dcd",
                 id="verify-abcd-csv"),
    pytest.param(["verify", "--config", "aabbcc", "--state-ops", "(a b)", "--format", "text"], 2,
                 "4a44de0123d58c82603e4a0caac6d975e8ff368799f3314db59405a7c48eed13",
                 id="verify-aabbcc-state-op-text"),
    pytest.param(["verify", "--config", "aabbcc", "--state-ops", "(a b)", "--format", "csv"], 2,
                 "aa5dbce4f2c471f6287a0bd9aeaec0d06ee4c30cb02463d15d654aa0f4936d5b",
                 id="verify-aabbcc-state-op-csv"),
]


@pytest.mark.parametrize("args,want_code,digest", PINNED_TEXT_CSV)
def test_text_and_csv_match_pinned_digest(args, want_code, digest, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == want_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_basis_text_with_skipped_state_operator(capsys):
    code, out, err = run_cli(["basis", "--config", "abcd", *SKIPPED_OP], capsys)
    assert code == 2
    assert "skipped state operators (not invariant on every leaf): (a c)" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "c4435bcf97e53657ea2abec7e76cdbd7a39e05e6e15c1f65cc57a6d9daef138b"
    )


def test_only_user_state_operators_are_reported_skipped(capsys):
    # the default lifters are disjoint swaps, so none is skipped; a user
    # operator that breaks the earlier pieces still is
    code, out, err = run_cli(["basis", "--config", "abcd"], capsys)
    assert code == 0
    assert "state operators: (a b), (c d)" in out.splitlines()
    assert not any(line.startswith("skipped") for line in out.splitlines())
    code, out, err = run_cli(["basis", "--config", "abcd", "--state-ops", "(a b),(a c)"], capsys)
    assert code == 2
    assert out.splitlines()[4] == "skipped state operators (not invariant on every leaf): (a c)"


def test_basis_aab_text(capsys):
    code, out, err = run_cli(["basis", "--config", "aab"], capsys)
    assert code == 0
    assert "configuration: aab" in out
    assert "complete: yes" in out
    assert "nu=(3,1)" in out and "nu=(0,1)" in out and "nu=(0,-1)" in out
    assert "2/√6 |aab> - 1/√6 |aba> - 1/√6 |baa>" in out
    assert "[1 3]" in out and "[2]" in out  # tableau rows on their own lines


def test_basis_aaa_single_vector(capsys):
    code, out, err = run_cli(["basis", "--config", "aaa"], capsys)
    assert code == 0
    assert "nu=(3,1)" in out
    assert "1 |aaa>" in out


def test_basis_ordering_override_and_state_ops(capsys):
    code, out, err = run_cli(
        ["basis", "--config", "abc", "--order", ORDER_FILE, "--state-ops", "(a b)",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "S3"
    assert doc["ordering"] == ["abc", "bac", "cba", "acb", "cab", "bca"]
    assert doc["complete"] is True
    vectors = {
        (tuple(v["nu"]), tuple(v["state_eigenvalues"])): (tuple(v["coeffs"]), v["norm_sq"])
        for v in doc["vectors"]
    }
    assert vectors[(0, 1), (1,)] == ((2, 2, -1, -1, -1, -1), 12)
    assert vectors[(3, 1), (1,)] == ((1, 1, 1, 1, 1, 1), 6)
    assert vectors[(-3, -1), (-1,)] == ((1, -1, -1, -1, 1, 1), 6)


def test_json_roundtrips_byte_identical(capsys):
    code, out, err = run_cli(["basis", "--config", "aabc", "--format", "json"], capsys)
    assert code == 0
    assert canonical_json(json.loads(out)) == out


def test_csv_output_columns(capsys):
    code, out, err = run_cli(["basis", "--config", "aab", "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["vector_id", "nu_chain", "tableau", "ket", "coeff_numerator", "norm_sq"]
    assert len(rows) == 1 + 3 * 3  # header + one row per (vector, ket) pair
    assert rows[1] == ["1", "3,1", "[[1,2,3]]", "aab", "1", "3"]
    assert rows[4] == ["2", "0,1", "[[1,2],[3]]", "aab", "2", "6"]


def test_eigenvalues_outputs(capsys):
    code, out, err = run_cli(["eigenvalues", "--config", "abc", "--k", "3"], capsys)
    assert code == 0 and out == "3:1, -3:1, 0:4\n"
    code, out, err = run_cli(["eigenvalues", "--config", "aab", "--k", "3"], capsys)
    assert code == 0 and out == "3:1, 0:2\n"
    code, out, err = run_cli(["eigenvalues", "--config", "ab", "--k", "2"], capsys)
    assert code == 0 and out == "1:1, -1:1\n"


def test_eigenvalues_json(capsys):
    code, out, err = run_cli(
        ["eigenvalues", "--config", "abc", "--k", "3", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3
    assert doc["eigenvalues"] == [[3, 1], [-3, 1], [0, 4]]


def test_eigenvalues_rejects_bad_k(capsys):
    code, out, err = run_cli(["eigenvalues", "--config", "abc", "--k", "7"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("k", ["1", "2"])
def test_eigenvalues_refuses_a_one_particle_word(k, capsys):
    code, out, err = run_cli(["eigenvalues", "--config", "a", "--k", k], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: eigenvalues needs at least 2 particles, the configuration has 1\n"


def test_verify_passes_small(capsys):
    code, out, err = run_cli(["verify", "--config", "abc"], capsys)
    assert code == 0
    assert "verification: PASS" in out
    assert "FAIL" not in out


def test_verify_passes_abcd(capsys):
    code, out, err = run_cli(["verify", "--config", "abcd"], capsys)
    assert code == 0
    assert "verification: PASS" in out


def test_verify_incomplete_exits_two(capsys):
    code, out, err = run_cli(["verify", "--config", "abcde"], capsys)
    assert code == 2
    assert "WARN completeness" in out
    assert "verification: PASS" in out


def test_basis_incomplete_exits_two(capsys):
    code, out, err = run_cli(["basis", "--config", "abcde"], capsys)
    assert code == 2
    assert "complete: no" in out
    assert "[unlabeled]" in out


@pytest.mark.parametrize("args", [
    pytest.param(["basis"], id="missing-config"),
    pytest.param(["basis", "--config", "aab", "--bogus"], id="unknown-flag"),
    pytest.param(["basis", "--config", "aab", "--format", "xml"], id="bad-format"),
    pytest.param(["eigenvalues", "--config", "aab", "--k", "x"], id="non-integer-k"),
])
def test_usage_error_exits_one(args, capsys):
    # exit 2 means a flagged residue, so argparse's usage errors must not use it
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_ordering_file_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.ord"
    bad.write_text("aab\naba\n", encoding="utf-8")
    code, out, err = run_cli(["verify", "--config", "aab", "--order", str(bad)], capsys)
    assert code == 1
    assert "ordering is not a permutation of orbit" in err


def test_ordering_file_with_a_byte_order_mark_reads_like_the_plain_file(tmp_path, capsys):
    bom = tmp_path / "bom.ord"
    with open(ORDER_FILE, "rb") as handle:
        bom.write_bytes(b"\xef\xbb\xbf" + handle.read())
    args = ["basis", "--config", "abc", "--format", "json", "--order"]
    plain = run_cli(args + [ORDER_FILE], capsys)
    assert plain[0] == 0
    assert run_cli(args + [str(bom)], capsys) == plain


def test_missing_ordering_file_exits_one(capsys):
    code, out, err = run_cli(["basis", "--config", "aab", "--order", "/nonexistent.ord"], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("text", ["", " ", ","])
def test_empty_state_ops_exits_one(text, capsys):
    code, out, err = run_cli(["basis", "--config", "abc", "--state-ops", text], capsys)
    assert code == 1
    assert out == ""
    assert "error: empty state operator" in err


def test_orbit_escaping_state_op_exits_one(capsys):
    code, out, err = run_cli(["basis", "--config", "aab", "--state-ops", "(a b)"], capsys)
    assert code == 1
    assert "does not preserve the orbit" in err


@pytest.mark.parametrize("command", ["basis", "verify"])
def test_verbose_refuses_a_bad_state_op_before_any_dump(command, capsys):
    # in the second list the bad operator is not the first one
    for config, ops in [("aab", "(a b)"), ("aabc", "(b c),(a b)")]:
        code, out, err = run_cli(
            [command, "--config", config, "--state-ops", ops, "--verbose"], capsys
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: state swap (a b) does not preserve the orbit: "
            "multiplicity of a is 2 but multiplicity of b is 1\n"
        )


def test_bad_config_label_exits_one(capsys):
    code, out, err = run_cli(["basis", "--config", "axb", "--alphabet", "ab"], capsys)
    assert code == 1
    assert "unknown state label" in err


def test_multicharacter_labels(capsys):
    code, out, err = run_cli(
        ["basis", "--config", "alpha,alpha,beta", "--alphabet", "alpha,beta"], capsys
    )
    assert code == 0
    assert "configuration: alpha,alpha,beta" in out
    assert "|alpha,beta,alpha>" in out


def test_state_op_chain_resolves_six_particle_orbit(capsys):
    code, out, err = run_cli(
        ["basis", "--config", "aabbcc", "--state-ops", "(a b),(a b)+(a c)+(b c)"],
        capsys,
    )
    assert code == 0
    assert "complete: yes" in out


def test_verbose_dumps_operators(capsys):
    code, out, err = run_cli(["basis", "--config", "aab", "--verbose"], capsys)
    assert code == 0
    assert "dim=3 label=C(2)" in err
    assert "dim=3 label=C(3)" in err


# SHA-256 of the `--verbose` stderr, pinned from the dense C(k) and
# state-operator matrices; the dump now reads the rows off the ket maps
@pytest.mark.parametrize("args,want_code,digest", [
    pytest.param(["basis", "--config", "aab"], 0,
                 "597611bb8c7bf2443f689246893f4d9ebef68b0f4ec077663f0b8d627ef73dc1",
                 id="basis-aab"),
    pytest.param(["verify", "--config", "aabbcc", "--state-ops", "(a b)"], 2,
                 "b5a9629724ec07327b554d06033bf43beac145f96ba80da7695c06a82b661b29",
                 id="verify-aabbcc-state-op"),
    pytest.param(["eigenvalues", "--config", "abcd", "--k", "3"], 0,
                 "ac8e6441d53d892e571f3a8fbdb7c02e20322322babd3f0b440dda71a00d9512",
                 id="eigenvalues-abcd-3"),
])
def test_verbose_stderr_matches_pinned_digest(args, want_code, digest, capsys):
    code, out, err = run_cli([*args, "--verbose"], capsys)
    assert code == want_code
    assert hashlib.sha256(err.encode("utf-8")).hexdigest() == digest


def test_the_chain_maps_each_transposition_once(monkeypatch, capsys):
    # with no state operator queued the chain applies X(2), ..., X(6),
    # whose terms are the 15 transpositions of S_6, each once
    calls = []
    real = operators.ket_map

    def counted(p, basis):
        calls.append(p)
        return real(p, basis)

    monkeypatch.setattr(operators, "ket_map", counted)
    run_cli(["basis", "--config", "aaabbc", "--format", "json"], capsys)
    assert len(calls) == 15
    assert len(set(calls)) == 15


@pytest.mark.parametrize("config", ["ab", "aabbcd", "abcde"])
def test_verify_fails_young_orthogonal_form_on_a_cross_block_mix(config, monkeypatch, capsys):
    # vector 0 (shape (n)) plus the last vector (another shape) keeps vector
    # 0's record, so (1 2) no longer fixes it as Young's orthogonal form says
    real = cli.resolve

    def mixed(basis, state_ops=None):
        table = real(basis, state_ops)
        first, last = table.vectors[0], table.vectors[-1]
        assert first.tableau.shape != last.tableau.shape
        coeffs = tuple(a + b for a, b in zip(first.coeffs, last.coeffs))
        first = replace(first, coeffs=coeffs, norm_sq=sum(c * c for c in coeffs))
        return replace(table, vectors=(first,) + table.vectors[1:])

    monkeypatch.setattr(cli, "resolve", mixed)
    code, out, _ = run_cli(["verify", "--config", config], capsys)
    assert code == 1
    (line,) = [ln for ln in out.splitlines() if "young_orthogonal_form" in ln]
    assert line.startswith("FAIL young_orthogonal_form: failed relations [(0, '(1 2)')")


def test_eigenvalues_rejects_state_ops(capsys):
    # state operators play no part in the C(k) spectrum, so eigenvalues offers no --state-ops
    with pytest.raises(SystemExit) as exc:
        main(["eigenvalues", "--config", "abcd", "--k", "3", "--state-ops", "(a b)"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --state-ops" in capsys.readouterr().err


def test_eigenvalues_solves_nothing(monkeypatch, capsys):
    # the spectrum is counted off row-insertion shapes: no chain, no kernel
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalues reached the eliminating code path")

    monkeypatch.setattr(solver, "_chain", refuse)
    monkeypatch.setattr(linalg, "kernel", refuse)
    code, out, err = run_cli(["eigenvalues", "--config", "aabbcd", "--k", "6"], capsys)
    assert (code, out, err) == (0, "15:1, -5:9, 9:15, -3:15, 5:36, 3:40, 0:64\n", "")


def test_cli_import_loads_no_rational_arithmetic():
    code = (
        "import sys, symadapt.cli; "
        "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "symadapt", "basis", "--config", "ab"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "nu=(1)" in proc.stdout and "nu=(-1)" in proc.stdout
