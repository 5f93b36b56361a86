"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench        (or: python3 -m pytest bench)

They take about a minute: two traced runs of two workloads check that
the per-layer counts repeat exactly.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from collections import Counter

import check
import machine
import run
import spans
import workloads

sys.path.insert(0, os.path.join(run.ROOT, "src"))
import symadapt.cli  # noqa: E402

# per-layer figures that must repeat exactly between two runs of one seed
DETERMINISTIC = [
    name for name, unit in run.PER_LAYER
    if unit in ("count", "bits") or name.endswith("hit_ratio")
]


def cli_output(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        symadapt.cli.main(list(argv))
    return out.getvalue()


class CombinatoricsTest(unittest.TestCase):
    def test_kostka_numbers(self):
        self.assertEqual(check.kostka((3, 2), (2, 2, 1)), 2)
        self.assertEqual(check.kostka((2, 2), (1, 1, 1, 1)), 2)
        self.assertEqual(check.kostka((2, 1, 1), (2, 2)), 0)
        self.assertEqual(check.kostka((4,), (2, 1, 1)), 1)
        # permuting the content does not change a Kostka number
        self.assertEqual(check.kostka((3, 2, 1), (1, 2, 3)), check.kostka((3, 2, 1), (3, 2, 1)))

    def test_hook_dims_square_to_group_order(self):
        for n in range(1, 8):
            self.assertEqual(sum(check.hook_dim(lam) ** 2 for lam in check.partitions(n)),
                             check.orbit_size("abcdefgh"[:n]))

    def test_regular_spectrum_of_c4(self):
        want = Counter({6: 1, 2: 9, 0: 4, -2: 9, -6: 1})
        self.assertEqual(check.expected_spectrum("abcd", 4), want)


class OutputCheckTest(unittest.TestCase):
    def test_every_format_passes(self):
        for argv in (
            ["basis", "--config", "aabbc"],
            ["basis", "--config", "abcd", "--format", "json"],
            ["basis", "--config", "cab", "--format", "csv"],
            ["verify", "--config", "aabb"],
            ["verify", "--config", "abcd", "--format", "json"],
            ["eigenvalues", "--config", "aabbc", "--k", "4"],
            ["eigenvalues", "--config", "abcd", "--k", "3", "--format", "json"],
        ):
            outcome = check.check_output(argv, cli_output(*argv))
            self.assertTrue(outcome.ok, (argv, outcome.reason))

    def test_counts_unlabeled_vectors(self):
        argv = ["basis", "--config", "abcde", "--format", "json"]
        outcome = check.check_output(argv, cli_output(*argv))
        self.assertEqual((outcome.vectors, outcome.unlabeled), (120, 60))
        argv = ["verify", "--config", "abcde", "--format", "json"]
        outcome = check.check_output(argv, cli_output(*argv))
        self.assertEqual((outcome.vectors, outcome.unlabeled), (120, 60))

    def _broken(self, edit) -> check.Outcome:
        argv = ["basis", "--config", "aabc", "--format", "json"]
        table = json.loads(cli_output(*argv))
        edit(table["vectors"])
        return check.check_output(argv, json.dumps(table))

    def test_perturbed_coefficient_fails(self):
        def edit(vectors):
            v = vectors[3]
            j = next(i for i, c in enumerate(v["coeffs"]) if c)
            v["coeffs"][j] += 1
            v["norm_sq"] = sum(c * c for c in v["coeffs"])
        self.assertFalse(self._broken(edit).ok)

    def test_mislabelled_vector_fails(self):
        def edit(vectors):
            a = vectors[0]
            a["tableau"] = next(v["tableau"] for v in vectors if v["tableau"] != a["tableau"])
        self.assertFalse(self._broken(edit).ok)

    def test_missing_vector_fails(self):
        self.assertFalse(self._broken(lambda vectors: vectors.pop()).ok)

    def test_wrong_spectrum_fails(self):
        argv = ["eigenvalues", "--config", "aabbc", "--k", "4"]
        out = cli_output(*argv).replace(":", ":1", 1)
        self.assertFalse(check.check_output(argv, out).ok)

    def test_failed_verify_fails(self):
        argv = ["verify", "--config", "abcd", "--format", "json"]
        obj = json.loads(cli_output(*argv))
        obj["passed"] = False
        self.assertFalse(check.check_output(argv, json.dumps(obj)).ok)


class WorkloadTest(unittest.TestCase):
    def test_seed_fixes_inputs(self):
        for name in workloads.NAMES:
            a, b = workloads.plan(name, 7), workloads.plan(name, 7)
            self.assertEqual(a.round, b.round)
            self.assertEqual(a.next_round(), b.next_round())
            other = workloads.plan(name, 8)
            self.assertNotEqual(a.round, other.round)
            # another seed relabels the same multiplicity patterns
            self.assertEqual([c.kets for c in a.round], [c.kets for c in other.round])
            self.assertEqual(
                sorted(check.multiplicity_pattern(c.argv[2]) for c in a.round),
                sorted(check.multiplicity_pattern(c.argv[2]) for c in other.round),
            )

    def test_relabelling_keeps_letter_order(self):
        for seed in range(20):
            for cmd in workloads.plan("chain_repeated", seed).round:
                word = cmd.argv[2]
                counts = [word.count(x) for x in sorted(set(word))]
                self.assertEqual(counts, sorted(counts, reverse=True))


class ContractTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), workloads.NAMES)

    def test_result_line(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.BENCH, "run.py"), "--workload", "lift_verify",
             "--seed", "3", "--seconds", "0.1", "--trace", "0"],
            capture_output=True, text=True, cwd=run.ROOT, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, dict(run.END_TO_END))
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(run.ROOT, ".bench_out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cli_small", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=bare, timeout=170,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("metrics", proc.stdout)


class TimingTest(unittest.TestCase):
    def test_typical_round_takes_each_commands_scaled_mean(self):
        ref = machine.REFERENCE_S

        def timed(argv, seconds, loop):
            return {"argv": [argv], "kets": 10, "s": seconds, "loop_s": loop, "ok": True}

        samples = [timed("a", 1.0, ref), timed("b", 3.0, ref), timed("a", 1.0, ref / 2),
                   timed("b", 9.0, ref), timed("a", 4.0, ref), timed("b", 2.0, 2 * ref)]
        typical = {c["argv"][0]: c["s"] for c in run.typical_round(samples)}
        # a runs 1, 2 and 4 s at the reference speed, b 3, 9 and 1 s
        self.assertAlmostEqual(typical["a"], 7 / 3)
        self.assertAlmostEqual(typical["b"], 13 / 3)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans_ = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 5.0, 7.0, 0, 0),
                  ("d", 5.5, 6.0, 2, 0)]
        summary = spans.summarize(spans_, {"x.count": 3})
        self.assertEqual(summary["a.self_s"], 5.0)
        self.assertEqual(summary["c.self_s"], 1.5)
        self.assertEqual(summary["a.calls"], 1)
        self.assertEqual(summary["x.count"], 3)

    def test_missing_helper_is_absent(self):
        import symadapt.solver as solver
        original_resolve = solver.resolve
        saved = solver.block_structure_check
        del solver.block_structure_check
        tracer = spans.Tracer()
        try:
            tracer.install()
            cli_output("basis", "--config", "aabc")
        finally:
            tracer.uninstall()
            solver.block_structure_check = saved
        self.assertEqual(tracer.absent, ["solver.block_structure_check"])
        self.assertIs(solver.resolve, original_resolve)
        summary = spans.summarize(tracer.spans, tracer.counts)
        self.assertEqual(summary["solver.resolve.calls"], 1)
        self.assertGreater(summary["linalg.kernel.calls"], 0)
        self.assertLess(summary["solver.resolve.self_s"], summary["solver.resolve.s"])


class DeterministicCountsTest(unittest.TestCase):
    def _traced(self, workload: str) -> dict:
        report = run.spawn_worker(workload, 5, 0, 1, False, time.perf_counter() + run.RUN_LIMIT_S)
        self.assertTrue(all(s["ok"] for s in report["samples"]))
        values, missing = run.per_layer(report, 0.0)
        self.assertEqual(missing, [])
        return values

    def test_counts_repeat_exactly(self):
        for workload in ("cli_small", "lift_verify"):
            first, second = self._traced(workload), self._traced(workload)
            for name in DETERMINISTIC:
                self.assertEqual(first[name], second[name], (workload, name))
            self.assertGreater(first["linalg.eigenrows_of_block.calls"], 0)
            self.assertGreater(first["solver.state_ops.applied"], 0)


if __name__ == "__main__":
    unittest.main()
