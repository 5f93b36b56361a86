"""One workload process: set up, then run the workload's commands in a
closed loop with one client, and print a JSON report as the last line.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 \
        --spawned-at T [--setup-only]

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process.  On Linux that clock is CLOCK_MONOTONIC, which all
processes share, so set-up time is measured from the spawn.

Set-up is importing ``symadapt`` and ``symadapt.cli`` (timed first, from a
bare interpreter), generating the inputs and one untimed warm-up command.
With ``--trace 0`` whole rounds of commands run until the timed commands
add up to about ``--seconds``: the run stops at the round boundary
nearest to it, so every run holds the same mix.  Between commands it
times the machine-speed loop of machine.py.  With ``--trace 1`` one
round runs, each command first untraced and then with spans recorded
around each layer.
"""
import sys
import time

START = time.perf_counter()

import os  # noqa: E402  (the import of symadapt below is timed from a bare interpreter)

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
_modules_before = len(sys.modules)
_import_start = time.perf_counter()
import symadapt  # noqa: E402,F401
import symadapt.cli  # noqa: E402

IMPORT_END = time.perf_counter()
MODULES_IMPORTED = len(sys.modules) - _modules_before

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402

import check  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(ROOT, ".bench_out")
COMMAND_TIMEOUT_S = 120


def startup(spawned_at: float) -> dict:
    return {
        "cli.process_start_ms": (START - spawned_at) * 1e3,
        "cli.import_ms": (IMPORT_END - _import_start) * 1e3,
        "cli.modules_imported": MODULES_IMPORTED,
    }


def run_in_process(argv) -> tuple[int | None, str, float, str]:
    """Run ``symadapt.cli.main`` on argv; returns (exit code, stdout,
    seconds, error).  A command that raises has exit code None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = symadapt.cli.main(list(argv))
        error = err.getvalue()
    except Exception as exc:  # a raising command is a failed command, the run goes on
        rc, error = None, repr(exc)
    return rc, out.getvalue(), time.perf_counter() - start, error


def run_subprocess(argv, traced_out: str | None = None) -> tuple[int | None, str, float, str]:
    """Run one command line as a fresh ``python -m symadapt`` process, or
    through the tracing shim when ``traced_out`` names its report file."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONIOENCODING="utf-8")
    start = time.perf_counter()
    if traced_out is None:
        cmd = [sys.executable, "-m", "symadapt", *argv]
    else:
        cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), traced_out, repr(start), *argv]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, encoding="utf-8",
                              env=env, cwd=ROOT, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start, f"timed out after {COMMAND_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, time.perf_counter() - start, proc.stderr


def judge(cmd: workloads.Command, rc, out: str, error: str) -> check.Outcome:
    """Exit 0 and 2 are legal; anything else, or a failed output check, fails."""
    if rc not in (0, 2):
        return check.Outcome(False, f"exit {rc}: {error.strip()[-300:]}")
    return check.check_output(list(cmd.argv), out)


def sample(cmd: workloads.Command, rc, out, seconds, error) -> dict:
    outcome = judge(cmd, rc, out, error)
    return {
        "argv": list(cmd.argv), "kets": cmd.kets, "s": seconds, "rc": rc, "ok": outcome.ok,
        "reason": outcome.reason, "vectors": outcome.vectors, "unlabeled": outcome.unlabeled,
    }


class TracedCommands:
    """Runs commands with spans recorded and sums their per-layer figures."""

    def __init__(self, plan: workloads.Plan):
        self.plan = plan
        self.tracer = spans.Tracer()
        self.layers: dict = {}
        self.starts: dict[str, list] = {}
        self.child = os.path.join(OUT_DIR, f"child_{plan.name}.json")
        os.makedirs(OUT_DIR, exist_ok=True)

    def run(self, index: int, cmd: workloads.Command) -> dict:
        if self.plan.in_process:
            self.tracer.command = index
            self.tracer.install()
            try:
                result = run_in_process(cmd.argv)
            finally:
                self.tracer.uninstall()
            return sample(cmd, *result)
        result = sample(cmd, *run_subprocess(cmd.argv, self.child))
        if not os.path.exists(self.child):
            return result  # the process died before its report; the sample already failed
        with open(self.child, encoding="utf-8") as handle:
            report = json.load(handle)
        os.remove(self.child)
        base = len(self.tracer.spans)
        self.tracer.spans.extend(
            (name, s, e, parent + base if parent >= 0 else -1, index)
            for name, s, e, parent, _ in report["spans"]
        )
        spans.merge(self.layers, spans.summarize(report["spans"], report["counts"]))
        for key, value in report["startup"].items():
            self.starts.setdefault(key, []).append(value)
        self.tracer.absent = report["absent"]
        return result

    def finish(self) -> dict:
        """Write the spans out and return the per-layer totals."""
        if self.plan.in_process:
            spans.merge(self.layers, spans.summarize(self.tracer.spans, self.tracer.counts))
        # per-command start-up figures: the median over the command processes
        for key, values in self.starts.items():
            values.sort()
            self.layers[key] = values[len(values) // 2]
        self.tracer.dump(os.path.join(OUT_DIR, f"spans_{self.plan.name}.jsonl.gz"))
        self.layers["absent"] = self.tracer.absent
        return self.layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    plan = workloads.plan(args.workload, args.seed)
    run = run_in_process if plan.in_process else run_subprocess
    samples = [dict(sample(plan.warmup, *run(plan.warmup.argv)), warmup=True)]
    report = {"ready_at": time.perf_counter(), "startup": startup(args.spawned_at)}
    if not args.setup_only:
        timed = []
        if args.trace:
            # each command untraced, then traced, so both see the same machine speed
            traced = TracedCommands(plan)
            untraced_s = traced_s = 0.0
            for i, cmd in enumerate(plan.next_round()):
                timed.append(sample(cmd, *run(cmd.argv)))
                timed.append(traced.run(i, cmd))
                untraced_s += timed[-2]["s"]
                traced_s += timed[-1]["s"]
            report.update(layers=traced.finish(), untraced_s=untraced_s, traced_s=traced_s)
        else:
            # whole rounds only, stopping at the round boundary nearest to
            # --seconds; each command carries the median time of the
            # machine-speed loop run between the commands of its round
            total = last = 0.0
            while total == 0.0 or total + last / 2 < args.seconds:
                loops = [machine.loop_s()]
                this_round = []
                for cmd in plan.next_round():
                    this_round.append(sample(cmd, *run(cmd.argv)))
                    loops.append(machine.loop_s())
                loops.sort()
                for s in this_round:
                    s["loop_s"] = loops[len(loops) // 2]
                timed += this_round
                last = sum(s["s"] for s in this_round)
                total += last
        samples += timed
        usage = resource.RUSAGE_SELF if plan.in_process else resource.RUSAGE_CHILDREN
        report["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    report["samples"] = samples
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
