"""The symadapt benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from the repository root; it needs only the standard library and
the package sources under ``src/``.  Each workload is a closed loop with
one client: the next command starts only after the previous one returned.

* ``cli_small``: sequential ``python -m symadapt`` processes on orbits of
  at most 30 kets, in the mix basis (text, json, csv), verify and
  eigenvalues --k.
* ``chain_repeated``: in-process ``symadapt.cli.main(["basis", ...])`` on
  words whose state multiplicities are all distinct (60-280 kets).
* ``lift_verify``: in-process ``symadapt.cli.main(["verify", ...])`` on
  equal-multiplicity words (24-180 kets).

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over several fresh workload processes of the time
  from spawning the process to its first timed command (import, input
  generation, one untimed warm-up command).  Half of these set-up-only
  processes start before the workload process and half after it.
* ``cmd_p50_ms`` / ``cmd_p90_ms``: median and 90th percentile (nearest
  rank) over the commands of a round of each command's mean time across
  the run's rounds (see ``typical_round``).
* ``kets_per_s``: summed orbit sizes of the commands that passed their
  check, over the summed times of all commands.
* ``peak_rss_mb``: peak resident memory of the workload process; for
  ``cli_small`` the largest command process.
* ``labeled_share``: vectors not tagged ``unlabeled`` over vectors emitted,
  where the output shows tags (CSV does not).  It is one minus the
  ``unlabeled_share`` printed in the table; a share that can be 0 cannot
  carry a relative bound.

Every time above is a wall time scaled to a fixed machine speed (see
machine.py): each command by the median time of the machine-speed loop
run between the commands of its round, each set-up by the loop timed
just before its spawn.

The table above the result line also prints ``unlabeled_share``,
``failed_share`` (commands that raised, exited 1 or failed the output
check, over commands attempted; exit 2 is a legal flagged residue), the
round count, ``time_scale`` (the median factor from wall time to scaled
time) and ``machine.ref_loop_s``, the median time of the machine-speed
loop run before and after the workload, which tells machine noise from
a program change.

``--trace 1`` runs one round, each command first untraced and then with
spans recorded around each layer (see spans.py), and prints the
per-layer metrics; ``trace.overhead_ratio`` is the traced wall time over
the untraced.  Spans are written to ``.bench_out/spans_<workload>.jsonl.gz``.

Every output is checked by check.py, outside the timed section.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import machine
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_RUNS = 6  # set-up-only processes whose set-up time is measured
RUN_LIMIT_S = 170  # every run ends within this, set-up included

END_TO_END = (
    ("setup_s", "s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_p90_ms", "ms"),
    ("kets_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("labeled_share", "ratio"),
)

PER_LAYER = (
    ("configs.orbit.s", "s"),
    ("operators.element_maps.s", "s"),
    ("operators.state_maps.s", "s"),
    ("operators.maps_to_matrix.s", "s"),
    ("operators.apply_maps.calls", "count"),
    ("operators.apply_maps.s", "s"),
    ("linalg.restrict_apply.calls", "count"),
    ("linalg.restrict_apply.s", "s"),
    ("linalg.restrict_apply.max_bits", "bits"),
    ("linalg.eigenrows_of_block.calls", "count"),
    ("linalg.eigenrows_of_block.s", "s"),
    ("linalg.eigenrows_of_block.hit_ratio", "ratio"),
    ("linalg.kernel.calls", "count"),
    ("linalg.kernel.s", "s"),
    ("linalg.intersect.s", "s"),
    ("linalg.Subspace.from_rows.s", "s"),
    ("solver.resolve.s", "s"),
    ("solver.resolve.self_s", "s"),
    ("solver.normalize.calls", "count"),
    ("solver.normalize.s", "s"),
    ("solver.verify_table.s", "s"),
    ("solver.block_structure_check.s", "s"),
    ("solver.state_ops.applied", "count"),
    ("solver.state_ops.skipped", "count"),
    ("cli.process_start_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.modules_imported", "count"),
    ("cli.render.s", "s"),
    ("machine.ref_loop_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def ref_loop() -> float:
    """Median of a few machine-speed loop times."""
    return statistics.median(machine.loop_s() for _ in range(5))


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    loop = ref_loop()
    spawned = time.perf_counter()
    cmd += ["--spawned-at", repr(spawned)]
    # its own session, so a timeout can stop the command processes it started too
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            encoding="utf-8", cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S} s") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{stderr[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = machine.scaled(report["ready_at"] - spawned, loop)
    return report


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def typical_round(timed: list[dict]) -> list[dict]:
    """One round of the run's commands, each timed by the mean of its
    scaled times across the run's rounds.

    Every round holds the same commands, whose times differ by up to
    fifty-fold.  A median over all of a run's commands would fall
    between the slowest run of one command and the quickest of the next,
    and follow their noise; a median over one round's typical commands
    does not.  A run holds only four or five rounds of the longest
    workload, and on it the mean of so few scaled times spread somewhat
    less from run to run than their median."""
    times: dict[tuple, list[dict]] = {}
    for s in timed:
        times.setdefault(tuple(s["argv"]), []).append(s)
    return [
        dict(cmds[0], s=statistics.fmean(machine.scaled(c["s"], c["loop_s"]) for c in cmds))
        for cmds in times.values()
    ]


def end_to_end(setups: list[float], report: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, and the extra figures printed in the table."""
    timed = [s for s in report["samples"] if not s.get("warmup")]
    typical = typical_round(timed)
    ms = [c["s"] * 1e3 for c in typical]
    shown = [s for s in timed if s["vectors"] is not None]
    vectors = sum(s["vectors"] for s in shown)
    unlabeled = sum(s["unlabeled"] for s in shown)
    values = {
        "setup_s": statistics.median(setups),
        "cmd_p50_ms": statistics.median(ms),
        "cmd_p90_ms": percentile(ms, 90),
        "kets_per_s": sum(s["kets"] for s in timed if s["ok"])
        / sum(machine.scaled(s["s"], s["loop_s"]) for s in timed),
        "peak_rss_mb": report["peak_rss_mb"],
        "labeled_share": 1 - unlabeled / vectors if vectors else 1.0,
    }
    extra = {"unlabeled_share": (unlabeled / vectors if vectors else 0.0, "ratio"),
             "rounds": (len(timed) // len(typical), "count"),
             "commands_per_round": (len(typical), "count"),
             "time_scale": (statistics.median(
                 machine.scaled(1.0, s["loop_s"]) for s in timed), "ratio")}
    return values, extra


def per_layer(report: dict, ref: float) -> tuple[dict, list[str]]:
    layers = report["layers"]
    absent = layers.pop("absent")
    values = {**report["startup"], **layers}
    calls = layers.get("linalg.eigenrows_of_block.calls", 0)
    values["linalg.eigenrows_of_block.hit_ratio"] = (
        layers.get("linalg.eigenrows_of_block.hits", 0) / calls if calls else 0.0
    )
    values["machine.ref_loop_s"] = ref
    values["trace.overhead_ratio"] = report["traced_s"] / report["untraced_s"]
    out = {}
    missing = []
    for name, _ in PER_LAYER:
        if any(name.startswith(layer + ".") for layer in absent):
            missing.append(name)
        else:
            out[name] = values.get(name, 0)  # 0: the layer exists but this workload never called it
    return out, missing


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    before = ref_loop()
    setup_only = 0 if trace else SETUP_RUNS
    setups = [spawn_worker(workload, seed, seconds, trace, True, deadline)
              for _ in range(setup_only // 2)]
    main = spawn_worker(workload, seed, seconds, trace, False, deadline)
    setups += [spawn_worker(workload, seed, seconds, trace, True, deadline)
               for _ in range(setup_only - setup_only // 2)]
    ref = (before + ref_loop()) / 2  # before and after the workload
    samples = [s for r in setups + [main] for s in r["samples"]]
    failed = [s for s in samples if not s["ok"]]
    if trace:
        values, missing = per_layer(main, ref)
        units = dict(PER_LAYER)
        extra = {}
    else:
        values, extra = end_to_end([r["setup_s"] for r in setups], main)
        missing = []
        units = dict(END_TO_END)
        extra["machine.ref_loop_s"] = (ref, "s")
    extra["failed_share"] = (len(failed) / len(samples), "ratio")

    print(f"workload {workload}  seed {seed}  trace {trace}")
    for name, value in values.items():
        print(f"  {name:40s} {value:>14.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    if missing:
        print("  absent in this version: " + ", ".join(missing))
    for s in failed[:5]:
        print(f"  FAILED {' '.join(s['argv'])}: {s['reason']}")
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="symadapt benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "symadapt", "cli.py")):
        sys.stderr.write(f"error: no symadapt sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
