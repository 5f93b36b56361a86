"""Run one ``symadapt`` command line with spans recorded, as a stand-in
for ``python -m symadapt`` in the traced round of a subprocess workload.

    python3 bench/traced_cli.py REPORT SPAWNED_AT ARGV...

The command's output and exit code are those of ``symadapt.cli.main``.
The spans, counters and start-up figures go to the JSON file REPORT.
"""
import sys
import time

START = time.perf_counter()

import os  # noqa: E402  (the import of symadapt below is timed from a bare interpreter)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
_modules_before = len(sys.modules)
_import_start = time.perf_counter()
import symadapt  # noqa: E402,F401
import symadapt.cli  # noqa: E402

IMPORT_END = time.perf_counter()
MODULES_IMPORTED = len(sys.modules) - _modules_before

import json  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    report_path, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.install()
    tracer.command = 0
    try:
        return symadapt.cli.main(argv)
    finally:
        report = {
            "spans": tracer.spans,
            "counts": tracer.counts,
            "absent": tracer.absent,
            "startup": {
                "cli.process_start_ms": (START - spawned_at) * 1e3,
                "cli.import_ms": (IMPORT_END - _import_start) * 1e3,
                "cli.modules_imported": MODULES_IMPORTED,
            },
        }
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    sys.exit(main())
