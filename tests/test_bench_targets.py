"""The benchmark's tracer wraps package functions by name and reports a
target it cannot find as absent.  Every (module, attribute) it names must
resolve, so that renaming or deleting a traced helper fails here and not
only in a traced benchmark run.  The same tracer counts the calls of a
chain_repeated round, which are pinned word by word."""
import importlib
import importlib.util
from functools import reduce
from pathlib import Path

import pytest

from symadapt.cli import main

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    return [place for places in _spans().TARGETS.values() for place in places]


def test_every_traced_place_resolves():
    places = _targets()
    assert places
    missing = []
    for module_name, attr in places:
        try:
            target = reduce(getattr, attr.split("."), importlib.import_module(module_name))
        except (ImportError, AttributeError):
            missing.append((module_name, attr))
            continue
        assert callable(target), (module_name, attr)
    assert missing == []


# The work of one chain_repeated round, word by word: the benchmark's four
# multiplicity patterns, with no state operator queued, so the full chain
# runs.  The totals (477, 1493, 4066, 613) are a traced round's counts.
# This path stays as it is until bench/check.py, which re-checks every
# round, is bounded (ROADMAP item 1): a faster round runs more rounds and
# more checks.  So a change to this work fails here first; the ROADMAP's
# lane-B items change these numbers by design.
CHAIN_WORK = {
    "aaabbc": {"restrict_apply": 37, "kernel": 102, "apply_maps": 300, "normalize": 60},
    "aaaabbc": {"restrict_apply": 83, "kernel": 250, "apply_maps": 630, "normalize": 105},
    "aaaaabbc": {"restrict_apply": 168, "kernel": 539, "apply_maps": 1176, "normalize": 168},
    "aaaabbbc": {"restrict_apply": 189, "kernel": 602, "apply_maps": 1960, "normalize": 280},
}


@pytest.mark.parametrize("word", CHAIN_WORK)
def test_chain_repeated_does_the_pinned_work(word, capsys):
    spans = _spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        main(["basis", "--config", word, "--format", "json"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = spans.summarize(tracer.spans, tracer.counts)
    work = CHAIN_WORK[word]
    assert {
        "restrict_apply": calls["linalg.restrict_apply.calls"],
        "kernel": calls["linalg.kernel.calls"],
        "apply_maps": calls["operators.apply_maps.calls"],
        "normalize": calls["solver.normalize.calls"],
    } == work
    assert calls["linalg.eigenrows_of_block.calls"] == work["kernel"]
