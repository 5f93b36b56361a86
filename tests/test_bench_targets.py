"""The benchmark's tracer wraps package functions by name and reports a
target it cannot find as absent.  Every (module, attribute) it names must
resolve, so that renaming or deleting a traced helper fails here and not
only in a traced benchmark run."""
import importlib
import importlib.util
from functools import reduce
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [place for places in module.TARGETS.values() for place in places]


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
