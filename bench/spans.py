"""Spans around symadapt's layers, recorded from outside the package.

``install`` replaces public functions by wrappers in every symadapt
module namespace that binds them, which covers both the defining module
(for calls inside it, such as ``eigenrows_of_block`` calling ``kernel``)
and the modules where ``solver`` and ``cli`` look them up.  A target that
a version of the package no longer has is reported as absent.

Spans are kept in memory as (name, start, end, parent, command id) and
written out once, when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from fractions import Fraction
from time import perf_counter

# span name -> (module, attribute) of every function wrapped under that name
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "configs.orbit": (("symadapt.configs", "orbit"),),
    "operators.element_maps": (("symadapt.operators", "element_maps"),),
    "operators.state_maps": (("symadapt.operators", "state_maps"),),
    "operators.maps_to_matrix": (("symadapt.operators", "maps_to_matrix"),),
    "operators.apply_maps": (("symadapt.operators", "apply_maps"),),
    "linalg.restrict_apply": (("symadapt.linalg", "restrict_apply"),),
    "linalg.eigenrows_of_block": (("symadapt.linalg", "eigenrows_of_block"),),
    "linalg.kernel": (("symadapt.linalg", "kernel"),),
    "linalg.intersect": (("symadapt.linalg", "intersect"),),
    "linalg.Subspace.from_rows": (("symadapt.linalg", "Subspace.from_rows"),),
    "solver.resolve": (("symadapt.solver", "resolve"),),
    "solver.normalize": (("symadapt.solver", "normalize"),),
    "solver.verify_table": (("symadapt.solver", "verify_table"),),
    "solver.block_structure_check": (("symadapt.solver", "block_structure_check"),),
    "cli.render": (
        ("symadapt.cli", "render_text_table"),
        ("symadapt.cli", "render_csv_table"),
        ("symadapt.cli", "table_to_dict"),
        ("symadapt.cli", "canonical_json"),
    ),
}


def _bits(block) -> int:
    best = 0
    for row in block:
        for x in row:
            x = Fraction(x)
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _on_eigenrows(counts: dict, result) -> None:
    if result:
        counts["linalg.eigenrows_of_block.hits"] = counts.get("linalg.eigenrows_of_block.hits", 0) + 1


def _on_restrict(counts: dict, result) -> None:
    counts["linalg.restrict_apply.max_bits"] = max(
        counts.get("linalg.restrict_apply.max_bits", 0), _bits(result)
    )


def _on_resolve(counts: dict, result) -> None:
    for key, attr in (("applied", "state_ops"), ("skipped", "skipped_state_ops")):
        name = f"solver.state_ops.{key}"
        counts[name] = counts.get(name, 0) + len(getattr(result, attr, ()))


# counters read off a wrapped function's result, outside its span
ON_RESULT = {
    "linalg.eigenrows_of_block": _on_eigenrows,
    "linalg.restrict_apply": _on_restrict,
    "solver.resolve": _on_resolve,
}


class Tracer:
    """Spans and counters of one process; ``command`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.command = -1
        self.absent: list[str] = []
        self._undo: list = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        on_result = ON_RESULT.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.command)
            if on_result is not None:
                on_result(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target the loaded symadapt modules define."""
        self.absent = []
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "symadapt"]
        for name, places in TARGETS.items():
            found = False
            for module_name, attr in places:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                if attr == "Subspace.from_rows":
                    cls = getattr(module, "Subspace", None)
                    method = getattr(cls, "__dict__", {}).get("from_rows")
                    if isinstance(method, classmethod):
                        setattr(cls, "from_rows", classmethod(self.wrap(name, method.__func__)))
                        self._undo.append((cls, "from_rows", method))
                        found = True
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                found = True
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, command in self.spans:
                handle.write(json.dumps([name, start, end, parent, command]) + "\n")


def summarize(spans, counts: dict) -> dict[str, float]:
    """Per-layer totals of one process: calls, inclusive seconds and self
    seconds by span name, plus the counters.

    A span's self time is its duration minus the time its child spans
    cover; spans of one process are strictly nested, so that is the sum
    of the children's durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = dict(counts)
    for i, (name, start, end, _, _) in enumerate(spans):
        dur = end - start
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur - child[i]
    return out


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    """Add one process's summary into ``total``; bit widths take the max."""
    for key, value in part.items():
        if key.endswith("max_bits"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
