"""Spans around the calls into the program's layers, recorded from outside.

:func:`install` wraps each traced public function where callers look it
up: in every module of the package that bound the name (for example both
``simulation.tiered_mpdag`` and ``tiers.tiered_mpdag``), and on the class
for methods.  A span records its name, its parent span, its start and
end, and an optional count (paths found, pairs built, DAGs returned).
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: traced functions: module -> public names (``Class.method`` for methods)
TRACED = {
    "cli": ["main"],
    "formats": ["load_graph", "load_tiers", "format_graph"],
    "graphs": [
        "PDAG.is_chordal",
        "PDAG.has_partially_directed_cycle",
        "PDAG.chain_components",
        "PDAG.find_unshielded_paths",
    ],
    "independence": ["cpdag_of"],
    "orientation": [
        "tiered_mpdag",
        "check_consistency",
        "impose_knowledge",
        "meek_closure",
        "meek_closure_trace",
        "enumerate_class",
    ],
    "tiers": [
        "TieredOrdering.forbidden_pairs",
        "tiers_equivalent",
        "tiers_more_informative",
        "cross_tier_report",
        "compare_refinement",
    ],
    "ida": ["joint_ida"],
    "simulation": ["random_dag", "emit_results"],
}

#: spans whose result size is recorded as a count
COUNTED = {
    "tiers.forbidden_pairs": "pairs",
    "graphs.find_unshielded_paths": "paths",
    "orientation.enumerate_class": "dags",
}

#: modules where callers look names up
MODULES = ["cli", "formats", "graphs", "independence", "orientation", "tiers", "ida",
           "simulation", "paths"]


def _closure_name(args, kwargs) -> str:
    rules = tuple(kwargs.get("rules", args[1] if len(args) > 1 else (1, 2, 3, 4)))
    return {(1,): "rule1", (1, 2, 3, 4): "full"}.get(rules, "rules" + "".join(map(str, rules)))


class Recorder:
    """In-memory span log: one ``[name, parent, start, end, count]`` per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counted = name in COUNTED
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            full = name
            if name == "orientation.meek_closure":
                full = f"{name}.{_closure_name(args, kwargs)}"
            span = [full, stack[-1] if stack else -1, time.perf_counter(), 0.0, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counted:
                span[4] = len(result)
            return result

        return traced

    def mark(self) -> int:
        return len(self.spans)

    def summarize(self, begin: int, end: int, scale: float) -> dict:
        """Self time (ms, scaled), calls and counts per span name over
        ``spans[begin:end]``."""
        child = [0.0] * (end - begin)
        for k in range(begin, end):
            name, parent, start, stop, _ = self.spans[k]
            if parent >= begin:
                child[parent - begin] += stop - start
        out: dict = {}
        for k in range(begin, end):
            name, _, start, stop, count = self.spans[k]
            entry = out.setdefault(name, [0.0, 0, 0])
            entry[0] += (stop - start - child[k - begin]) * 1e3 * scale
            entry[1] += 1
            entry[2] += count
        return out


def install(package: str = "causaltiers") -> Recorder:
    """Wrap every traced function of ``package``; returns the recorder."""
    rec = Recorder()
    mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
    for short, names in TRACED.items():
        mod = mods[short]
        for qual in names:
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, rec.wrap(f"{short}.{meth}", getattr(cls, meth)))
                continue
            original = getattr(mod, qual)
            wrapped = rec.wrap(f"{short}.{qual}", original)
            for other in list(mods.values()) + [sys.modules[package]]:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapped)
    return rec
