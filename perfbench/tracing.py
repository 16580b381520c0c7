"""Spans and counts at the boundaries between rectaspec's modules.

The tracer replaces a public function in the namespace of the module that
calls it (``rectaspec.search.certify_two_sym`` rather than the definition in
``rectaspec.spectral``), so a span marks one call from one layer into
another.  Nothing inside rectaspec is edited; ``uninstall`` puts every
original back.  Spans stay in memory and are written out once, at the end of
the traced run.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter

# (calling module, attribute, span name).  Each name's prefix is the layer.
SPANS = [
    ("rectaspec.cli", "main", "cli.main"),
    ("rectaspec.formats", "parse_signed", "formats.parse"),
    ("rectaspec.formats", "parse_graph6", "formats.parse"),
    ("rectaspec.formats", "write_signed", "formats.write"),
    ("rectaspec.weighing", "write_weighing_text", "formats.write"),
    ("rectaspec.search", "write_graph6", "formats.write"),
    ("rectaspec.cli", "structure_report", "core.structure"),
    ("rectaspec.switching", "structure_report", "core.structure"),
    ("rectaspec.weighing", "structure_report", "core.structure"),
    ("rectaspec.search", "quadrangles", "core.quadrangles"),
    ("rectaspec.switching", "quadrangles", "core.quadrangles"),
    ("rectaspec.cli", "strongest_certificate", "spectral.certify"),
    ("rectaspec.search", "certify_two_sym", "spectral.certify"),
    ("rectaspec.weighing", "certify_two_sym", "spectral.certify"),
    ("rectaspec.switching", "charpoly", "exactlinalg.charpoly"),
    ("rectaspec.spectral", "charpoly", "exactlinalg.charpoly"),
    ("rectaspec.search", "scheme_layout", "switching.layout"),
    ("rectaspec.search", "class_invariants", "switching.invariants"),
    ("rectaspec.search", "switching_isomorphic", "switching.iso"),
    ("rectaspec.switching", "switching_isomorphic", "switching.iso"),
    ("rectaspec.search", "equivalent", "weighing.equiv"),
    ("rectaspec.weighing", "equivalent", "weighing.equiv"),
    ("rectaspec.search", "search_signatures", "search.search"),
    ("rectaspec.search", "search_weighing", "search.search"),
    ("rectaspec.search", "build_signature_problem", "search.build"),
    ("rectaspec.search", "dedupe_switching_classes", "search.dedupe"),
    ("rectaspec.search", "canonical_switch_key", "search.switch_key"),
    ("rectaspec.search", "run_search", "kernel.sig"),
    ("rectaspec.search", "run_weighing_search", "kernel.wm"),
]

# Counted without a span: one call per candidate isomorphism.
COUNTED = [
    ("rectaspec.switching", "solve_switch_for_perm", "switching.iso"),
    ("rectaspec.weighing", "solve_switch_for_perm", "weighing.equiv"),
]

LAYERS = ["kernel", "search", "spectral", "exactlinalg", "switching", "weighing",
          "core", "formats", "cli"]


def _on_result(span: str, result, counts: Counter) -> None:
    """Counts read off a call's result at the same boundary as its span."""
    if span == "kernel.sig":
        counts["kernel.sig_nodes"] += result[1]
        counts["kernel.sig_raw_solutions"] += len(result[0])
    elif span == "kernel.wm":
        counts["kernel.wm_nodes"] += result[1]
    elif span == "search.search" and hasattr(result, "solutions"):
        counts["search.classes"] += len(result.solutions)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, query id]
        self.counts: Counter = Counter()
        self.query = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.query])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            _on_result(name, result, counts)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name + "_candidates"] += 1
            counts[name + "_witnesses"] += result is not None
            return result

        return counted

    def install(self):
        for table, wrap in ((SPANS, self._wrap), (COUNTED, self._count)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: str):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "spans": self.spans}, fh)

    def summary(self, traced_wall: float, overhead: float) -> dict:
        """Per-layer metrics: self time per span name, counts, ratios, shares.

        ``traced_wall`` is the traced batch's raw wall time, the base of every
        share; ``overhead`` is its speed-corrected excess over the untraced
        batch."""
        self_time: Counter = Counter()
        calls: Counter = Counter()
        top_level = 0.0
        for name, start, end, parent, _query in self.spans:
            calls[name] += 1
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
            else:
                top_level += end - start
        c = self.counts

        def per_s(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        def ratio(part, base):
            return part / base if base else 0.0

        m = {
            "kernel.sig_calls": calls["kernel.sig"],
            "kernel.sig_s": self_time["kernel.sig"],
            "kernel.sig_nodes": c["kernel.sig_nodes"],
            "kernel.sig_nodes_per_s": per_s(c["kernel.sig_nodes"], self_time["kernel.sig"]),
            "kernel.sig_raw_solutions": c["kernel.sig_raw_solutions"],
            "kernel.wm_calls": calls["kernel.wm"],
            "kernel.wm_s": self_time["kernel.wm"],
            "kernel.wm_nodes": c["kernel.wm_nodes"],
            "kernel.wm_nodes_per_s": per_s(c["kernel.wm_nodes"], self_time["kernel.wm"]),
            "search.calls": calls["search.search"],
            "search.build_s": self_time["search.build"],
            "search.self_s": self_time["search.search"],
            "search.dedupe_s": self_time["search.dedupe"],
            "search.switch_key_calls": calls["search.switch_key"],
            "search.switch_key_s": self_time["search.switch_key"],
            "search.classes": c["search.classes"],
            "search.useful_ratio": ratio(c["search.classes"],
                                         c["kernel.sig_raw_solutions"]),
            "spectral.certify_calls": calls["spectral.certify"],
            "spectral.certify_s": self_time["spectral.certify"],
            "exactlinalg.charpoly_calls": calls["exactlinalg.charpoly"],
            "exactlinalg.charpoly_s": self_time["exactlinalg.charpoly"],
            "switching.layout_s": self_time["switching.layout"],
            "switching.invariants_calls": calls["switching.invariants"],
            "switching.invariants_s": self_time["switching.invariants"],
            "switching.iso_calls": calls["switching.iso"],
            "switching.iso_s": self_time["switching.iso"],
            "switching.iso_candidates": c["switching.iso_candidates"],
            "switching.iso_useful_ratio": ratio(c["switching.iso_witnesses"],
                                                c["switching.iso_candidates"]),
            "weighing.equiv_calls": calls["weighing.equiv"],
            "weighing.equiv_s": self_time["weighing.equiv"],
            "weighing.equiv_candidates": c["weighing.equiv_candidates"],
            "core.structure_calls": calls["core.structure"],
            "core.structure_s": self_time["core.structure"],
            "core.quadrangles_s": self_time["core.quadrangles"],
            "formats.parse_s": self_time["formats.parse"],
            "formats.write_s": self_time["formats.write"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_time["cli.main"],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": overhead,
            "trace.spans": len(self.spans),
            "trace.unattributed_s": traced_wall - top_level,
        }
        for layer in LAYERS:
            own = sum(t for name, t in self_time.items()
                      if name.split(".")[0] == layer)
            m[f"layer.{layer}_s"] = own
            m[f"layer.{layer}_share"] = ratio(own, traced_wall)
        m["layer.unattributed_share"] = ratio(m["trace.unattributed_s"], traced_wall)
        return m


UNITS = {"_s": "s", "_calls": "count", "_nodes": "count", "_solutions": "count",
         "_candidates": "count", "_per_s": "1/s", "_ratio": "ratio",
         "_share": "ratio", ".classes": "count", ".calls": "count",
         ".spans": "count"}


def unit_of(metric: str) -> str:
    for suffix in sorted(UNITS, key=len, reverse=True):
        if metric.endswith(suffix):
            return UNITS[suffix]
    raise KeyError(metric)
