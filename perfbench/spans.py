"""Span tracing of the sstopo layers from outside the package.

`Tracer.install()` rebinds module attributes so that every call into a layer
goes through a wrapper that records one span: name, start, end, parent span
and case id. Where a module imported a function by name, the name is rebound
in the module that calls it. Spans stay in memory until `write()`.

A span's self time is its duration minus the time its direct child spans
cover; the layers are called synchronously, so children never overlap.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass

import sstopo._kernels
import sstopo.mapper
import sstopo.pipeline
import sstopo.twostep


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    case: str
    counts: dict | None = None


def _domain_counts(_args, result) -> dict:
    return {"points": int(result.points1.shape[0] + result.points2.shape[0]),
            "correspondences": int(result.correspondences.shape[0])}


def _cloud_points(args, _result) -> dict:
    return {"points": int(len(args[0]))}


def _two_step_counts(_args, result) -> dict:
    return {"initial_s": result.seconds_initial, "refine_s": result.seconds_refine,
            "nodes": result.graph.node_count, "edges": result.graph.edge_count}


def _flagged(_args, result) -> dict:
    return {"flagged": int(result >= 2)}


def _characteristic_counts(_args, result) -> dict:
    return {"boundary_nodes": len(result.boundary_nodes),
            "singular_nodes": len(result.singular_nodes)}


def _segment_count(_args, result) -> dict:
    return {"segments": len(result.segments)}


def _file_bytes(path_arg: int):
    def measure(args, _result) -> dict:
        return {"bytes": os.path.getsize(args[path_arg])}
    return measure


# (owner, attribute, span name, counter function). Each attribute is rebound
# where the caller looks it up at call time, so sweep_theta's own calls to
# run_pipeline are traced too.
BINDINGS = (
    (sstopo.pipeline, "run_pipeline", "pipeline.run_pipeline", None),
    (sstopo.pipeline, "run_mapper_only", "pipeline.run_mapper_only", None),
    (sstopo.pipeline, "sweep_theta", "pipeline.sweep_theta", None),
    (sstopo.pipeline, "intersect_surfaces", "subdivision", _domain_counts),
    (sstopo._kernels, "insert_knot", "kernels.insert_knot", None),
    (sstopo.pipeline, "run_two_step", "twostep", _two_step_counts),
    (sstopo.twostep, "split_interval_count", "twostep.split_interval_count", _flagged),
    (sstopo.twostep, "build_mapper_graph", "mapper.build_graph", None),
    (sstopo.twostep, "compute_l0", "mapper.compute_l0", None),
    (sstopo.mapper, "compute_l0", "mapper.compute_l0", None),
    (sstopo.mapper, "neighbor_components", "kernels.neighbor_components", _cloud_points),
    (sstopo.mapper, "neighbor_sup_abs_diff", "kernels.neighbor_sup_abs_diff", _cloud_points),
    (sstopo.pipeline, "approximate_boundary_set", "partition.boundary", None),
    (sstopo.pipeline, "classify_characteristic_nodes", "partition.classify",
     _characteristic_counts),
    (sstopo.pipeline, "partition", "partition.partition", _segment_count),
    (sstopo.pipeline, "match_across_domains", "partition.match", None),
    (sstopo.pipeline.ResultDocument, "save", "exports.save", _file_bytes(1)),
    (sstopo.pipeline, "write_gml", "exports.gml", _file_bytes(0)),
    (sstopo.pipeline, "write_svg", "exports.svg", _file_bytes(0)),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.case = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, measure):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.case)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if measure is not None:
                span.counts = measure(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, measure in BINDINGS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, measure))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, case."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tcase\n")
            for s in self.spans:
                fh.write(f"{s.name}\t{s.start!r}\t{s.end!r}\t{s.parent}\t{s.case}\n")


LAYER_METRICS = (
    ("subdivision.s", "s"),
    ("subdivision.calls", "count"),
    ("subdivision.points", "count"),
    ("subdivision.correspondences", "count"),
    ("subdivision.correspondences_per_insert", "ratio"),
    ("subdivision.share", "ratio"),
    ("kernels.insert_knot.calls", "count"),
    ("kernels.insert_knot.s", "s"),
    ("kernels.neighbor_components.calls", "count"),
    ("kernels.neighbor_components.points", "count"),
    ("kernels.neighbor_components.s", "s"),
    ("kernels.neighbor_sup_abs_diff.calls", "count"),
    ("kernels.neighbor_sup_abs_diff.points", "count"),
    ("kernels.neighbor_sup_abs_diff.s", "s"),
    ("mapper.build_graph.calls", "count"),
    ("mapper.build_graph.s", "s"),
    ("mapper.compute_l0.calls", "count"),
    ("mapper.compute_l0.s", "s"),
    ("mapper.nodes", "count"),
    ("mapper.edges", "count"),
    ("twostep.s", "s"),
    ("twostep.initial_s", "s"),
    ("twostep.refine_s", "s"),
    ("twostep.split_interval_count.calls", "count"),
    ("twostep.flagged_nodes", "count"),
    ("partition.boundary.s", "s"),
    ("partition.classify.s", "s"),
    ("partition.partition.s", "s"),
    ("partition.match.s", "s"),
    ("partition.boundary_nodes", "count"),
    ("partition.singular_nodes", "count"),
    ("partition.segments", "count"),
    ("pipeline.s", "s"),
    ("pipeline.subdivisions_per_sweep", "count"),
    ("exports.save.s", "s"),
    ("exports.gml.s", "s"),
    ("exports.svg.s", "s"),
    ("exports.bytes", "bytes"),
    ("trace.solve_s", "s"),
    ("trace.overhead_s", "s"),
)


def pass_metrics(spans: list[Span], first: int, last: int, solve_s: float) -> dict:
    """Per-layer figures for the spans `spans[first:last]` of one pass."""
    child = defaultdict(float)
    for s in spans[first:last]:
        if s.parent >= first:
            child[s.parent] += s.end - s.start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    sweep_subdivisions = 0
    for i in range(first, last):
        s = spans[i]
        layer = "pipeline" if s.name.startswith("pipeline.") else s.name
        calls[s.name] += 1
        self_s[layer] += s.end - s.start - child[i]
        for key, value in (s.counts or {}).items():
            counts[f"{s.name}.{key}"] += value
        if s.name == "subdivision" and _has_ancestor(spans, i, "pipeline.sweep_theta"):
            sweep_subdivisions += 1
    inserts = calls["kernels.insert_knot"]
    sweeps = calls["pipeline.sweep_theta"]
    return {
        "subdivision.s": self_s["subdivision"],
        "subdivision.calls": calls["subdivision"],
        "subdivision.points": counts["subdivision.points"],
        "subdivision.correspondences": counts["subdivision.correspondences"],
        "subdivision.correspondences_per_insert":
            counts["subdivision.correspondences"] / inserts if inserts else 0.0,
        "subdivision.share":
            (self_s["subdivision"] + self_s["kernels.insert_knot"]) / solve_s,
        "kernels.insert_knot.calls": inserts,
        "kernels.insert_knot.s": self_s["kernels.insert_knot"],
        "kernels.neighbor_components.calls": calls["kernels.neighbor_components"],
        "kernels.neighbor_components.points": counts["kernels.neighbor_components.points"],
        "kernels.neighbor_components.s": self_s["kernels.neighbor_components"],
        "kernels.neighbor_sup_abs_diff.calls": calls["kernels.neighbor_sup_abs_diff"],
        "kernels.neighbor_sup_abs_diff.points":
            counts["kernels.neighbor_sup_abs_diff.points"],
        "kernels.neighbor_sup_abs_diff.s": self_s["kernels.neighbor_sup_abs_diff"],
        "mapper.build_graph.calls": calls["mapper.build_graph"],
        "mapper.build_graph.s": self_s["mapper.build_graph"],
        "mapper.compute_l0.calls": calls["mapper.compute_l0"],
        "mapper.compute_l0.s": self_s["mapper.compute_l0"],
        "mapper.nodes": counts["twostep.nodes"],
        "mapper.edges": counts["twostep.edges"],
        "twostep.s": self_s["twostep"],
        "twostep.initial_s": counts["twostep.initial_s"],
        "twostep.refine_s": counts["twostep.refine_s"],
        "twostep.split_interval_count.calls": calls["twostep.split_interval_count"],
        "twostep.flagged_nodes": counts["twostep.split_interval_count.flagged"],
        "partition.boundary.s": self_s["partition.boundary"],
        "partition.classify.s": self_s["partition.classify"],
        "partition.partition.s": self_s["partition.partition"],
        "partition.match.s": self_s["partition.match"],
        "partition.boundary_nodes": counts["partition.classify.boundary_nodes"],
        "partition.singular_nodes": counts["partition.classify.singular_nodes"],
        "partition.segments": counts["partition.partition.segments"],
        "pipeline.s": self_s["pipeline"],
        "pipeline.subdivisions_per_sweep": sweep_subdivisions / sweeps if sweeps else 0.0,
        "exports.save.s": self_s["exports.save"],
        "exports.gml.s": self_s["exports.gml"],
        "exports.svg.s": self_s["exports.svg"],
        "exports.bytes": (counts["exports.save.bytes"] + counts["exports.gml.bytes"]
                          + counts["exports.svg.bytes"]),
    }


def _has_ancestor(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_report(per_pass: list[dict], traced_solve: list[float],
                 untraced_solve: list[float]) -> dict:
    """Median of each per-pass figure, plus the tracing overhead."""
    traced = statistics.median(traced_solve)
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.solve_s"] = traced
    values["trace.overhead_s"] = traced - statistics.median(untraced_solve)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
