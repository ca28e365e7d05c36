"""Smoke test of the benchmark's span tracer against the current package.

The tracer rebinds module attributes by name, so a renamed or inlined call
silently drops its layer from the per-layer figures. This imports the
tracer from `perfbench/` without changing it and runs one tiny sweep.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import sstopo.pipeline
from sstopo import MapperParams, PipelineConfig, run_two_step
from sstopo.synthetic import recommended_delta

from corpus import NOISE, STEP, plane_patch, saddle_patch, three_curves_cloud

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look themselves up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_traces_one_subdivision_per_sweep(spans):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.BINDINGS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, _, _), original in zip(spans.BINDINGS, originals):
            assert owner.__dict__[attr] is not original, attr
        # Through the module attribute, which is what the tracer rebinds.
        sstopo.pipeline.sweep_theta(PipelineConfig(epsilon=0.05), [0.2, 0.3],
                                    surfaces=(plane_patch(), saddle_patch()))
    finally:
        tracer.uninstall()
    for (owner, attr, _, _), original in zip(spans.BINDINGS, originals):
        assert owner.__dict__[attr] is original, attr

    recorded = tracer.spans
    assert [s.name for s in recorded if s.parent < 0] == ["pipeline.sweep_theta"]
    subdivisions = [s for s in recorded if s.name == "subdivision"]
    assert len(subdivisions) == 1
    assert recorded[subdivisions[0].parent].name == "pipeline.sweep_theta"
    figures = spans.pass_metrics(recorded, 0, len(recorded), solve_s=1.0)
    assert figures["pipeline.subdivisions_per_sweep"] == 1
    assert figures["subdivision.calls"] == 1


def test_mapper_only_records_every_layer(spans):
    pts, _ = three_curves_cloud(seed=3)
    delta = recommended_delta(STEP, NOISE)
    untraced = run_two_step(pts, MapperParams(delta=delta))
    assert untraced.groups
    tracer = spans.Tracer()
    tracer.install()
    try:
        sstopo.pipeline.run_mapper_only(PipelineConfig(delta_override=delta), pts)
    finally:
        tracer.uninstall()

    calls = Counter(s.name for s in tracer.spans)
    assert calls["twostep.split_interval_count"] == untraced.initial_graph.node_count
    assert calls["mapper.build_graph"] == len(untraced.groups) + 1
    # One grouped neighbor pass clusters a whole cover.
    assert calls["kernels.neighbor_components"] == calls["mapper.build_graph"]
    for name in ("mapper.compute_l0", "kernels.neighbor_components",
                 "kernels.neighbor_sup_abs_diff"):
        assert calls[name] >= 1, name
    assert calls["partition.classify"] == 1
    assert calls["partition.partition"] == 1


def test_one_traced_run_covers_every_binding(spans, tmp_path):
    pts, _ = three_curves_cloud(seed=3)
    delta = recommended_delta(STEP, NOISE)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    bounds = (lo[0], hi[0], lo[1], hi[1])
    surfaces = (plane_patch(), saddle_patch())
    tracer = spans.Tracer()
    tracer.install()
    try:
        sstopo.pipeline.run_pipeline(
            PipelineConfig(epsilon=0.05, out_dir=str(tmp_path), emit_graph=True,
                           emit_svg=True), *surfaces)
        sstopo.pipeline.sweep_theta(PipelineConfig(epsilon=0.05), [0.2, 0.3],
                                    surfaces=surfaces)
        sstopo.pipeline.run_mapper_only(PipelineConfig(delta_override=delta), pts,
                                        bounds=bounds)
    finally:
        tracer.uninstall()

    recorded = {s.name for s in tracer.spans}
    for _, attr, name, _ in spans.BINDINGS:
        assert name in recorded, attr
