"""Smoke test of the benchmark's span tracer against the current package.

The tracer rebinds module attributes by name, so a renamed or inlined call
silently drops its layer from the per-layer figures. This imports the
tracer from `perfbench/` without changing it and runs one tiny sweep.
"""

import importlib.util
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sstopo.pipeline
from sstopo import MapperParams, PipelineConfig, run_two_step
from sstopo.mapper import make_pca_filter
from sstopo.synthetic import recommended_delta

from corpus import (NOISE, STEP, noisy_circle_cloud, plane_patch, saddle_patch,
                    three_curves_cloud)

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


def undecided(cloud, point_sets, filt, params):
    """How many of the point sets the grouped count pass leaves undecided,
    by the rule restated here. A set is decided by a lower bound lo when
    lo > 0 and the interval count at lo is the one at the cap delta (1 +
    2**-30) + 2**-40 M + 2**-500, M the set's largest |x - c|_1. The first
    lo is the best |f(xi) - f(xj)| over the pairs closer than delta between
    a point and the set's first point at its least value or its first at
    its greatest. Where that does not decide, lo is raised to the best over
    the pairs among each point and its next three in stable order across the
    filter."""
    theta, alpha, d2 = params.theta_ov, params.alpha, params.delta ** 2
    across = np.array([-filt.direction[1], filt.direction[0]])
    left = 0
    for points in point_sets:
        xy = cloud[points]
        v = (xy - filt.center) @ filt.direction
        m = float(np.abs(cloud[points] - filt.center).sum(axis=1).max())
        cap = params.delta * (1.0 + 2.0**-30) + 2.0**-40 * m + 2.0**-500
        span = float(v.max() - v.min())

        def count(s):
            length = (1.0 + alpha) * (s / theta)
            return max(math.floor((span - theta * length) / ((1.0 - theta) * length)), 1)

        def best(i, j):
            d = xy[i] - xy[j]
            near = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < d2
            return float(np.abs(v[i] - v[j])[near].max()) if near.any() else 0.0

        every = np.arange(len(xy))
        lo = max(best(every, int(np.argmin(v))), best(every, int(np.argmax(v))))
        if not (lo > 0.0 and count(lo) == count(cap)):
            order = np.argsort(xy @ across, kind="stable")
            for k in (1, 2, 3):
                lo = max(lo, best(order[k:], order[:-k]))
        left += not (lo > 0.0 and count(lo) == count(cap))
    return left


def test_mapper_only_records_every_layer(spans):
    # The three-curve cloud's witness decides every count; the circle's
    # leaves some to the exact path.
    delta = recommended_delta(STEP, NOISE)
    params = MapperParams(delta=delta)
    for pts, any_exact in ((three_curves_cloud(seed=3)[0], False),
                           (noisy_circle_cloud(seed=7)[0], True)):
        untraced = run_two_step(pts, params)
        assert untraced.groups
        tracer = spans.Tracer()
        tracer.install()
        try:
            sstopo.pipeline.run_mapper_only(PipelineConfig(delta_override=delta), pts)
        finally:
            tracer.uninstall()

        calls = Counter(s.name for s in tracer.spans)
        nodes = untraced.initial_graph.nodes
        f_perp = untraced.perp_filter
        # A one-node group's union is its node's set, which keeps its count.
        unions = [np.unique(np.concatenate([nodes[i].points for i in g]))
                  for g in untraced.groups if len(g) > 1]
        exact = (undecided(pts, [n.points for n in nodes], f_perp, params)
                 + undecided(pts, unions, f_perp, params))
        whole = undecided(pts, [np.arange(len(pts))], make_pca_filter(pts), params)
        assert (exact > 0) == any_exact
        # One exact count per undecided set, the whole cloud's included,
        # each through compute_l0, which takes the grid path.
        assert calls["twostep.split_interval_count"] == whole + exact
        assert calls["mapper.compute_l0"] == whole + exact
        assert calls["kernels.neighbor_sup_abs_diff"] == whole + exact
        # The initial graph only; one grouped neighbor pass clusters its
        # cover, and one more every subgraph's.
        assert calls["mapper.build_graph"] == 1
        assert calls["kernels.neighbor_components"] == 2
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
