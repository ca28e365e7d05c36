"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. JIT warmup happens in the session fixture, so the timed criteria
measure algorithm runtime only.
"""

import time

import numpy as np

from sstopo import (
    MapperParams,
    PipelineConfig,
    build_cover,
    interval_count,
    result_digest,
    run_mapper_only,
    run_pipeline,
    run_two_step,
    sweep_theta,
)
from sstopo.mapper import LinearFilter, _clusters
from sstopo.partition import KIND_CLOSED, KIND_ISOLATED, KIND_OPEN
from sstopo.synthetic import recommended_delta

from corpus import (
    STEP,
    NOISE,
    assert_edges_match_intersections,
    brute_force_clusters,
    cylinder_patch,
    noisy_circle_cloud,
    paraboloid_patch,
    performance_cloud,
    plane_patch,
    point_set,
    saddle_patch,
    three_curves_cloud,
    wrinkle_patch,
)

DELTA = recommended_delta(STEP, NOISE)


def ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_1_noisy_circle_cycle():
    pts, _ = noisy_circle_cloud(seed=7)
    params = MapperParams(delta=DELTA, theta_ov=0.2)
    t0 = time.perf_counter()
    res = run_two_step(pts, params)
    elapsed = time.perf_counter() - t0
    g = res.graph
    comps = g.connected_components()
    assert len(comps) == 1
    assert g.edge_count - g.node_count + 1 == 1
    assert elapsed < 1.0
    ok(1, f"noisy circle: 1 component, cycle rank 1, {elapsed:.3f}s < 1s")


def test_criterion_2_two_step_refinement():
    pts, labels = three_curves_cloud(seed=3)
    params = MapperParams(delta=DELTA, theta_ov=0.2)
    res = run_two_step(pts, params)

    assert len(res.groups) >= 1
    assert len(res.counts) == res.initial_graph.node_count
    assert all(res.counts[nid] >= 2 for group in res.groups for nid in group)
    middle = set(np.nonzero(labels == 2)[0].tolist())
    flagged_points = set()
    for nid in (group[0] for group in res.groups):
        flagged_points |= point_set(res.initial_graph.nodes[nid])
    assert flagged_points & middle, "flagged node must aggregate the middle curve"

    carriers = [i for i, n in enumerate(res.graph.nodes) if point_set(n) & flagged_points]
    assert len(carriers) >= 2, "refinement must split the aggregated node"
    assert len(res.graph.connected_components()) == 3
    assert_edges_match_intersections(res.graph)
    ok(2, f"three-curve cloud: flagged node split into {len(carriers)} nodes, "
          "3 components, no phantom edges")


def test_criterion_3_singular_crossed_planes():
    doc = run_pipeline(PipelineConfig(epsilon=0.02), plane_patch(), saddle_patch())
    for dom in doc.domains:
        assert len(dom.characteristic.singular_nodes) == 1
        (sid,) = dom.characteristic.singular_nodes
        assert dom.graph.degrees()[sid] == 4
        assert dom.partition.segment_kinds() == [KIND_OPEN] * 4
    assert len(doc.match.pairs) == 4
    assert len({a for a, _, _ in doc.match.pairs}) == 4
    assert len({b for _, b, _ in doc.match.pairs}) == 4
    ok(3, "crossed planes: 1 singular node of degree 4, 4 open segments per "
          "domain, 4 matched pairs")


def test_criterion_3_extended_two_crossings_seven_segments():
    doc = run_pipeline(PipelineConfig(epsilon=0.01), plane_patch(), wrinkle_patch())
    for dom in doc.domains:
        assert len(dom.characteristic.singular_nodes) == 2
        assert len(dom.partition.segments) == 7
    assert len(doc.match.pairs) == 7
    assert len({a for a, _, _ in doc.match.pairs}) == 7
    assert len({b for _, b, _ in doc.match.pairs}) == 7
    ok(3, "extended pair with two crossings: 2 singular nodes and 7 segments "
          "per domain, bijective match")


def test_criterion_4_two_cylinders():
    c1 = cylinder_patch(axis="y")
    c2 = cylinder_patch(axis="x")
    doc = run_pipeline(PipelineConfig(epsilon=0.01), c1, c2)
    for dom in doc.domains:
        assert len(dom.partition.segments) == 4
        assert len(dom.characteristic.singular_nodes) >= 1
        assert len(dom.characteristic.boundary_nodes) >= 1
    assert len(doc.match.pairs) == 4
    assert len({a for a, _, _ in doc.match.pairs}) == 4
    assert len({b for _, b, _ in doc.match.pairs}) == 4
    ok(4, "crossing cylinders: 4 segments per domain after removing boundary "
          "and singular nodes, bijective match")


def test_criterion_5_isolated_tangency():
    doc = run_pipeline(PipelineConfig(epsilon=0.01), plane_patch(), paraboloid_patch())
    assert not doc.no_intersection
    for dom in doc.domains:
        kinds = dom.partition.segment_kinds()
        assert KIND_ISOLATED in kinds
        # the tangency blob sits at the domain center; no open or closed
        # segment may claim any of its points
        for seg in dom.partition.segments:
            if seg.kind in (KIND_OPEN, KIND_CLOSED):
                near = [
                    p for p in seg.point_indices
                    if np.hypot(*(dom.points[p] - [0.5, 0.5])) < 0.2
                ]
                assert not near
        isolated_nodes = [
            nid
            for seg in dom.partition.segments
            if seg.kind == KIND_ISOLATED
            for nid in seg.node_ids
        ]
        assert all(dom.graph.degrees()[nid] == 0 for nid in isolated_nodes)
    ok(5, "tangent paraboloid: degree-0 node classified isolated in both domains")


def test_criterion_6_clustering_oracle():
    rng = np.random.default_rng(123)
    for trial in range(50):
        n = int(rng.integers(10, 501))
        cloud = rng.uniform(0, 1, (n, 2)) * rng.uniform(0.5, 3.0)
        delta = float(rng.uniform(0.02, 0.3))
        subset = np.sort(rng.choice(n, size=max(2, int(n * 0.9)), replace=False))
        got = _clusters(cloud, subset, delta)[0]
        expected = brute_force_clusters(subset, cloud, delta)
        assert len(got) == len(expected), f"trial {trial}"
        for a, b in zip(got, expected):
            assert np.array_equal(a, b), f"trial {trial}"
    ok(6, "one-group clustering equals brute-force union-find on 50 randomized clouds")


def test_criterion_7_cover_arithmetic():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        f_min = float(rng.uniform(-50, 50))
        span = float(rng.uniform(1e-3, 30))
        s = int(rng.integers(1, 50))
        theta = float(rng.uniform(0.01, 0.49))
        cover = build_cover(f_min, f_min + span, s, theta)
        # s intervals of length l, adjacent ones overlapping by theta * l,
        # span s * l - (s - 1) * theta * l.
        length = span / (s - (s - 1) * theta)
        assert cover.shape == (s, 2)
        lengths = cover[:, 1] - cover[:, 0]
        assert np.all(np.abs(lengths - length) < 1e-9)
        if s > 1:
            overlaps = cover[:-1, 1] - cover[1:, 0]
            assert np.all(np.abs(overlaps - theta * length) < 1e-9)
        if s > 2:
            assert np.all(cover[2:, 0] > cover[:-2, 1] - 1e-12)
        assert cover[0, 0] <= f_min
        assert cover[-1, 1] >= f_min + span

    cloud = np.column_stack([np.linspace(0, 10, 400), np.zeros(400)])
    f = LinearFilter(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert interval_count(cloud, f, 1.0, 0.2) == 12
    ok(7, "cover invariants hold on 1000 random draws; hand-checked S = 12")


def test_criterion_8_performance_envelope():
    pts, _, step = performance_cloud(6000)
    assert len(pts) >= 6000
    delta = recommended_delta(step, NOISE)
    t0 = time.perf_counter()
    doc = run_mapper_only(PipelineConfig(delta_override=delta), pts)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 5.0
    t = doc.timings
    line = (
        f"{len(pts)} points  Initial {t['initial']:.4f}s  "
        f"Subdivision {t['subdivision']:.4f}s  Total {t['total']:.4f}s"
    )
    dom = doc.domains[0]
    assert dom.graph.node_count > 0
    assert len(dom.partition.segments) == 5  # generator ground truth
    assert_edges_match_intersections(dom.graph)
    ok(8, f"performance envelope: {line} (limit 5s)")


def test_criterion_9_theta_sweep_trend():
    pts, _ = three_curves_cloud(seed=3)
    report = sweep_theta(
        PipelineConfig(delta_override=DELTA), [0.1, 0.2, 0.3, 0.4], cloud=pts
    )
    nodes = [e["nodes"] for e in report["entries"]]
    inversions = sum(1 for a, b in zip(nodes, nodes[1:]) if b < a)
    assert inversions <= 1
    ok(9, f"theta sweep node counts {nodes}: nondecreasing with "
          f"{inversions} inversion(s)")


def test_criterion_10_determinism():
    cfg = PipelineConfig(epsilon=0.02, seed=42)
    d1 = run_pipeline(cfg, plane_patch(), saddle_patch())
    d2 = run_pipeline(cfg, plane_patch(), saddle_patch())
    assert result_digest(d1) == result_digest(d2)

    pts, _ = noisy_circle_cloud(seed=7)
    m1 = run_mapper_only(PipelineConfig(delta_override=DELTA, seed=5), pts)
    m2 = run_mapper_only(PipelineConfig(delta_override=DELTA, seed=5), pts)
    assert result_digest(m1) == result_digest(m2)
    ok(10, "identical config and seed give identical result digests")
