import numpy as np
import pytest

from sstopo import (
    LinearFilter,
    intersect_surfaces,
    MapperGraph,
    MapperNode,
    MapperParams,
    orthogonal_filter,
    run_two_step,
    split_interval_count,
    two_step_mapper,
)
from sstopo.mapper import (
    _edges_from_nodes,
    build_mapper_graph,
    compute_l0,
    default_delta,
    interval_count,
)
from sstopo.synthetic import recommended_delta
from sstopo.twostep import SplitPlan, plan_splits

from corpus import (
    STEP,
    NOISE,
    assert_edges_match_intersections,
    noisy_circle_cloud,
    performance_cloud,
    plane_patch,
    plus_cloud,
    saddle_patch,
    three_curves_cloud,
)

DELTA = recommended_delta(STEP, NOISE)


class TestOrthogonalFilter:
    def test_quarter_rotation(self):
        f = LinearFilter(np.zeros(2), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(orthogonal_filter(f).direction, [0.0, 1.0])

    def test_second_quarter(self):
        f = LinearFilter(np.zeros(2), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(orthogonal_filter(f).direction, [-1.0, 0.0])

    def test_random_directions_orthogonal_unit(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            f = LinearFilter(rng.normal(size=2), d)
            g = orthogonal_filter(f)
            assert abs(np.dot(g.direction, f.direction)) <= 1e-12
            assert abs(np.linalg.norm(g.direction) - 1.0) <= 1e-12
            np.testing.assert_array_equal(g.center, f.center)


class TestSplitIntervalCount:
    def test_identical_orthogonal_values(self):
        cloud = np.column_stack([np.linspace(0, 2, 40), np.zeros(40)])
        f_perp = LinearFilter(np.zeros(2), np.array([0.0, 1.0]))
        params = MapperParams(delta=0.3)
        assert split_interval_count(range(40), cloud, f_perp, params) == 1

    def test_singleton_node(self):
        cloud = np.array([[0.0, 0.0], [5.0, 5.0]])
        f_perp = LinearFilter(np.zeros(2), np.array([0.0, 1.0]))
        assert split_interval_count([0], cloud, f_perp, MapperParams(delta=0.1)) == 1

    def test_tall_node_matches_direct_formula(self):
        ys = np.arange(0.0, 1.2000001, STEP)
        cloud = np.column_stack([np.full_like(ys, 2.0), ys])
        f_perp = LinearFilter(np.array([2.0, 0.6]), np.array([0.0, 1.0]))
        params = MapperParams(delta=DELTA, theta_ov=0.2)
        got = split_interval_count(range(len(ys)), cloud, f_perp, params)
        l0 = compute_l0(cloud, f_perp, params.delta, params.theta_ov)
        expected = interval_count(cloud, f_perp, (1 + params.alpha) * l0, params.theta_ov)
        assert got == expected
        assert got >= 2


class TestTwoStep:
    def test_aligned_segment_unchanged(self):
        xs = np.arange(0, 3.0001, STEP)
        cloud = np.column_stack([xs, np.zeros_like(xs)])
        params = MapperParams(delta=0.08)
        res = run_two_step(cloud, params)
        assert res.plan.split_set == ()

        def canon(g):
            return sorted(n.sorted_points() for n in g.nodes)

        assert canon(res.graph) == canon(res.initial_graph)

    def test_three_curve_cloud_refinement(self):
        pts, labels = three_curves_cloud(seed=3)
        params = MapperParams(delta=DELTA)
        res = run_two_step(pts, params)

        # the middle curve is aggregated into flagged node(s)
        assert len(res.plan.split_set) >= 1
        assert all(s >= 2 for s in res.plan.interval_counts.values())

        middle = set(np.nonzero(labels == 2)[0].tolist())
        flagged_points = set()
        by_id = {n.id: n for n in res.initial_graph.nodes}
        for nid in res.plan.split_set:
            flagged_points |= by_id[nid].points
        assert flagged_points & middle

        # the flagged node's points end up split over >= 2 final nodes
        carriers = [n.id for n in res.graph.nodes if n.points & flagged_points]
        assert len(carriers) >= 2

        # ground truth: three generating curves, three components
        assert len(res.graph.connected_components()) == 3
        assert_edges_match_intersections(res.graph)

    def test_plan_members_not_adjacent(self):
        pts, _ = three_curves_cloud(seed=3)
        params = MapperParams(delta=DELTA)
        res = run_two_step(pts, params)
        plan = plan_splits(res.initial_graph, pts, res.perp_filter, params)
        adj = res.initial_graph.adjacency()
        for a in plan.split_set:
            for b in plan.split_set:
                if a != b:
                    assert b not in adj[a]

    def test_point_conservation(self):
        pts, _ = three_curves_cloud(seed=5)
        params = MapperParams(delta=DELTA)
        res = run_two_step(pts, params)
        assert res.graph.point_union() == frozenset(range(len(pts)))
        assert res.graph.point_union() == res.initial_graph.point_union()

    def test_plus_cloud_single_degree_four_node(self):
        pts, _ = plus_cloud()
        params = MapperParams(delta=recommended_delta(STEP, 0.0))
        g = two_step_mapper(pts, params)
        degrees = sorted(g.degrees().values(), reverse=True)
        assert degrees.count(4) == 1
        assert degrees[1] <= 2
        assert_edges_match_intersections(g)

    def test_circle_cycle_rank_preserved(self):
        pts, _ = noisy_circle_cloud(seed=7)
        params = MapperParams(delta=DELTA)
        g = two_step_mapper(pts, params)
        comps = g.connected_components()
        assert len(comps) == 1
        assert g.edge_count - g.node_count + 1 == 1
        assert_edges_match_intersections(g)

    def test_idempotent_on_refined_corpus_graph(self):
        pts, _ = three_curves_cloud(seed=3)
        params = MapperParams(delta=DELTA)
        res = run_two_step(pts, params)
        replan = plan_splits(res.graph, pts, res.perp_filter, params)
        assert replan.split_set == ()

    def test_degenerate_clouds_flow_through(self):
        params = MapperParams(delta=0.1)
        g1 = two_step_mapper(np.array([[0.2, 0.3]]), params)
        assert g1.node_count == 1 and g1.edge_count == 0
        g2 = two_step_mapper(np.tile([[0.2, 0.3]], (4, 1)), params)
        assert g2.node_count == 1
        assert g2.point_union() == frozenset(range(4))

    def test_timings_nonnegative(self):
        pts, _ = plus_cloud()
        res = run_two_step(pts, MapperParams(delta=recommended_delta(STEP, 0.0)))
        assert res.seconds_initial >= 0.0
        assert res.seconds_refine >= 0.0


def _reference_groups(graph, cloud, f_perp, params):
    """Flagged nodes merged by a depth-first search over the flagged subgraph,
    plus every node's orthogonal interval count."""
    counts = {
        n.id: split_interval_count(n.points, cloud, f_perp, params) for n in graph.nodes
    }
    flagged = sorted(nid for nid, s in counts.items() if s >= 2)
    flagged_set = set(flagged)
    adj = graph.adjacency()
    seen: set[int] = set()
    groups: list[set[int]] = []
    for nid in flagged:
        if nid in seen:
            continue
        group = {nid}
        stack = [nid]
        seen.add(nid)
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt in flagged_set and nxt not in seen:
                    seen.add(nxt)
                    group.add(nxt)
                    stack.append(nxt)
        groups.append(group)
    return groups, counts


def _reference_edges(nodes):
    """Edge iff two nodes share a point, via an inverted point -> nodes dict."""
    owners: dict[int, list[int]] = {}
    for node in nodes:
        for p in node.points:
            owners.setdefault(p, []).append(node.id)
    edges: set[tuple[int, int]] = set()
    for ids in owners.values():
        ids = sorted(ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                edges.add((ids[i], ids[j]))
    return frozenset(edges)


def _reference_refine(initial, cloud, f_perp, params):
    """The refinement as a merge-then-split pass: each group of adjacent
    flagged nodes becomes one node with rewired edges, then every merged node
    is split, its subgraph nodes joined by union-find when they touch one
    same neighbor. Also returns how many subgraph nodes were joined away."""
    points = {n.id: n.points for n in initial.nodes}
    intervals = {n.id: n.intervals for n in initial.nodes}
    refined = {n.id: n.refined for n in initial.nodes}
    edges = set(initial.edges)

    groups, counts = _reference_groups(initial, cloud, f_perp, params)
    plan = SplitPlan(
        tuple(sorted(min(g) for g in groups)),
        {min(g): max(counts[m] for m in g) for g in groups},
    )

    for group in groups:
        if len(group) < 2:
            continue
        keep = min(group)
        drop = sorted(group - {keep})
        points[keep] = frozenset().union(*(points[m] for m in group))
        intervals[keep] = tuple(sorted({k for m in group for k in intervals[m]}))
        rewired = set()
        for a, b in edges:
            a = keep if a in drop else a
            b = keep if b in drop else b
            if a != b:
                rewired.add((min(a, b), max(a, b)))
        edges = rewired
        for m in drop:
            del points[m], intervals[m], refined[m]

    adjacency = {nid: set() for nid in points}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    joined = 0
    next_id = max(points) + 1 if points else 0
    for vid in plan.split_set:
        ids_sorted = sorted(points[vid])
        subgraph = build_mapper_graph(cloud[ids_sorted], f_perp, params)
        local_sets = [
            frozenset(ids_sorted[i] for i in node.points) for node in subgraph.nodes
        ]
        local_intervals = [node.intervals for node in subgraph.nodes]
        parent = list(range(len(local_sets)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for nb in sorted(adjacency[vid]):
            touching = [i for i, s in enumerate(local_sets) if s & points[nb]]
            for a, b in zip(touching, touching[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

        merged: dict[int, list[int]] = {}
        for i in range(len(local_sets)):
            merged.setdefault(find(i), []).append(i)
        joined += len(local_sets) - len(merged)
        for root in sorted(merged):
            members = merged[root]
            points[next_id] = frozenset().union(*(local_sets[i] for i in members))
            intervals[next_id] = tuple(
                sorted({k for i in members for k in local_intervals[i]})
            )
            refined[next_id] = True
            next_id += 1
        del points[vid], intervals[vid], refined[vid]

    nodes = tuple(
        MapperNode(new_id, pts, intervals=intervals[old_id], refined=refined[old_id])
        for new_id, (old_id, pts) in enumerate(points.items())
    )
    return MapperGraph(nodes=nodes, edges=_reference_edges(nodes)), plan, joined


def _refine_case(name):
    if name.startswith("three_curves"):
        pts, _ = three_curves_cloud(seed=int(name.rsplit("_", 1)[1]))
        return pts, MapperParams(delta=DELTA)
    if name == "plus":
        return plus_cloud()[0], MapperParams(delta=recommended_delta(STEP, 0.0))
    if name == "noisy_circle":
        return noisy_circle_cloud(seed=7)[0], MapperParams(delta=DELTA)
    if name.startswith("plane_saddle"):
        # At these overlap ratios adjacent flagged nodes form groups, and
        # subgraph nodes touching one neighbor are joined.
        _, domain, theta = name.split("_")[1:]
        sets = intersect_surfaces(plane_patch(), saddle_patch(), 0.05)
        pts, diag = (sets.points1, sets.cell_diag1) if domain == "uv" else (
            sets.points2, sets.cell_diag2)
        return pts, MapperParams(delta=default_delta(diag), theta_ov=float(theta))
    pts, _, step = performance_cloud(6000)
    return pts, MapperParams(delta=recommended_delta(step, NOISE))


REFINE_CASES = ["three_curves_3", "three_curves_5", "three_curves_7", "plus",
                "noisy_circle", "performance_6k", "plane_saddle_uv_0.4",
                "plane_saddle_st_0.3"]


class TestRefineReference:
    @pytest.mark.parametrize("case", REFINE_CASES)
    def test_matches_merge_then_split_reference(self, case):
        pts, params = _refine_case(case)
        res = run_two_step(pts, params)
        expected, expected_plan, _ = _reference_refine(
            res.initial_graph, pts, res.perp_filter, params
        )
        assert len(res.graph.nodes) == len(expected.nodes)
        for got, want in zip(res.graph.nodes, expected.nodes):
            assert (got.id, got.points, got.intervals, got.refined) == (
                want.id, want.points, want.intervals, want.refined
            )
        assert res.graph.edges == expected.edges
        assert res.plan == expected_plan

    def test_cases_include_merges(self):
        group_sizes = []
        joined = 0
        for case in REFINE_CASES:
            pts, params = _refine_case(case)
            res = run_two_step(pts, params)
            groups, _ = _reference_groups(res.initial_graph, pts, res.perp_filter, params)
            group_sizes += [len(g) for g in groups]
            joined += _reference_refine(res.initial_graph, pts, res.perp_filter, params)[2]
        assert max(group_sizes) >= 2
        assert joined >= 1


class TestEdgesReference:
    @pytest.mark.parametrize("case", REFINE_CASES)
    def test_matches_dict_loop(self, case):
        pts, params = _refine_case(case)
        res = run_two_step(pts, params)
        for graph in (res.initial_graph, res.graph):
            assert graph.edges
            assert _edges_from_nodes(list(graph.nodes)) == _reference_edges(graph.nodes)

    def test_point_in_many_nodes(self):
        # Point 7 lies in four nodes, so its run has six pairs; ids need not
        # be contiguous or in order.
        sets = [{7, 1}, {7, 2}, {3}, {7, 3, 2}, {7}, set()]
        nodes = [MapperNode(i * 3, frozenset(p)) for i, p in enumerate(sets)]
        want = _reference_edges(nodes)
        assert _edges_from_nodes(nodes) == want
        assert _edges_from_nodes(nodes[::-1]) == want
        assert len(want) == 7
        assert _edges_from_nodes([]) == frozenset()
