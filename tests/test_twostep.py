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
)
from sstopo.mapper import (
    build_mapper_graph,
    compute_l0,
    default_delta,
    interval_count,
)
from sstopo.pipeline import PipelineConfig, run_mapper_only
from sstopo.synthetic import recommended_delta
from sstopo import mapper, twostep
from sstopo.twostep import _collapse

from corpus import (
    STEP,
    NOISE,
    assert_edge_record,
    assert_edges_match_intersections,
    edge_set,
    noisy_circle_cloud,
    performance_cloud,
    plane_patch,
    plus_cloud,
    point_set,
    saddle_patch,
    shared_pairs,
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
        assert res.groups == ()
        assert set(res.counts) == {1}

        def canon(g):
            return sorted(n.points.tolist() for n in g.nodes)

        assert canon(res.graph) == canon(res.initial_graph)

    def test_three_curve_cloud_refinement(self):
        pts, labels = three_curves_cloud(seed=3)
        params = MapperParams(delta=DELTA)
        res = run_two_step(pts, params)

        # the middle curve is aggregated into flagged node(s)
        assert len(res.groups) >= 1
        assert all(res.counts[nid] >= 2 for group in res.groups for nid in group)

        middle = set(np.nonzero(labels == 2)[0].tolist())
        flagged_points = set()
        for nid in (group[0] for group in res.groups):
            flagged_points |= point_set(res.initial_graph.nodes[nid])
        assert flagged_points & middle

        # the flagged node's points end up split over >= 2 final nodes
        carriers = [i for i, n in enumerate(res.graph.nodes) if point_set(n) & flagged_points]
        assert len(carriers) >= 2

        # ground truth: three generating curves, three components
        assert len(res.graph.connected_components()) == 3
        assert_edges_match_intersections(res.graph)

    def test_plan_members_not_adjacent(self):
        pts, _ = three_curves_cloud(seed=3)
        params = MapperParams(delta=DELTA)
        res = run_two_step(pts, params)
        adj = _adjacency(res.initial_graph)
        for g in res.groups:
            for h in res.groups:
                if g != h:
                    assert not any(adj[a] & set(h) for a in g)

    def test_point_conservation(self):
        pts, _ = three_curves_cloud(seed=5)
        params = MapperParams(delta=DELTA)
        res = run_two_step(pts, params)
        assert _point_union(res.graph) == frozenset(range(len(pts)))
        assert _point_union(res.graph) == _point_union(res.initial_graph)

    def test_plus_cloud_single_degree_four_node(self):
        pts, _ = plus_cloud()
        params = MapperParams(delta=recommended_delta(STEP, 0.0))
        g = run_two_step(pts, params).graph
        degrees = sorted(g.degrees().tolist(), reverse=True)
        assert degrees.count(4) == 1
        assert degrees[1] <= 2
        assert_edges_match_intersections(g)

    def test_circle_cycle_rank_preserved(self):
        pts, _ = noisy_circle_cloud(seed=7)
        params = MapperParams(delta=DELTA)
        g = run_two_step(pts, params).graph
        comps = g.connected_components()
        assert len(comps) == 1
        assert g.edge_count - g.node_count + 1 == 1
        assert_edges_match_intersections(g)

    def test_idempotent_on_refined_corpus_graph(self):
        pts, _ = three_curves_cloud(seed=3)
        params = MapperParams(delta=DELTA)
        res = run_two_step(pts, params)
        assert any(n.refined for n in res.graph.nodes)
        for n in res.graph.nodes:
            assert split_interval_count(n.points, pts, res.perp_filter, params) < 2

    def test_degenerate_clouds_flow_through(self):
        params = MapperParams(delta=0.1)
        g1 = run_two_step(np.array([[0.2, 0.3]]), params).graph
        assert g1.node_count == 1 and g1.edge_count == 0
        g2 = run_two_step(np.tile([[0.2, 0.3]], (4, 1)), params).graph
        assert g2.node_count == 1
        assert _point_union(g2) == frozenset(range(4))

    def test_timings_nonnegative(self):
        pts, _ = plus_cloud()
        res = run_two_step(pts, MapperParams(delta=recommended_delta(STEP, 0.0)))
        assert res.seconds_initial >= 0.0
        assert res.seconds_refine >= 0.0


def _point_union(graph):
    return frozenset().union(*(point_set(n) for n in graph.nodes))


def _adjacency(graph):
    """Each node's neighbor set, by position."""
    adj = {i: set() for i in range(graph.node_count)}
    for a, b in edge_set(graph.edges):
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _reference_groups(graph, cloud, f_perp, params):
    """Flagged nodes merged by a depth-first search over the flagged subgraph,
    plus every node's orthogonal interval count."""
    counts = {
        i: split_interval_count(n.points, cloud, f_perp, params)
        for i, n in enumerate(graph.nodes)
    }
    flagged = sorted(nid for nid, s in counts.items() if s >= 2)
    flagged_set = set(flagged)
    adj = _adjacency(graph)
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
    for i, node in enumerate(nodes):
        for p in point_set(node):
            owners.setdefault(p, []).append(i)
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
    same neighbor. Also returns the groups, each sorted and in order of its
    least position, every node's interval count in order, and how many
    subgraph nodes were joined away."""
    points = {i: point_set(n) for i, n in enumerate(initial.nodes)}
    intervals = {i: n.intervals for i, n in enumerate(initial.nodes)}
    refined = {i: n.refined for i, n in enumerate(initial.nodes)}
    edges = edge_set(initial.edges)

    groups, counts = _reference_groups(initial, cloud, f_perp, params)

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
    for vid in sorted(min(g) for g in groups):
        ids_sorted = sorted(points[vid])
        subgraph = build_mapper_graph(cloud[ids_sorted], f_perp, params)
        local_sets = [
            frozenset(ids_sorted[i] for i in node.points.tolist()) for node in subgraph.nodes
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
        MapperNode(sorted(pts), intervals=intervals[old_id], refined=refined[old_id])
        for old_id, pts in points.items()
    )
    nodes, edges = _reference_collapse(nodes)
    sorted_groups = tuple(sorted(tuple(sorted(g)) for g in groups))
    return (nodes, edges, sorted_groups,
            tuple(counts[i] for i in range(len(initial.nodes))), joined)


def _reference_collapse(nodes):
    """Drop the nodes whose points lie in an adjacent node's (of equal sets
    the later one), rebuild the edges, and repeat until nothing changes:
    the kept nodes and their edges."""
    while True:
        sets = [point_set(n) for n in nodes]
        edges = _reference_edges(nodes)
        drop = {
            i for i in range(len(sets))
            for j in range(len(sets))
            if (i, j) in edges or (j, i) in edges
            if sets[i] < sets[j] or (sets[i] == sets[j] and i > j)
        }
        if not drop:
            return nodes, edges
        nodes = tuple(
            MapperNode(sorted(sets[i]), intervals=n.intervals, refined=n.refined)
            for i, n in enumerate(nodes) if i not in drop
        )


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
        expected_nodes, expected_edges, expected_groups, expected_counts, _ = (
            _reference_refine(res.initial_graph, pts, res.perp_filter, params))
        assert len(res.graph.nodes) == len(expected_nodes)
        for got, want in zip(res.graph.nodes, expected_nodes):
            assert (got.points.tolist(), got.intervals, got.refined) == (
                sorted(point_set(want)), want.intervals, want.refined
            )
        assert edge_set(res.graph.edges) == expected_edges
        assert_edge_record(res.graph.edges)
        assert res.groups == expected_groups
        assert res.counts == expected_counts

    @pytest.mark.parametrize("case", ["three_curves_3", "performance_6k"])
    def test_counts_and_groups_of_initial_nodes(self, case):
        pts, params = _refine_case(case)
        res = run_two_step(pts, params)
        assert res.counts == tuple(
            split_interval_count(n.points, pts, res.perp_filter, params)
            for n in res.initial_graph.nodes
        )
        groups, _ = _reference_groups(res.initial_graph, pts, res.perp_filter, params)
        assert res.groups == tuple(tuple(sorted(g)) for g in groups)
        flagged = [nid for nid, s in enumerate(res.counts) if s >= 2]
        assert sorted(nid for g in res.groups for nid in g) == flagged

    def test_cases_include_merges(self):
        group_sizes = []
        joined = 0
        for case in REFINE_CASES:
            pts, params = _refine_case(case)
            res = run_two_step(pts, params)
            groups, _ = _reference_groups(res.initial_graph, pts, res.perp_filter, params)
            group_sizes += [len(g) for g in groups]
            joined += _reference_refine(res.initial_graph, pts, res.perp_filter, params)[4]
        assert max(group_sizes) >= 2
        assert joined >= 1


class TestEdgesReference:
    @pytest.mark.parametrize("case", REFINE_CASES)
    def test_matches_dict_loop(self, case):
        pts, params = _refine_case(case)
        res = run_two_step(pts, params)
        for graph in (res.initial_graph, res.graph):
            assert graph.edge_count
            assert edge_set(shared_pairs(list(graph.nodes))) == _reference_edges(graph.nodes)

    def test_point_in_many_nodes(self):
        # Point 7 lies in four nodes, so its run has six pairs.
        sets = [{7, 1}, {7, 2}, {3}, {7, 3, 2}, {7}, set()]
        nodes = [MapperNode(sorted(p)) for p in sets]
        want = _reference_edges(nodes)
        assert edge_set(shared_pairs(nodes)) == want
        assert edge_set(shared_pairs(nodes[::-1])) == _reference_edges(nodes[::-1])
        assert len(want) == 7
        assert shared_pairs([]).shape == (0, 2)


def _graph(sets):
    return MapperGraph(tuple(MapperNode(sorted(p), intervals=(i,)) for i, p in enumerate(sets)))


class TestCollapse:
    @pytest.mark.parametrize("sets, kept", [
        # a chain a < b < c beside an unrelated node
        ([{1}, {1, 2}, {1, 2, 3}, {9}], [2, 3]),
        # equal sets: the earliest stays
        ([{4, 5}, {1, 2}, {1, 2}, {2, 3}, {1, 2}], [0, 1, 3]),
        # a path, where no node lies in another
        ([{1, 2}, {2, 3}, {3, 4}], [0, 1, 2]),
        # a node covered by two neighbors together but by neither alone
        ([{1, 2}, {2, 3}, {1, 4}], [0, 1, 2]),
        # a leaf inside its only neighbor, which is then a plain path node
        ([{1, 2, 3}, {3}, {3, 4}, {4, 5}], [0, 2, 3]),
    ])
    def test_drops_dominated_nodes(self, sets, kept):
        graph = _graph(sets)
        got = _collapse(list(graph.nodes))
        want_nodes, want_edges = _reference_collapse(graph.nodes)
        assert [n.intervals for n in got.nodes] == [(i,) for i in kept]
        assert ([n.points.tolist() for n in got.nodes]
                == [sorted(point_set(n)) for n in want_nodes])
        assert edge_set(got.edges) == want_edges
        assert_edge_record(got.edges)
        assert _point_union(got) == _point_union(graph)

    def test_nothing_dominated_returns_the_graph(self):
        graph = _graph([{1, 2}, {2, 3}])
        got = _collapse(list(graph.nodes))
        assert got.nodes == graph.nodes  # the same node objects: none rebuilt
        assert np.array_equal(got.edges, graph.edges)
        assert edge_set(got.edges) == _reference_edges(graph.nodes)

    @pytest.mark.parametrize("noise_seed", [100, 108])
    def test_noisy_24k_cloud_has_five_segments(self, noise_seed):
        # Without the collapse a few noisy samples near a circle's extreme
        # form a leaf node inside its neighbor, which becomes singular: the
        # cloud read 6 segments at these noise seeds.
        pts, _, step = performance_cloud(24000, seed=noise_seed)
        doc = run_mapper_only(PipelineConfig(delta_override=recommended_delta(step, NOISE)), pts)
        assert len(doc.domains[0].partition.segments) == 5


class TestSupremumGrids:
    """The orthogonal counts are decided by the supremum's witness, not its
    grid. Recorded when the witness landed: the three-curve cloud built 0
    supremum grids for its 28 compute_l0 calls, and the 6k cloud 4 for 94
    (the exact path builds one grid per call)."""

    @pytest.mark.parametrize("case, bound", [("three_curves_3", 1), ("performance_6k", 6)])
    def test_few_supremum_grids_per_run(self, sup_grids, monkeypatch, case, bound):
        calls = []
        for module in (twostep, mapper):
            monkeypatch.setattr(module, "compute_l0",
                                lambda *args: calls.append(1) or compute_l0(*args))
        pts, params = _refine_case(case)
        run_two_step(pts, params)
        assert len(calls) >= 20
        assert len(sup_grids) <= bound
