import numpy as np
import pytest

from sstopo import (
    BoundarySpec,
    CharacteristicNodes,
    ConfigurationError,
    CrossDomainMatch,
    approximate_boundary_set,
    classify_characteristic_nodes,
    match_across_domains,
    partition,
)
from sstopo.mapper import MapperGraph, MapperNode
from sstopo.partition import KIND_ANOMALOUS, KIND_CLOSED, KIND_ISOLATED, KIND_OPEN, PartitionResult, Segment


def graph_of(point_sets, edges):
    nodes = tuple(
        MapperNode(i, frozenset(pts)) for i, pts in enumerate(point_sets)
    )
    return MapperGraph(nodes=nodes, edges=frozenset(tuple(sorted(e)) for e in edges))


def path_graph(n, points_per_node=1):
    sets = [range(i * points_per_node, (i + 1) * points_per_node) for i in range(n)]
    return graph_of(sets, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    sets = [[i] for i in range(n)]
    return graph_of(sets, [(i, (i + 1) % n) for i in range(n)])


class TestBoundarySet:
    SPEC = BoundarySpec(0.0, 1.0, 0.0, 1.0)
    DELTA = 0.1

    def test_left_band_included(self):
        idx = approximate_boundary_set(np.array([[0.05, 0.5]]), self.SPEC, self.DELTA)
        assert idx.tolist() == [0]

    def test_interior_excluded(self):
        idx = approximate_boundary_set(np.array([[0.5, 0.5]]), self.SPEC, self.DELTA)
        assert idx.tolist() == []

    def test_top_band_included(self):
        idx = approximate_boundary_set(np.array([[0.5, 0.95]]), self.SPEC, self.DELTA)
        assert idx.tolist() == [0]

    def test_band_edges_strict(self):
        pts = np.array([[0.1, 0.5], [0.9, 0.5], [0.5, 0.1], [0.5, 0.9]])
        assert approximate_boundary_set(pts, self.SPEC, self.DELTA).tolist() == []

    def test_excessive_delta_rejected(self):
        with pytest.raises(ConfigurationError):
            approximate_boundary_set(np.zeros((1, 2)), self.SPEC, 0.5)

    def test_invalid_spec_rejected(self):
        for delta in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                approximate_boundary_set(np.zeros((1, 2)), self.SPEC, delta)
        with pytest.raises(ConfigurationError):
            BoundarySpec(1.0, 0.0, 0.0, 1.0)


class TestClassifyCharacteristic:
    def test_clean_path_has_none(self):
        g = path_graph(4)
        res = classify_characteristic_nodes(g, np.array([], dtype=int))
        assert res.boundary_nodes == frozenset()
        assert res.singular_nodes == frozenset()

    def test_star_center_is_singular(self):
        g = graph_of([[0], [1], [2], [3], [4]], [(0, 1), (0, 2), (0, 3), (0, 4)])
        res = classify_characteristic_nodes(g, np.array([], dtype=int))
        assert res.singular_nodes == frozenset({0})

    def test_boundary_membership(self):
        g = path_graph(3)
        res = classify_characteristic_nodes(g, np.array([2]))
        assert res.boundary_nodes == frozenset({2})

    def test_node_can_be_both(self):
        g = graph_of([[0], [1], [2], [3], [4]], [(0, 1), (0, 2), (0, 3), (0, 4)])
        res = classify_characteristic_nodes(g, np.array([0]))
        assert 0 in res.boundary_nodes and 0 in res.singular_nodes
        assert res.all_nodes == frozenset({0, 1, 2, 3, 4}) - frozenset({1, 2, 3, 4}) | frozenset({0})

    def test_singular_detection_warns(self, caplog):
        g = graph_of([[0], [1], [2], [3], [4]], [(0, 1), (0, 2), (0, 3), (0, 4)])
        with caplog.at_level("WARNING"):
            classify_characteristic_nodes(g, np.array([], dtype=int))
        assert any("singular" in r.message for r in caplog.records)


class TestPartition:
    EMPTY = CharacteristicNodes(frozenset(), frozenset())

    def test_path_is_open(self):
        res = partition(path_graph(5), self.EMPTY)
        assert [s.kind for s in res.segments] == [KIND_OPEN]
        assert res.segments[0].point_indices == tuple(range(5))

    def test_cycle_is_closed(self):
        res = partition(cycle_graph(6), self.EMPTY)
        assert [s.kind for s in res.segments] == [KIND_CLOSED]

    def test_single_node_is_isolated(self):
        res = partition(graph_of([[0, 1]], []), self.EMPTY)
        assert [s.kind for s in res.segments] == [KIND_ISOLATED]

    def test_two_node_component_is_open(self):
        res = partition(graph_of([[0, 1], [1, 2]], [(0, 1)]), self.EMPTY)
        assert [s.kind for s in res.segments] == [KIND_OPEN]

    def test_high_degree_without_removal_is_anomalous(self):
        g = graph_of([[0], [1], [2], [3]], [(0, 1), (0, 2), (0, 3)])
        res = partition(g, self.EMPTY)
        assert [s.kind for s in res.segments] == [KIND_ANOMALOUS]

    def test_star_removal_gives_four_isolated(self):
        g = graph_of([[0, 9], [1, 9], [2, 9], [3, 9], [4, 9]],
                     [(0, 1), (0, 2), (0, 3), (0, 4)])
        char = classify_characteristic_nodes(g, np.array([], dtype=int))
        res = partition(g, char)
        assert [s.kind for s in res.segments] == [KIND_ISOLATED] * 4

    def test_shared_points_stay_with_survivors(self):
        # node 1 removed as boundary; point 10 shared with surviving node 0
        g = graph_of([[0, 10], [10, 11, 20], [20, 2]], [(0, 1), (1, 2)])
        char = CharacteristicNodes(frozenset({1}), frozenset())
        res = partition(g, char)
        seg_points = set()
        for s in res.segments:
            seg_points |= set(s.point_indices)
        assert 10 in seg_points and 20 in seg_points
        assert res.removed_boundary_points == frozenset({11})

    def test_disjoint_and_covering(self):
        g = graph_of([[0, 1], [1, 2], [2, 3], [5], [6, 7]],
                     [(0, 1), (1, 2), (3, 4)])
        char = CharacteristicNodes(frozenset({4}), frozenset())
        res = partition(g, char)
        all_pts = set()
        for s in res.segments:
            pts = set(s.point_indices)
            assert not (pts & all_pts)
            all_pts |= pts
        covered = all_pts | set(res.removed_boundary_points) | set(res.removed_singular_points)
        assert covered >= {0, 1, 2, 3, 5, 6, 7}

    def test_max_degree_after_singular_removal(self):
        g = graph_of([[0], [1], [2], [3], [0, 1, 2, 3, 4]],
                     [(0, 4), (1, 4), (2, 4), (3, 4)])
        char = classify_characteristic_nodes(g, np.array([], dtype=int))
        res = partition(g, char)
        assert char.singular_nodes == frozenset({4})
        # all surviving components have degree <= 2
        for seg in res.segments:
            assert seg.kind in (KIND_OPEN, KIND_CLOSED, KIND_ISOLATED)


class TestMatch:
    def _single_segment(self, points):
        return PartitionResult(
            segments=(Segment(tuple(points), KIND_OPEN, (0,)),),
            removed_boundary_points=frozenset(),
            removed_singular_points=frozenset(),
        )

    def test_single_pair(self):
        p1 = self._single_segment([0, 1])
        p2 = self._single_segment([0, 1, 2])
        match = match_across_domains(p1, p2, np.array([[0, 2]]))
        assert match.pairs == ((0, 0, 1),)

    def test_periodic_seam_one_to_two(self):
        # one closed segment on side 1, two open halves on side 2
        p1 = PartitionResult(
            segments=(Segment(tuple(range(8)), KIND_CLOSED, (0,)),),
            removed_boundary_points=frozenset(),
            removed_singular_points=frozenset(),
        )
        p2 = PartitionResult(
            segments=(
                Segment((0, 1, 2, 3), KIND_OPEN, (0,)),
                Segment((4, 5, 6, 7), KIND_OPEN, (1,)),
            ),
            removed_boundary_points=frozenset(),
            removed_singular_points=frozenset(),
        )
        corr = np.array([[i, i] for i in range(8)])
        match = match_across_domains(p1, p2, corr)
        assert match.pairs == ((0, 0, 4), (0, 1, 4))

    def test_removed_points_do_not_vote(self):
        p1 = PartitionResult(
            segments=(Segment((0,), KIND_ISOLATED, (0,)),),
            removed_boundary_points=frozenset({1}),
            removed_singular_points=frozenset(),
        )
        p2 = self._single_segment([0, 1])
        match = match_across_domains(p1, p2, np.array([[1, 0]]))
        assert match.pairs == ()

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        seg1 = [Segment(tuple(range(0, 5)), KIND_OPEN, (0,)),
                Segment(tuple(range(5, 9)), KIND_OPEN, (1,))]
        seg2 = [Segment(tuple(range(0, 3)), KIND_OPEN, (0,)),
                Segment(tuple(range(3, 9)), KIND_OPEN, (1,))]
        p1 = PartitionResult(tuple(seg1), frozenset(), frozenset())
        p2 = PartitionResult(tuple(seg2), frozenset(), frozenset())
        corr = np.column_stack([rng.integers(0, 9, 30), rng.integers(0, 9, 30)])
        fwd = match_across_domains(p1, p2, corr)
        rev = match_across_domains(p2, p1, corr[:, ::-1])
        assert {(a, b) for a, b, _ in fwd.pairs} == {(b, a) for a, b, _ in rev.pairs}
        assert all(c >= 1 for _, _, c in fwd.pairs)

    def test_empty_correspondence_warns(self, caplog):
        p1 = self._single_segment([0])
        p2 = self._single_segment([0])
        with caplog.at_level("WARNING"):
            match = match_across_domains(p1, p2, np.empty((0, 2)))
        assert match.pairs == ()
        assert any("empty correspondence" in r.message for r in caplog.records)
        assert isinstance(match, CrossDomainMatch)
