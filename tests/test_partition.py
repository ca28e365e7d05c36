import numpy as np
import pytest

from sstopo import (
    ConfigurationError,
    CrossDomainMatch,
    approximate_boundary_set,
    classify_characteristic_nodes,
    match_across_domains,
    partition,
)
from sstopo.mapper import MapperGraph, MapperNode
from sstopo.partition import KIND_CLOSED, KIND_ISOLATED, KIND_OPEN, PartitionResult, Segment

from corpus import assert_id_array


def graph_of(point_sets, edges):
    nodes = tuple(MapperNode(sorted(pts)) for pts in point_sets)
    return MapperGraph(nodes=nodes, edges=sorted(tuple(sorted(e)) for e in edges))


def path_graph(n, points_per_node=1):
    sets = [range(i * points_per_node, (i + 1) * points_per_node) for i in range(n)]
    return graph_of(sets, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    sets = [[i] for i in range(n)]
    return graph_of(sets, [(i, (i + 1) % n) for i in range(n)])


def ids(array) -> set[int]:
    """An id array as a set of ints, for set-based references."""
    return set(array.tolist())


def node_ids(res):
    return [s.node_ids.tolist() for s in res.segments]


def assert_partition_records(res):
    """Every id set is an id array; the segments are disjoint, ordered by
    least point, and share no point with the removed sets."""
    seen = set()
    for s in res.segments:
        assert_id_array(s.point_indices)
        assert_id_array(s.node_ids)
        assert not ids(s.point_indices) & seen
        seen |= ids(s.point_indices)
    assert_id_array(res.removed_boundary_points)
    assert_id_array(res.removed_singular_points)
    firsts = [s.point_indices.tolist()[0] for s in res.segments]
    assert firsts == sorted(firsts)
    assert not seen & (ids(res.removed_boundary_points) | ids(res.removed_singular_points))


class TestBoundarySet:
    SPEC = (0.0, 1.0, 0.0, 1.0)
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
        with pytest.raises(ConfigurationError, match="degenerate domain bounds"):
            approximate_boundary_set(np.zeros((1, 2)), (1.0, 0.0, 0.0, 1.0), self.DELTA)

    @pytest.mark.parametrize("rect", [
        (0.0, float("inf"), 0.0, 1.0),
        (float("-inf"), 1.0, 0.0, 1.0),
        (float("nan"), 1.0, 0.0, 1.0),
        (0.0, 1.0, 0.0, float("nan")),
        (0.0, 1.0, 1.0, 1.0),
    ])
    def test_non_finite_or_empty_box_rejected(self, rect):
        with pytest.raises(ConfigurationError, match="degenerate domain bounds"):
            approximate_boundary_set(np.zeros((1, 2)), rect, self.DELTA)


class TestClassifyCharacteristic:
    def test_clean_path_has_none(self):
        g = path_graph(4)
        res = classify_characteristic_nodes(g, np.array([], dtype=int))
        assert ids(res.boundary_nodes) == set()
        assert ids(res.singular_nodes) == set()
        assert_id_array(res.boundary_nodes)
        assert_id_array(res.singular_nodes)

    def test_star_center_is_singular(self):
        g = graph_of([[0], [1], [2], [3], [4]], [(0, 1), (0, 2), (0, 3), (0, 4)])
        res = classify_characteristic_nodes(g, np.array([], dtype=int))
        assert ids(res.singular_nodes) == {0}

    def test_boundary_membership(self):
        g = path_graph(3)
        res = classify_characteristic_nodes(g, np.array([2]))
        assert ids(res.boundary_nodes) == {2}

    def test_boundary_nodes_ascend_whatever_the_point_order(self):
        # Node 3 holds the lowest boundary point, node 0 the highest.
        g = graph_of([[9], [5, 6], [7], [1, 4]], [])
        res = classify_characteristic_nodes(g, np.array([9, 1, 6, 4]))
        assert res.boundary_nodes.tolist() == [0, 1, 3]
        assert_id_array(res.boundary_nodes)

    def test_node_can_be_both(self):
        g = graph_of([[0], [1], [2], [3], [4]], [(0, 1), (0, 2), (0, 3), (0, 4)])
        res = classify_characteristic_nodes(g, np.array([0]))
        assert ids(res.boundary_nodes) == {0} and ids(res.singular_nodes) == {0}
        res = partition(g, res.boundary_nodes)
        assert node_ids(res) == [[1], [2], [3], [4]]
        assert ids(res.removed_boundary_points) == {0}
        assert ids(res.removed_singular_points) == {0}

    def test_singular_detection_warns(self, caplog):
        g = graph_of([[0], [1], [2], [3], [4]], [(0, 1), (0, 2), (0, 3), (0, 4)])
        with caplog.at_level("WARNING"):
            classify_characteristic_nodes(g, np.array([], dtype=int))
        assert any("singular" in r.message for r in caplog.records)


class TestPartition:
    def test_path_is_open(self):
        res = partition(path_graph(5), [])
        assert [s.kind for s in res.segments] == [KIND_OPEN]
        assert res.segments[0].point_indices.tolist() == list(range(5))
        assert_partition_records(res)

    def test_a_segment_indexes_point_rows(self):
        # Two points index two rows, not one element of a multi-axis index.
        pts = np.arange(10.0).reshape(5, 2)
        res = partition(graph_of([[3, 1]], []), [])
        assert pts[res.segments[0].point_indices].tolist() == [[2.0, 3.0], [6.0, 7.0]]

    def test_cycle_is_closed(self):
        res = partition(cycle_graph(6), [])
        assert [s.kind for s in res.segments] == [KIND_CLOSED]

    def test_single_node_is_isolated(self):
        res = partition(graph_of([[0, 1]], []), [])
        assert [s.kind for s in res.segments] == [KIND_ISOLATED]

    def test_two_node_component_is_open(self):
        res = partition(graph_of([[0, 1], [1, 2]], [(0, 1)]), [])
        assert [s.kind for s in res.segments] == [KIND_OPEN]

    def test_star_removal_gives_four_open_arms(self):
        # Each arm lost its one neighbor, the singular center: an arc cut
        # short, not an isolated point.
        g = graph_of([[0, 9], [1, 9], [2, 9], [3, 9], [4, 9]],
                     [(0, 1), (0, 2), (0, 3), (0, 4)])
        res = partition(g, [])
        assert [s.kind for s in res.segments] == [KIND_OPEN] * 4
        assert node_ids(res) == [[1], [2], [3], [4]]

    def test_one_node_arm_between_removed_nodes_is_open(self):
        # boundary node 0 - arm 1 - singular node 2 with two more arms
        g = graph_of([[0], [0, 1], [1, 2], [2, 3], [2, 4]],
                     [(0, 1), (1, 2), (2, 3), (2, 4)])
        res = partition(g, [0])
        assert [(s.node_ids.tolist(), s.kind) for s in res.segments] == [
            ([1], KIND_OPEN), ([3], KIND_OPEN), ([4], KIND_OPEN)]

    def test_node_without_neighbors_stays_isolated_beside_removal(self):
        g = graph_of([[0], [1], [2], [3], [0, 1, 2, 3], [7]],
                     [(0, 4), (1, 4), (2, 4), (3, 4)])
        res = partition(g, [])
        assert [(s.node_ids.tolist(), s.kind) for s in res.segments] == [
            ([0], KIND_OPEN), ([1], KIND_OPEN), ([2], KIND_OPEN), ([3], KIND_OPEN),
            ([5], KIND_ISOLATED)]
        assert_partition_records(res)

    def test_every_node_removed_gives_no_segment(self):
        # Every node of the complete graph on four nodes has degree 3, so
        # every node is singular and removed, band or not.
        g = graph_of([[0, 1, 2], [0, 3, 4], [1, 3, 5], [2, 4, 5]],
                     [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        res = partition(g, [0])
        assert res.segments == ()
        assert ids(res.removed_boundary_points) == {0, 1, 2}
        assert ids(res.removed_singular_points) == set(range(6))
        assert_partition_records(res)
        assert partition(graph_of([], []), []).segments == ()

    def test_band_only_path_is_kept_whole_and_open(self):
        # Removal cuts an arc's ends; an arc that is all ends stays whole.
        g = path_graph(3, points_per_node=2)
        res = partition(g, [0, 1, 2])
        assert [(s.node_ids.tolist(), s.kind) for s in res.segments] == [([0, 1, 2], KIND_OPEN)]
        assert res.segments[0].point_indices.tolist() == list(range(6))
        assert ids(res.removed_boundary_points) == set()
        assert ids(res.removed_singular_points) == set()
        assert_partition_records(res)

    def test_band_only_cycle_is_closed(self):
        res = partition(cycle_graph(5), [0, 1, 2, 3, 4])
        assert [s.kind for s in res.segments] == [KIND_CLOSED]

    def test_band_nodes_go_where_the_component_leaves_the_band(self):
        # Nodes 0 and 4 end the path in the band and are cut; the band-only
        # path 5 - 6 beside it is kept.
        g = graph_of([[0, 10], [0, 1], [1, 2], [2, 3], [3, 11], [7, 8], [8, 9]],
                     [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)])
        res = partition(g, [0, 4, 5, 6])
        assert [(s.node_ids.tolist(), s.kind) for s in res.segments] == [
            ([1, 2, 3], KIND_OPEN), ([5, 6], KIND_OPEN)]
        assert ids(res.removed_boundary_points) == {10, 11}
        assert_partition_records(res)

    def test_lone_band_node_is_open(self):
        # A band node with no neighbour is an arc's end, not a tangency.
        res = partition(graph_of([[0, 1], [5]], []), [0])
        assert [(s.node_ids.tolist(), s.kind) for s in res.segments] == [
            ([0], KIND_OPEN), ([1], KIND_ISOLATED)]

    def test_band_only_arm_of_a_crossing_is_kept(self):
        # The singular center goes; arm 1 lies in the band but is its whole
        # component of the graph without the center, so it stays.
        g = graph_of([[0, 9], [1, 9], [2, 9], [3, 9], [4, 9]],
                     [(0, 1), (0, 2), (0, 3), (0, 4)])
        res = partition(g, [1])
        assert node_ids(res) == [[1], [2], [3], [4]]
        assert [s.kind for s in res.segments] == [KIND_OPEN] * 4
        assert ids(res.removed_singular_points) == {0}

    def test_shared_points_stay_with_survivors(self):
        # node 1 removed as boundary; point 10 shared with surviving node 0
        g = graph_of([[0, 10], [10, 11, 20], [20, 2]], [(0, 1), (1, 2)])
        res = partition(g, [1])
        seg_points = set()
        for s in res.segments:
            seg_points |= ids(s.point_indices)
        assert 10 in seg_points and 20 in seg_points
        assert ids(res.removed_boundary_points) == {11}
        assert_partition_records(res)

    def test_disjoint_and_covering(self):
        g = graph_of([[0, 1], [1, 2], [2, 3], [5], [6, 7]],
                     [(0, 1), (1, 2), (3, 4)])
        res = partition(g, [4])
        all_pts = set()
        for s in res.segments:
            pts = ids(s.point_indices)
            assert not (pts & all_pts)
            all_pts |= pts
        covered = all_pts | ids(res.removed_boundary_points) | ids(res.removed_singular_points)
        assert covered >= {0, 1, 2, 3, 5, 6, 7}
        assert_partition_records(res)

    def test_segments_ordered_by_least_point_not_by_node(self):
        # Node 0's component holds points 5..6, node 1's holds 0..1, and the
        # last point of node 2's component, 9, is above node 3's, 8.
        g = graph_of([[5, 6], [0, 1], [2, 9], [3, 8]], [])
        res = partition(g, [])
        assert node_ids(res) == [[1], [2], [3], [0]]
        assert_partition_records(res)

    def test_removed_points_exclude_every_survivors_points(self):
        # Boundary node 1 (degree 2) and singular node 3 (degree 3) share
        # points 1, 3, 4 and 6 with the survivors, and point 8 with each other.
        g = graph_of([[0, 1, 3], [1, 2, 3, 8], [4, 9], [4, 5, 6, 8], [6, 7]],
                     [(0, 1), (1, 3), (2, 3), (3, 4)])
        res = partition(g, [1])
        assert node_ids(res) == [[0], [2], [4]]
        assert ids(res.removed_boundary_points) == {2, 8}
        assert ids(res.removed_singular_points) == {5, 8}
        assert_partition_records(res)

    def test_max_degree_after_singular_removal(self):
        g = graph_of([[0], [1], [2], [3], [0, 1, 2, 3, 4]],
                     [(0, 4), (1, 4), (2, 4), (3, 4)])
        char = classify_characteristic_nodes(g, np.array([], dtype=int))
        res = partition(g, char.boundary_nodes)
        assert ids(char.singular_nodes) == {4}
        assert ids(res.removed_singular_points) == {4}
        # all surviving components have degree <= 2
        for seg in res.segments:
            assert seg.kind in (KIND_OPEN, KIND_CLOSED, KIND_ISOLATED)


class TestMatch:
    def _single_segment(self, points):
        return PartitionResult(
            segments=(Segment(points, KIND_OPEN, [0]),),
            removed_boundary_points=[],
            removed_singular_points=[],
        )

    def test_single_pair(self):
        p1 = self._single_segment([0, 1])
        p2 = self._single_segment([0, 1, 2])
        match = match_across_domains(p1, p2, np.array([[0, 2]]))
        assert match.pairs == ((0, 0, 1),)

    def test_periodic_seam_one_to_two(self):
        # one closed segment on side 1, two open halves on side 2
        p1 = PartitionResult(
            segments=(Segment(range(8), KIND_CLOSED, [0]),),
            removed_boundary_points=[],
            removed_singular_points=[],
        )
        p2 = PartitionResult(
            segments=(
                Segment([0, 1, 2, 3], KIND_OPEN, [0]),
                Segment([4, 5, 6, 7], KIND_OPEN, [1]),
            ),
            removed_boundary_points=[],
            removed_singular_points=[],
        )
        corr = np.array([[i, i] for i in range(8)])
        match = match_across_domains(p1, p2, corr)
        assert match.pairs == ((0, 0, 4), (0, 1, 4))

    def test_removed_points_do_not_vote(self):
        p1 = PartitionResult(
            segments=(Segment([0], KIND_ISOLATED, [0]),),
            removed_boundary_points=[1],
            removed_singular_points=[],
        )
        p2 = self._single_segment([0, 1])
        match = match_across_domains(p1, p2, np.array([[1, 0]]))
        assert match.pairs == ()

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        seg1 = [Segment(range(0, 5), KIND_OPEN, [0]),
                Segment(range(5, 9), KIND_OPEN, [1])]
        seg2 = [Segment(range(0, 3), KIND_OPEN, [0]),
                Segment(range(3, 9), KIND_OPEN, [1])]
        p1 = PartitionResult(tuple(seg1), [], [])
        p2 = PartitionResult(tuple(seg2), [], [])
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
