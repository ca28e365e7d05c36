import numpy as np
import pytest

from sstopo import (
    ConfigurationError,
    DegenerateCloudError,
    EmptyInputError,
    LinearFilter,
    MapperParams,
    build_cover,
    build_mapper_graph,
    centroid,
    cluster_preimage,
    compute_l0,
    default_delta,
    eval_filter,
    interval_count,
    principal_direction,
)
from sstopo.mapper import make_pca_filter
from sstopo.synthetic import recommended_delta

from corpus import (
    assert_edges_match_intersections,
    brute_force_clusters,
    closed_form_leading_eigenvector,
    noisy_circle_cloud,
)


class TestCentroid:
    def test_midpoint(self):
        np.testing.assert_array_equal(centroid(np.array([[0.0, 0], [2, 0]])), [1, 0])

    def test_singleton(self):
        np.testing.assert_array_equal(centroid(np.array([[1.0, 1.0]])), [1, 1])

    def test_uniform_cloud_near_center(self):
        rng = np.random.default_rng(0)
        cloud = rng.uniform(0, 1, (1000, 2))
        c = centroid(cloud)
        oracle = np.array([cloud[:, 0].sum(), cloud[:, 1].sum()]) / 1000.0
        np.testing.assert_allclose(c, oracle, atol=1e-12)
        assert np.linalg.norm(c - [0.5, 0.5]) < 0.05

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            centroid(np.empty((0, 2)))


class TestPrincipalDirection:
    def test_collinear_x(self):
        cloud = np.array([[0.0, 0], [1, 0], [2, 0], [3, 0]])
        np.testing.assert_allclose(principal_direction(cloud), [1, 0], atol=1e-12)

    def test_collinear_y(self):
        cloud = np.array([[0.0, 0], [0, 1], [0, 2]])
        np.testing.assert_allclose(principal_direction(cloud), [0, 1], atol=1e-12)

    def test_diagonal_matches_closed_form(self):
        cloud = np.array([[0.0, 0], [1, 1], [2, 2], [3, 3.1]])
        w = principal_direction(cloud)
        oracle = closed_form_leading_eigenvector(cloud)
        angle = np.arccos(np.clip(abs(np.dot(w, oracle)), -1, 1))
        assert angle < 0.05
        assert np.arccos(np.clip(abs(np.dot(w, np.sqrt(0.5) * np.ones(2))), -1, 1)) < 0.05

    def test_random_clouds_match_closed_form(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cloud = rng.normal(size=(50, 2)) * [2.0, 0.5] + rng.normal(size=2)
            w = principal_direction(cloud)
            oracle = closed_form_leading_eigenvector(cloud)
            assert abs(abs(np.dot(w, oracle)) - 1.0) < 1e-9

    def test_isotropic_tie_break(self):
        square = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        np.testing.assert_array_equal(principal_direction(square), [1, 0])

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateCloudError):
            principal_direction(np.array([[1.0, 2.0]]))
        with pytest.raises(DegenerateCloudError):
            principal_direction(np.ones((5, 2)))

    def test_sign_canonical(self):
        cloud = np.array([[0.0, 0], [-1, -1], [-2, -2.1]])
        w = principal_direction(cloud)
        assert w[0] > 0


class TestEvalFilter:
    def test_center_maps_to_zero(self):
        f = LinearFilter(np.array([2.0, 3.0]), np.array([0.6, 0.8]))
        assert eval_filter(f, np.array([2.0, 3.0])) == 0.0

    def test_axis_projection(self):
        f = LinearFilter(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert eval_filter(f, np.array([3.0, 7.0])) == 3.0

    def test_vectorized(self):
        f = LinearFilter(np.array([0.0, 0.0]), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(
            eval_filter(f, np.array([[1.0, 2.0], [3.0, -4.0]])), [2.0, -4.0]
        )

    def test_lipschitz_constant_one(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = rng.normal(size=2)
            f = LinearFilter(rng.normal(size=2), d / np.linalg.norm(d))
            xs = rng.normal(size=(1000, 2)) * 5
            ys = rng.normal(size=(1000, 2)) * 5
            lhs = np.abs(eval_filter(f, xs) - eval_filter(f, ys))
            rhs = np.linalg.norm(xs - ys, axis=1)
            assert np.all(lhs <= rhs + 1e-12)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            LinearFilter(np.zeros(2), np.array([1.0, 1.0]))


class TestDefaultDelta:
    def test_twice_cell_diagonal(self):
        assert default_delta(0.05) == pytest.approx(0.1)

    def test_synthetic_sampling_rule(self):
        # delta for sampled curves: 4 * (noise + step/2)
        assert recommended_delta(0.02, 0.03) == pytest.approx(4 * (0.03 + 0.01))

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            default_delta(0.0)


class TestComputeL0:
    X_AXIS = LinearFilter(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_three_point_line(self):
        cloud = np.array([[0.0, 0], [1, 0], [2, 0]])
        # pairs within 1.5: (0,1) and (1,2), sup diff 1 -> 1/0.2 = 5
        assert compute_l0(cloud, self.X_AXIS, 1.5, 0.2) == pytest.approx(5.0)

    def test_matches_brute_force_oracle(self):
        # From a few points per grid cell to a few dozen; every size runs the
        # one grid path.
        rng = np.random.default_rng(21)
        for n in (80, 255, 256, 600):
            for _ in range(10):
                self._check_against_oracle(rng, n)

    def _check_against_oracle(self, rng, n):
        cloud = rng.uniform(-1, 1, (n, 2))
        delta = float(rng.uniform(0.05, 0.8))
        f = make_pca_filter(cloud)
        vals = eval_filter(f, cloud)
        sup = 0.0
        for i in range(len(cloud) - 1):
            close = np.linalg.norm(cloud[i + 1 :] - cloud[i], axis=1) < delta
            if close.any():
                sup = max(sup, float(np.abs(vals[i + 1 :][close] - vals[i]).max()))
        assert compute_l0(cloud, f, delta, 0.2) == pytest.approx(sup / 0.2), f"n={n}"

    def test_constant_filter_gives_zero(self):
        cloud = np.array([[0.0, 0], [0.1, 0], [0.2, 0]])
        f = LinearFilter(np.zeros(2), np.array([0.0, 1.0]))  # orthogonal to spread
        assert compute_l0(cloud, f, 0.5, 0.2) == 0.0

    def test_no_pair_falls_back_to_lipschitz_bound(self):
        cloud = np.array([[0.0, 0], [10.0, 0]])
        assert compute_l0(cloud, self.X_AXIS, 0.5, 0.2) == pytest.approx(0.5 / 0.2)

    def test_lipschitz_upper_bound(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            cloud = rng.normal(size=(60, 2))
            delta = float(rng.uniform(0.1, 1.0))
            f = make_pca_filter(cloud)
            assert compute_l0(cloud, f, delta, 0.2) <= delta / 0.2 + 1e-12

    def test_too_small_cloud(self):
        with pytest.raises(DegenerateCloudError):
            compute_l0(np.array([[0.0, 0.0]]), self.X_AXIS, 0.5, 0.2)


class TestIntervalCount:
    F = LinearFilter(np.array([0.0, 0.0]), np.array([1.0, 0.0]))

    def test_hand_checked_case(self):
        cloud = np.column_stack([np.linspace(0, 10, 200), np.zeros(200)])
        assert interval_count(cloud, self.F, 1.0, 0.2) == 12

    def test_zero_range_clamps_to_one(self):
        cloud = np.zeros((5, 2))
        assert interval_count(cloud, self.F, 1.0, 0.2) == 1

    def test_range_equals_length(self):
        cloud = np.array([[0.0, 0], [1.0, 0]])
        assert interval_count(cloud, self.F, 1.0, 0.2) == 1

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ConfigurationError):
            interval_count(np.zeros((2, 2)), self.F, 0.0, 0.2)


class TestBuildCover:
    def test_single_interval(self):
        cover = build_cover(0.0, 3.0, 1, 0.2)
        assert cover.size == 1
        np.testing.assert_array_equal(cover.intervals, [[0.0, 3.0]])
        assert cover.length == 3.0

    def test_two_interval_hand_solution(self):
        cover = build_cover(0.0, 1.0, 2, 0.2)
        # l solves 2l - 0.2 l = 1
        assert cover.length == pytest.approx(1 / 1.8)
        np.testing.assert_allclose(cover.intervals[0], [0.0, 1 / 1.8], atol=1e-12)
        np.testing.assert_allclose(cover.intervals[1], [1 - 1 / 1.8, 1.0], atol=1e-12)
        overlap = cover.intervals[0, 1] - cover.intervals[1, 0]
        assert overlap == pytest.approx(0.2 * cover.length)

    def test_last_endpoint_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f_min = float(rng.uniform(-10, 10))
            span = float(rng.uniform(0.01, 20))
            s = int(rng.integers(1, 40))
            theta = float(rng.uniform(0.01, 0.49))
            cover = build_cover(f_min, f_min + span, s, theta)
            assert cover.intervals[-1, 1] == f_min + span
            assert cover.intervals[0, 0] == f_min

    def test_invariant_sweep(self):
        # cover arithmetic across 1000 random draws, tolerance 1e-9
        rng = np.random.default_rng(99)
        for _ in range(1000):
            f_min = float(rng.uniform(-100, 100))
            span = float(rng.uniform(1e-3, 50))
            s = int(rng.integers(1, 60))
            theta = float(rng.uniform(0.01, 0.49))
            cover = build_cover(f_min, f_min + span, s, theta)
            lengths = cover.intervals[:, 1] - cover.intervals[:, 0]
            assert np.all(np.abs(lengths - cover.length) < 1e-9)
            if s > 1:
                overlaps = cover.intervals[:-1, 1] - cover.intervals[1:, 0]
                assert np.all(np.abs(overlaps - theta * cover.length) < 1e-9)
            if s > 2:
                # no point lies in three intervals
                assert np.all(cover.intervals[2:, 0] > cover.intervals[:-2, 1] - 1e-12)
            assert cover.intervals[0, 0] <= f_min and cover.intervals[-1, 1] >= f_min + span


class TestClusterPreimage:
    def test_gap_splits_clusters(self):
        cloud = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [5.0, 0], [5.1, 0]])
        clusters = cluster_preimage(np.arange(5), cloud, 0.5)
        assert [c.tolist() for c in clusters] == [[0, 1, 2], [3, 4]]

    def test_large_delta_single_cluster(self):
        cloud = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [5.0, 0], [5.1, 0]])
        clusters = cluster_preimage(np.arange(5), cloud, 10.0)
        assert [c.tolist() for c in clusters] == [[0, 1, 2, 3, 4]]

    def test_strict_inequality_at_delta(self):
        cloud = np.array([[0.0, 0.0], [0.5, 0.0]])
        assert len(cluster_preimage(np.arange(2), cloud, 0.5)) == 2
        assert len(cluster_preimage(np.arange(2), cloud, 0.5 + 1e-9)) == 1

    def test_empty_preimage(self):
        assert cluster_preimage(np.array([], dtype=int), np.zeros((3, 2)), 0.5) == []

    @pytest.mark.parametrize("n", [60, 200, 300, 500])
    def test_matches_brute_force_union_find(self, n):
        # sparse to dense preimages on the delta/2 grid
        rng = np.random.default_rng(n)
        cloud = rng.uniform(0, 1, (n, 2))
        delta = float(rng.uniform(0.02, 0.2))
        subset = np.sort(rng.choice(n, size=max(2, int(0.8 * n)), replace=False))
        got = cluster_preimage(subset, cloud, delta)
        expected = brute_force_clusters(subset, cloud, delta)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


class TestMapperParams:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MapperParams(delta=0.0)
        with pytest.raises(ConfigurationError):
            MapperParams(delta=0.1, theta_ov=0.5)
        with pytest.raises(ConfigurationError):
            MapperParams(delta=0.1, theta_ov=0.0)
        with pytest.raises(ConfigurationError):
            MapperParams(delta=0.1, alpha=0.0)
        with pytest.raises(ConfigurationError):
            MapperParams(delta=float("nan"))
        with pytest.raises(ConfigurationError):
            MapperParams(delta=0.1, alpha=float("nan"))


class TestBuildMapperGraph:
    def test_segment_gives_path(self):
        xs = np.arange(0, 3.0001, 0.02)
        cloud = np.column_stack([xs, np.zeros_like(xs)])
        params = MapperParams(delta=0.08)
        g = build_mapper_graph(cloud, make_pca_filter(cloud), params)
        degrees = list(g.degrees().values())
        assert max(degrees) <= 2
        assert len(g.connected_components()) == 1
        assert g.edge_count == g.node_count - 1
        assert_edges_match_intersections(g)

    def test_two_parallel_segments_two_components(self):
        xs = np.arange(0, 3.0001, 0.02)
        a = np.column_stack([xs, np.zeros_like(xs)])
        b = np.column_stack([xs, np.full_like(xs, 2.0)])
        cloud = np.vstack([a, b])
        params = MapperParams(delta=0.08)
        g = build_mapper_graph(cloud, make_pca_filter(cloud), params)
        assert len(g.connected_components()) == 2
        assert_edges_match_intersections(g)

    def test_noisy_circle_single_cycle(self):
        pts, _ = noisy_circle_cloud(seed=7)
        params = MapperParams(delta=recommended_delta(0.02, 0.01))
        g = build_mapper_graph(pts, make_pca_filter(pts), params)
        comps = g.connected_components()
        assert len(comps) == 1
        assert g.edge_count - g.node_count + len(comps) == 1
        assert_edges_match_intersections(g)

    def test_node_coverage(self):
        rng = np.random.default_rng(77)
        cloud = rng.uniform(0, 1, (300, 2))
        params = MapperParams(delta=0.15)
        g = build_mapper_graph(cloud, make_pca_filter(cloud), params)
        assert g.point_union() == frozenset(range(300))

    def test_single_point_cloud(self):
        g = build_mapper_graph(
            np.array([[0.3, 0.4]]),
            LinearFilter(np.array([0.3, 0.4]), np.array([1.0, 0.0])),
            MapperParams(delta=0.1),
        )
        assert g.node_count == 1 and g.edge_count == 0

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyInputError):
            build_mapper_graph(
                np.empty((0, 2)),
                LinearFilter(np.zeros(2), np.array([1.0, 0.0])),
                MapperParams(delta=0.1),
            )

    def test_pathological_cloud_interval_cap(self, caplog):
        # two tight far-apart clumps: the raw formula would request an
        # astronomical interval count; construction must stay bounded
        rng = np.random.default_rng(1)
        a = rng.normal(scale=1e-7, size=(20, 2))
        b = rng.normal(scale=1e-7, size=(20, 2)) + [1e6, 0]
        cloud = np.vstack([a, b])
        params = MapperParams(delta=1e-5)
        g = build_mapper_graph(cloud, make_pca_filter(cloud), params)
        assert g.node_count <= 2 * len(cloud) + 1
        assert len(g.connected_components()) == 2
        assert any("capped" in r.message for r in caplog.records)

    def test_translation_invariance(self):
        pts, _ = noisy_circle_cloud(seed=13)
        params = MapperParams(delta=recommended_delta(0.02, 0.01))
        g1 = build_mapper_graph(pts, make_pca_filter(pts), params)
        moved = pts + np.array([4.0, -8.0])
        g2 = build_mapper_graph(moved, make_pca_filter(moved), params)

        def canon(g):
            key = {n.id: n.sorted_points() for n in g.nodes}
            nodes = sorted(key.values())
            edges = sorted(tuple(sorted((key[a], key[b]))) for a, b in g.edges)
            return nodes, edges

        assert canon(g1) == canon(g2)
