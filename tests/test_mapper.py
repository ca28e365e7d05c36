import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sstopo import (
    ConfigurationError,
    DegenerateCloudError,
    EmptyInputError,
    LinearFilter,
    MapperParams,
    build_cover,
    build_mapper_graph,
    centroid,
    compute_l0,
    default_delta,
    eval_filter,
    interval_count,
    principal_direction,
)
from sstopo import twostep
from sstopo._kernels import witness_sup
from sstopo.mapper import (EIGEN_TIE_TOL, _clusters, _sup_cap, make_pca_filter,
                           witness_interval_counts)
from sstopo.synthetic import recommended_delta

from corpus import (
    NOISE,
    STEP,
    assert_edge_record,
    assert_edges_match_intersections,
    brute_force_clusters,
    closed_form_leading_eigenvector,
    noisy_circle_cloud,
    point_set,
    three_curves_cloud,
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

    def test_degenerate_cloud_takes_the_tie_direction(self):
        # Zero covariance is a tie: one point and coincident points get (1, 0).
        np.testing.assert_array_equal(principal_direction(np.array([[1.0, 2.0]])), [1, 0])
        np.testing.assert_array_equal(principal_direction(np.full((5, 2), 0.1)), [1, 0])
        with pytest.raises(EmptyInputError):
            principal_direction(np.empty((0, 2)))

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
        with pytest.raises(ConfigurationError):
            LinearFilter(np.zeros(2), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("center, direction, message", [
        (np.zeros(2), [np.nan, 0.0], "unit vector"),
        (np.zeros(2), [np.inf, 0.0], "unit vector"),
        ([np.nan, 0.0], [1.0, 0.0], "finite"),
        ([0.0, np.inf], [1.0, 0.0], "finite"),
        (np.zeros(3), [1.0, 0.0], "2-vectors"),
        (np.zeros(2), [1.0, 0.0, 0.0], "2-vectors"),
        (np.zeros((1, 2)), [1.0, 0.0], "2-vectors"),
    ], ids=["nan-direction", "inf-direction", "nan-center", "inf-center", "3-vector-center",
            "3-vector-direction", "row-center"])
    def test_malformed_filter_rejected(self, center, direction, message):
        with pytest.raises(ConfigurationError, match=message):
            LinearFilter(np.asarray(center, dtype=float), np.asarray(direction, dtype=float))

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2)),
                                   np.float64(1.0)], ids=["3-vector", "n-by-3", "3-d", "scalar"])
    def test_malformed_input_rejected(self, x):
        f = LinearFilter(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(DegenerateCloudError, match="point or an"):
            eval_filter(f, x)


def _offsets_of(rng, n, offset):
    """A cloud of n points around `offset` and a filter whose centre is the
    cloud's mean, or far from it."""
    cloud = rng.normal(size=(n, 2)) * rng.uniform(1e-3, 10.0) + offset
    center = cloud.mean(axis=0) if n else np.zeros(2)
    if rng.random() < 0.3:
        center = center + rng.uniform(-1e6, 1e6, 2)
    d = rng.normal(size=2)
    return cloud, LinearFilter(center, d / np.linalg.norm(d))


BITS = settings(max_examples=60, deadline=None, database=None)


class TestReferenceBits:
    """The column-by-column offsets give the bits of the broadcast
    expressions they replace."""

    @seed(6096)
    @BITS
    @given(st.integers(0, 2**32 - 1), st.integers(0, 400), st.sampled_from([0.0, 1e6, -1e6]))
    def test_eval_filter(self, s, n, offset):
        rng = np.random.default_rng(s)
        cloud, f = _offsets_of(rng, n, offset)
        want = (cloud - f.center) @ f.direction
        assert np.array_equal(eval_filter(f, cloud), want)
        assert all(eval_filter(f, p) == (p - f.center) @ f.direction for p in cloud[:5])

    @seed(6097)
    @BITS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(1, 5),
           st.sampled_from([0.0, 1e6, -1e6]))
    def test_sup_cap(self, s, n, sets, offset):
        rng = np.random.default_rng(s)
        cloud, f = _offsets_of(rng, n, offset)
        starts = np.unique(np.concatenate([[0], rng.integers(0, n, sets - 1)]))
        offsets = np.abs(cloud - f.center)
        m = np.maximum.reduceat(offsets[:, 0] + offsets[:, 1], starts)
        want = 0.1 * (1.0 + 2.0**-30) + 2.0**-40 * m + 2.0**-500
        assert np.array_equal(_sup_cap(cloud, f, 0.1, starts), want)

    @seed(6098)
    @BITS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.sampled_from([0.0, 1e6, -1e6]))
    def test_make_pca_filter(self, s, n, offset):
        rng = np.random.default_rng(s)
        cloud, _ = _offsets_of(rng, n, offset)
        center = cloud.mean(axis=0)
        centered = cloud - center
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / n)
        if eigvals[1] - eigvals[0] < EIGEN_TIE_TOL:
            want = np.array([1.0, 0.0])
        else:
            w = eigvecs[:, 1]
            if w[0] < 0 or (w[0] == 0 and w[1] < 0):
                w = -w
            want = w / np.linalg.norm(w)
        f = make_pca_filter(cloud)
        assert np.array_equal(f.center, center)
        assert np.array_equal(f.direction, want)
        assert np.array_equal(centroid(cloud), center)
        assert np.array_equal(principal_direction(cloud), want)


class TestMalformedPcaInput:
    @pytest.mark.parametrize("fn", [centroid, principal_direction, make_pca_filter],
                             ids=["centroid", "principal_direction", "make_pca_filter"])
    @pytest.mark.parametrize("cloud, message", [
        (np.zeros((4, 3)), r"\(n, 2\) array"),
        (np.linspace(0.0, 1.0, 5), r"\(n, 2\) array"),
        ([[0.0, 0.0], [np.nan, 1.0], [2.0, 0.5]], "finite"),
        ([[0.0, 0.0], [1.0, -np.inf]], "finite"),
    ], ids=["n-by-3", "one-dimensional", "nan", "inf"])
    def test_refused(self, fn, cloud, message):
        with pytest.raises(DegenerateCloudError, match=message):
            fn(cloud)


class TestDefaultDelta:
    def test_twice_cell_diagonal(self):
        assert default_delta(0.05) == pytest.approx(0.1)

    def test_synthetic_sampling_rule(self):
        # delta for sampled curves: 4 * (noise + step/2)
        assert recommended_delta(0.02, 0.03) == pytest.approx(4 * (0.03 + 0.01))

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            default_delta(0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 2.0**1023])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="cell diagonal"):
            default_delta(bad)


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
        # One point has no close pair, so it takes the Lipschitz fallback.
        one = np.array([[0.3, 0.7]])
        assert compute_l0(one, self.X_AXIS, 0.5, 0.2) == 0.5 / 0.2
        # The witness has no pair to go by, so the count takes the exact path.
        params = MapperParams(0.5, 0.2, 0.001)
        values = eval_filter(self.X_AXIS, one)
        assert witness_interval_counts(one, [np.arange(1)], self.X_AXIS, params,
                                       values).tolist() == [0]
        assert twostep._counts([np.arange(1)], one, self.X_AXIS, params, values).tolist() == [1]
        with pytest.raises(EmptyInputError):
            compute_l0(np.empty((0, 2)), self.X_AXIS, 0.5, 0.2)


def brute_force_sup(cloud, values, delta):
    """(sup, found) of |values[i]-values[j]| over all pairs, tested with the
    kernel's arithmetic dx*dx + dy*dy < delta*delta."""
    sup, found = 0.0, False
    for i in range(len(cloud) - 1):
        d = cloud[i + 1 :] - cloud[i]
        close = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < delta * delta
        if close.any():
            found = True
            sup = max(sup, float(np.abs(values[i + 1 :][close] - values[i]).max()))
    return sup, found


def count_from_l0(cloud, filt, l0, theta, alpha):
    """The interval count the Mapper takes from l0."""
    if l0 <= 0.0:
        return 1
    return interval_count(cloud, filt, (1.0 + alpha) * l0, theta)


DECIDED = settings(max_examples=60, deadline=None, database=None)
THETAS = st.sampled_from([1e-3, 0.01, 0.2, 0.35, 0.49, 0.499])
ALPHAS = st.sampled_from([1e-9, 1e-3, 0.1, 1.0])


def _direction(rng):
    d = rng.normal(size=2)
    return d / np.linalg.norm(d)


def counts(cloud, filt, delta, theta, alpha):
    """The whole cloud's count from the grouped witness pass (0 when it
    leaves it undecided) and from the count path, `twostep._counts`."""
    everything = [np.arange(len(cloud))]
    params = MapperParams(delta, theta, alpha)
    values = eval_filter(filt, cloud)
    return (int(witness_interval_counts(cloud, everything, filt, params, values)[0]),
            int(twostep._counts(everything, cloud, filt, params, values)[0]))


class TestDecidedCount:
    """The count path, and the witness pass wherever it decides, give the
    count the brute-force supremum gives."""

    def check(self, cloud, filt, delta, theta, alpha):
        sup, found = brute_force_sup(cloud, eval_filter(filt, cloud), delta)
        want = count_from_l0(cloud, filt, sup / theta if found else delta / theta, theta, alpha)
        decided, count = counts(cloud, filt, delta, theta, alpha)
        assert decided in (0, want)
        assert count == want

    @seed(6091)
    @DECIDED
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(1, 16), THETAS, ALPHAS,
           st.sampled_from([0.05, 0.1, 1.0 / 3.0]))
    def test_lattice_at_exact_delta_spacing(self, s, nx, ny, theta, alpha, delta):
        rng = np.random.default_rng(s)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        cloud = np.column_stack([ix.ravel(), iy.ravel()]) * delta
        cloud = rng.permutation(cloud[rng.random(len(cloud)) < 0.9])
        if len(cloud) >= 2:
            axis = np.array([1.0, 0.0]) if rng.random() < 0.5 else _direction(rng)
            self.check(cloud, LinearFilter(cloud.mean(axis=0), axis), delta, theta, alpha)

    @seed(6092)
    @DECIDED
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 200), THETAS, ALPHAS)
    def test_duplicate_points(self, s, distinct, n, theta, alpha):
        rng = np.random.default_rng(s)
        delta = 0.1
        base = rng.uniform(0, 5 * delta, (distinct, 2))
        cloud = base[rng.integers(0, distinct, n)]
        self.check(cloud, LinearFilter(rng.normal(size=2), _direction(rng)), delta, theta, alpha)

    @seed(6093)
    @DECIDED
    @given(st.integers(0, 2**32 - 1), st.integers(2, 300), THETAS, ALPHAS,
           st.floats(-1e6, 1e6))
    def test_noisy_curve_translated(self, s, n, theta, alpha, offset):
        # A noisy arc sampled densely enough that both counts near one and
        # counts in the tens occur; the filter's center may sit far away.
        rng = np.random.default_rng(s)
        delta = 0.05
        t = np.sort(rng.uniform(0, rng.uniform(0.1, 3.0), n))
        cloud = np.column_stack([t, 0.3 * np.sin(2 * t)]) + rng.normal(scale=0.005, size=(n, 2))
        cloud += offset * _direction(rng)
        center = cloud.mean(axis=0) + (rng.uniform(-1e6, 1e6, 2) if rng.random() < 0.3 else 0.0)
        axis = make_pca_filter(cloud).direction
        if rng.random() < 0.5:
            axis = np.array([-axis[1], axis[0]])
        self.check(cloud, LinearFilter(center, axis), delta, theta, alpha)

    @seed(6094)
    @DECIDED
    @given(st.integers(0, 2**32 - 1), st.integers(2, 300), THETAS, ALPHAS)
    def test_uniform_cloud(self, s, n, theta, alpha):
        rng = np.random.default_rng(s)
        delta = float(rng.choice([0.02, 0.1, 0.7]))
        cloud = rng.uniform(-1, 1, (n, 2))
        self.check(cloud, make_pca_filter(cloud), delta, theta, alpha)

    def test_default_stays_exact(self):
        # The witness can decide here, but compute_l0 is exact.
        rng = np.random.default_rng(4)
        cloud = np.column_stack([np.linspace(0, 1, 300), rng.normal(scale=0.01, size=300)])
        f = LinearFilter(cloud.mean(axis=0), np.array([0.0, 1.0]))
        sup, _ = brute_force_sup(cloud, eval_filter(f, cloud), 0.05)
        assert compute_l0(cloud, f, 0.05, 0.2) == sup / 0.2

    def test_decided_without_a_grid(self, sup_grids):
        # A thin strip across the filter: the count is 1 at any supremum the
        # witness and the cap allow.
        rng = np.random.default_rng(4)
        cloud = np.column_stack([np.linspace(0, 1, 300), rng.normal(scale=0.01, size=300)])
        f = LinearFilter(cloud.mean(axis=0), np.array([0.0, 1.0]))
        assert counts(cloud, f, 0.05, 0.2, 0.001) == (1, 1)
        assert sup_grids == []
        assert count_from_l0(cloud, f, compute_l0(cloud, f, 0.05, 0.2), 0.2, 0.001) == 1

    def test_extreme_pair_decides_without_a_grid(self, sup_grids):
        # Every pair within three places across the filter is equal-valued
        # or far apart, so the witness alone reads 0 and would leave the
        # count to the grid. The one close pair of different values, (0, 7),
        # holds the least value, and the span of 3 gives one interval at
        # its 0.5 as at the cap.
        delta, theta, alpha = 1.0, 0.2, 0.001
        cloud = np.array([[0.0, 0.0]] * 4 + [[3.0, 0.1], [3.0, 0.2], [3.0, 0.3]]
                         + [[0.5, 0.4]])
        f = LinearFilter(np.zeros(2), np.array([1.0, 0.0]))
        values = eval_filter(f, cloud)
        assert witness_sup(cloud, values, delta, np.zeros(8, dtype=np.int64),
                           cloud[:, 1]).tolist() == [0.0]
        assert counts(cloud, f, delta, theta, alpha) == (1, 1)
        assert sup_grids == []
        assert count_from_l0(cloud, f, compute_l0(cloud, f, delta, theta), theta, alpha) == 1

    @pytest.mark.parametrize("spacing", [0.9, 0.99])
    def test_undecided_runs_the_grid(self, sup_grids, spacing):
        # A line along the filter at spacing below delta: the witness finds
        # the exact supremum, but the cap, a little above delta, gives fewer
        # intervals, so the count is left to the exact grid path.
        delta, theta, alpha = 0.1, 0.2, 0.001
        cloud = np.column_stack([np.arange(400) * spacing * delta, np.zeros(400)])
        f = LinearFilter(np.zeros(2), np.array([1.0, 0.0]))
        exact = count_from_l0(cloud, f, compute_l0(cloud, f, delta, theta), theta, alpha)
        assert sup_grids == [400]
        assert counts(cloud, f, delta, theta, alpha) == (0, exact)
        assert sup_grids == [400, 400]

    def test_supremum_above_delta(self, sup_grids):
        # With a direction of norm 1 + 0.999e-12, the close pair (0, 4) along
        # it differs by a little more than delta, and neither lower bound
        # sees it. Points 1-3 hold the least value, so point 1 is the first
        # extreme, and point 7, the greatest, is far from every point; in
        # the order across the filter, points 1-3 hide (0, 4) from the
        # witness, which sees only (5, 6), just below delta. Point 7 sets the
        # span so that a count boundary falls between delta and the pair's
        # difference: an upper bound of delta would decide one interval too
        # many.
        delta, theta, alpha = 1.0, 0.2, 0.001
        f = LinearFilter(np.zeros(2), np.array([1.0 + 0.999e-12, 0.0]))
        x = 20.0 + delta
        while not (x - 20.0) * (x - 20.0) + 4e-10 * 4e-10 < delta * delta:
            x = np.nextafter(x, 0.0)
        mid = (1.0 + alpha) * delta * (1.0 + 0.5e-12) / theta
        span = (10 * (1.0 - theta) + theta) * mid
        cloud = np.array([[20.0, 0.0], [0.0, 1e-10], [0.0, 2e-10], [0.0, 3e-10],
                          [x, 4e-10], [10.0, 5e-10], [10.9999999, 5e-10],
                          [span / f.direction[0], 6e-10]])
        exact = count_from_l0(cloud, f, compute_l0(cloud, f, delta, theta), theta, alpha)
        assert interval_count(cloud, f, (1.0 + alpha) * (delta / theta), theta) == exact + 1
        sup_grids.clear()
        assert counts(cloud, f, delta, theta, alpha) == (0, exact)
        assert sup_grids == [8]

    def test_zero_witness_runs_the_grid(self, sup_grids):
        # Every pair within three places in the order across the filter is
        # equal-valued or far apart, so the witness is 0 and must not decide;
        # the one close pair of different values is (0, 7).
        delta = 1.0
        cloud = np.array([[0.0, 0.0]] * 4 + [[100.0, 0.1], [100.0, 0.2], [100.0, 0.3]]
                         + [[0.5, 0.4]])
        f = LinearFilter(np.zeros(2), np.array([1.0, 0.0]))
        assert counts(cloud, f, delta, 0.2, 0.001) == (
            0, count_from_l0(cloud, f, 0.5 / 0.2, 0.2, 0.001))
        assert sup_grids == [8]
        assert compute_l0(cloud, f, delta, 0.2) == 0.5 / 0.2


CAP = settings(max_examples=60, deadline=None, database=None)


class TestSupremumCap:
    @seed(6095)
    @CAP
    @given(st.integers(0, 2**32 - 1), st.integers(1, 60),
           st.sampled_from([-0.999e-12, 0.0, 0.999e-12]),
           st.sampled_from([1e-3, 0.05, 1.0, 37.0]), st.sampled_from([0.0, 1e3, 1e6]))
    def test_bounds_every_computed_close_difference(self, s, n, stretch, delta, far):
        # Pairs along the filter direction at the largest distances that
        # still pass the kernel's test, with the filter's norm off by up to
        # 1e-12 and its center up to a million away.
        rng = np.random.default_rng(s)
        unit = _direction(rng)
        f = LinearFilter(rng.uniform(-far, far, 2), unit * (1.0 + stretch))
        base = rng.uniform(-far, far, 2) + rng.uniform(0, 10 * delta, (n, 2))
        t = delta * (1.0 - rng.integers(0, 6, n) * 2.0**-53)
        cloud = np.concatenate([base, base + t[:, None] * unit])
        sup, found = brute_force_sup(cloud, eval_filter(f, cloud), delta)
        assert sup <= _sup_cap(cloud, f, delta, [0])[0]

    def test_rejected_norm_is_just_beyond_the_tested_range(self):
        with pytest.raises(ConfigurationError):
            LinearFilter(np.zeros(2), np.array([1.0 + 2e-12, 0.0]))


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

    def test_nan_length_rejected(self):
        with pytest.raises(ConfigurationError, match="l_prime must be positive"):
            interval_count(np.zeros((2, 2)), self.F, float("nan"), 0.2)

    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyInputError):
            interval_count(np.empty((0, 2)), self.F, 1.0, 0.2)

    def test_infinite_length_gives_one_interval(self):
        # The formula's limit: (span - theta*l') / ((1 - theta)*l') tends to
        # -theta / (1 - theta) as l' grows, which clamps to one.
        cloud = np.column_stack([np.linspace(0, 10, 200), np.zeros(200)])
        assert interval_count(cloud, self.F, np.inf, 0.2) == 1
        assert interval_count(cloud, self.F, 1e300, 0.2) == 1


def closed_form_length(span, s, theta):
    # s intervals of length l, adjacent ones overlapping by theta * l, span
    # s * l - (s - 1) * theta * l.
    return span / (s - (s - 1) * theta)


class TestBuildCover:
    def test_refuses_no_intervals(self):
        with pytest.raises(ConfigurationError, match="interval count must be >= 1"):
            build_cover(0.0, 1.0, 0, 0.2)

    def test_refuses_reversed_range(self):
        with pytest.raises(ConfigurationError, match="f_max below f_min"):
            build_cover(1.0, 0.0, 2, 0.2)

    @pytest.mark.parametrize("f_min, f_max", [(0.0, float("inf")), (0.0, float("nan")),
                                              (float("nan"), 1.0), (-1e308, 1e308)])
    def test_refuses_a_range_without_finite_span(self, f_min, f_max):
        with pytest.raises(ConfigurationError, match="finite span"):
            build_cover(f_min, f_max, 2, 0.2)

    def test_single_interval(self):
        cover = build_cover(0.0, 3.0, 1, 0.2)
        assert len(cover) == 1
        np.testing.assert_array_equal(cover, [[0.0, 3.0]])
        assert cover[0, 1] - cover[0, 0] == closed_form_length(3.0, 1, 0.2) == 3.0

    def test_two_interval_hand_solution(self):
        cover = build_cover(0.0, 1.0, 2, 0.2)
        # l solves 2l - 0.2 l = 1
        length = 1 / 1.8
        assert cover.shape == (2, 2)
        np.testing.assert_allclose(cover[:, 1] - cover[:, 0], [length, length], atol=1e-12)
        np.testing.assert_allclose(cover[0], [0.0, length], atol=1e-12)
        np.testing.assert_allclose(cover[1], [1 - length, 1.0], atol=1e-12)
        overlap = cover[0, 1] - cover[1, 0]
        assert overlap == pytest.approx(0.2 * length)

    def test_last_endpoint_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            f_min = float(rng.uniform(-10, 10))
            span = float(rng.uniform(0.01, 20))
            s = int(rng.integers(1, 40))
            theta = float(rng.uniform(0.01, 0.49))
            cover = build_cover(f_min, f_min + span, s, theta)
            assert cover[-1, 1] == f_min + span
            assert cover[0, 0] == f_min

    def test_invariant_sweep(self):
        # cover arithmetic across 1000 random draws, tolerance 1e-9
        rng = np.random.default_rng(99)
        for _ in range(1000):
            f_min = float(rng.uniform(-100, 100))
            span = float(rng.uniform(1e-3, 50))
            s = int(rng.integers(1, 60))
            theta = float(rng.uniform(0.01, 0.49))
            cover = build_cover(f_min, f_min + span, s, theta)
            length = closed_form_length(span, s, theta)
            assert cover.shape == (s, 2)
            lengths = cover[:, 1] - cover[:, 0]
            assert np.all(np.abs(lengths - length) < 1e-9)
            if s > 1:
                overlaps = cover[:-1, 1] - cover[1:, 0]
                assert np.all(np.abs(overlaps - theta * length) < 1e-9)
            if s > 2:
                # no point lies in three intervals
                assert np.all(cover[2:, 0] > cover[:-2, 1] - 1e-12)
            assert cover[0, 0] <= f_min and cover[-1, 1] >= f_min + span


class TestClusterPreimage:
    # `_clusters` with one group: the clustering of one interval's preimage.
    def test_gap_splits_clusters(self):
        cloud = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [5.0, 0], [5.1, 0]])
        clusters = _clusters(cloud, np.arange(5), 0.5)[0]
        assert [c.tolist() for c in clusters] == [[0, 1, 2], [3, 4]]

    def test_large_delta_single_cluster(self):
        cloud = np.array([[0.0, 0], [0.1, 0], [0.2, 0], [5.0, 0], [5.1, 0]])
        clusters = _clusters(cloud, np.arange(5), 10.0)[0]
        assert [c.tolist() for c in clusters] == [[0, 1, 2, 3, 4]]

    def test_strict_inequality_at_delta(self):
        cloud = np.array([[0.0, 0.0], [0.5, 0.0]])
        assert len(_clusters(cloud, np.arange(2), 0.5)[0]) == 2
        assert len(_clusters(cloud, np.arange(2), 0.5 + 1e-9)[0]) == 1

    @pytest.mark.parametrize("n", [60, 200, 300, 500])
    def test_matches_brute_force_union_find(self, n):
        # sparse to dense preimages on the delta/2 grid
        rng = np.random.default_rng(n)
        cloud = rng.uniform(0, 1, (n, 2))
        delta = float(rng.uniform(0.02, 0.2))
        subset = np.sort(rng.choice(n, size=max(2, int(0.8 * n)), replace=False))
        got = _clusters(cloud, subset, delta)[0]
        expected = brute_force_clusters(subset, cloud, delta)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)

    def test_unordered_indices_order_clusters_by_first_position(self):
        rng = np.random.default_rng(21)
        cloud = rng.uniform(0, 1, (300, 2))
        subset = rng.permutation(300)[:250]
        got = _clusters(cloud, subset, 0.06)[0]
        expected = brute_force_clusters(subset, cloud, 0.06)
        assert len(got) == len(expected) > 1
        for a, b in zip(got, expected):
            assert np.array_equal(a, b)


def undecided_line():
    """400 points along x at spacing 0.9 delta: the witness finds the exact
    supremum, but the cap, a little above delta, gives fewer intervals, so
    the whole cloud's count takes the exact grid path."""
    delta = recommended_delta(STEP, NOISE)
    return np.column_stack([np.arange(400) * 0.9 * delta, np.zeros(400)]), None


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

    @pytest.mark.parametrize("field", ["delta", "alpha"])
    def test_infinite_rejected(self, field):
        # An infinite alpha once leaked a ValueError from interval_count.
        with pytest.raises(ConfigurationError, match=f"{field} must be positive and finite"):
            MapperParams(**{"delta": 0.1, field: float("inf")})

    def test_huge_finite_alpha_gives_one_interval(self):
        # (1 + alpha) * l0 overflows to infinity; the count is its limit, one.
        t = np.linspace(0.0, 6.0, 400)
        cloud = np.column_stack([t, np.sin(t)])
        graph = build_mapper_graph(cloud, make_pca_filter(cloud),
                                   MapperParams(delta=1.0, alpha=1e308))
        assert [n.intervals for n in graph.nodes] == [(0,)]
        assert graph.nodes[0].points.tolist() == list(range(400))


class TestBuildMapperGraph:
    def test_segment_gives_path(self):
        xs = np.arange(0, 3.0001, 0.02)
        cloud = np.column_stack([xs, np.zeros_like(xs)])
        params = MapperParams(delta=0.08)
        g = build_mapper_graph(cloud, make_pca_filter(cloud), params)
        assert g.degrees().max() <= 2
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
        assert frozenset().union(*(point_set(n) for n in g.nodes)) == frozenset(range(300))

    def test_single_point_cloud(self):
        g = build_mapper_graph(
            np.array([[0.3, 0.4]]),
            LinearFilter(np.array([0.3, 0.4]), np.array([1.0, 0.0])),
            MapperParams(delta=0.1),
        )
        assert g.node_count == 1 and g.edge_count == 0
        assert g.edges.shape == (0, 2)
        assert_edge_record(g.edges)

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

    @pytest.mark.parametrize("make_cloud, orthogonal", [
        *(pytest.param(make_cloud, orthogonal, id=f"{orthogonal}-{make_cloud.__name__}")
          for orthogonal in (False, True) for make_cloud in (three_curves_cloud,
                                                             noisy_circle_cloud)),
        pytest.param(undecided_line, False, id="False-undecided_line"),
    ])
    def test_nodes_equal_per_interval_brute_force(self, sup_grids, make_cloud, orthogonal):
        # The whole cover is clustered at once; the reference clusters each
        # interval's preimage alone with an all-pairs union-find. The witness
        # decides every count but the line's, which alone builds a grid.
        pts, _ = make_cloud()
        params = MapperParams(delta=recommended_delta(STEP, NOISE))
        filt = make_pca_filter(pts)
        if orthogonal:
            filt = LinearFilter(filt.center, np.array([-filt.direction[1], filt.direction[0]]))
        values = eval_filter(filt, pts)
        l0 = compute_l0(pts, filt, params.delta, params.theta_ov)
        count = interval_count(pts, filt, (1.0 + params.alpha) * l0, params.theta_ov)
        cover = build_cover(float(values.min()), float(values.max()), count, params.theta_ov)
        assert len(cover) > 1
        # Closed bounds: a value on a shared endpoint is in both intervals.
        expected = [
            (tuple(cluster.tolist()), (k,))
            for k, (a, b) in enumerate(cover)
            for cluster in brute_force_clusters(np.flatnonzero((values >= a) & (values <= b)),
                                                pts, params.delta)
        ]
        sup_grids.clear()
        g = build_mapper_graph(pts, filt, params)
        assert [(tuple(n.points.tolist()), n.intervals) for n in g.nodes] == expected
        assert sup_grids == ([len(pts)] if make_cloud is undecided_line else [])

    def test_translation_invariance(self):
        pts, _ = noisy_circle_cloud(seed=13)
        params = MapperParams(delta=recommended_delta(0.02, 0.01))
        g1 = build_mapper_graph(pts, make_pca_filter(pts), params)
        moved = pts + np.array([4.0, -8.0])
        g2 = build_mapper_graph(moved, make_pca_filter(moved), params)

        def canon(g):
            key = [tuple(n.points.tolist()) for n in g.nodes]
            nodes = sorted(key)
            edges = sorted(tuple(sorted((key[a], key[b]))) for a, b in g.edges)
            return nodes, edges

        assert canon(g1) == canon(g2)
