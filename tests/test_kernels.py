"""The grid neighbor kernels against a brute-force oracle.

The oracle tests every pair with the kernels' own arithmetic,
``dx*dx + dy*dy < delta*delta``, so ties at exactly delta must come out the
same way, not merely within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sstopo._kernels import neighbor_components, neighbor_sup_abs_diff


def oracle(pts, vals, delta):
    """(canonical component labels, (sup, found)) from all pairs."""
    n = len(pts)
    ii, jj = [], []
    for i0 in range(0, n, 500):  # blocks of rows bound the memory
        dx = pts[i0 : i0 + 500, 0, None] - pts[None, :, 0]
        dy = pts[i0 : i0 + 500, 1, None] - pts[None, :, 1]
        i, j = np.nonzero(np.triu(dx * dx + dy * dy < delta * delta, k=1 + i0))
        ii.append(i + i0)
        jj.append(j)
    ii, jj = np.concatenate(ii), np.concatenate(jj)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(ii.tolist(), jj.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    ids: dict[int, int] = {}
    labels = np.array([ids.setdefault(find(i), len(ids)) for i in range(n)], dtype=np.int64)
    if ii.size == 0:
        return labels, (0.0, False)
    return labels, (float(np.abs(vals[ii] - vals[jj]).max()), True)


def assert_matches_oracle(pts, vals, delta):
    labels, sup = oracle(pts, vals, delta)
    assert np.array_equal(neighbor_components(pts, delta), labels)
    got = neighbor_sup_abs_diff(pts, vals, delta)
    assert got == sup
    assert type(got[0]) is float


# One example = an rng seed plus the shape parameters; numpy draws the points.
PROPERTY = settings(max_examples=80, deadline=None, database=None)
DELTAS = st.sampled_from([0.1, 0.3, 1.0 / 3.0, 0.7, 1.0, 2.0**-5, 1e-3])


def _values(rng, pts):
    # Half the examples use a linear filter, as compute_l0 does; the rest
    # use arbitrary values, which the kernel must also handle.
    if rng.random() < 0.5:
        return rng.normal(size=len(pts))
    return pts @ rng.normal(size=2)


class TestAgainstOracle:
    @seed(6061)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(2, 14), st.integers(1, 14))
    def test_lattice_at_exact_delta_spacing(self, s, delta, nx, ny):
        rng = np.random.default_rng(s)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        pts = np.column_stack([ix.ravel(), iy.ravel()]) * delta
        # Drop some lattice points so that chains break, and shuffle.
        pts = pts[rng.random(len(pts)) < 0.8]
        pts = rng.permutation(pts) + rng.integers(-3, 4, size=2) * delta
        if len(pts):
            assert_matches_oracle(pts, _values(rng, pts), delta)

    @seed(6062)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(1, 30), st.integers(2, 200))
    def test_duplicate_points(self, s, delta, distinct, n):
        rng = np.random.default_rng(s)
        base = rng.uniform(0, 4 * delta, (distinct, 2))
        pts = base[rng.integers(0, distinct, n)]
        assert_matches_oracle(pts, _values(rng, pts), delta)

    @seed(6063)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(2, 300))
    def test_sparse_one_point_cells(self, s, delta, n):
        rng = np.random.default_rng(s)
        # About one point per 20 cells: most cells hold one point, and a
        # few close pairs still occur.
        side = delta * np.sqrt(5.0 * n)
        pts = rng.uniform(0, side, (n, 2))
        assert_matches_oracle(pts, _values(rng, pts), delta)

    @seed(6064)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(2, 300),
           st.sampled_from([1e6, -1e6]))
    def test_cloud_offset_by_a_million(self, s, delta, n, offset):
        rng = np.random.default_rng(s)
        pts = rng.uniform(0, delta * np.sqrt(n) / 2, (n, 2)) + offset
        assert_matches_oracle(pts, _values(rng, pts), delta)

    @seed(6065)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(2, 200), st.sampled_from([1e9, -1e9]))
    def test_clump_plus_point_a_billion_away(self, s, n, far):
        rng = np.random.default_rng(s)
        delta = 1e-3
        pts = rng.uniform(0, 10 * delta, (n, 2))
        pts[rng.integers(n)] = (far, far * rng.uniform(-1, 1))
        assert_matches_oracle(pts, _values(rng, pts), delta)


class TestGridEdges:
    def test_single_point_and_far_pair(self):
        one = np.array([[0.5, 0.5]])
        assert neighbor_components(one, 0.1).tolist() == [0]
        assert neighbor_sup_abs_diff(one, np.zeros(1), 0.1) == (0.0, False)
        two = np.array([[0.0, 0.0], [0.1, 0.0]])
        assert neighbor_components(two, 0.1).tolist() == [0, 1]
        assert neighbor_sup_abs_diff(two, np.array([0.0, 1.0]), 0.1) == (0.0, False)

    def test_box_extent_of_exactly_delta_is_not_fully_near(self):
        # The two cells' far extent is exactly delta: (0, 0) and (1, 0) are
        # not close, so only (0.25, 0)-(1, 0) may set the supremum.
        pts = np.array([[0.0, 0.0], [0.25, 0.0], [1.0, 0.0]])
        assert neighbor_sup_abs_diff(pts, pts[:, 0], 1.0) == (0.75, True)
        assert_matches_oracle(pts, pts[:, 0], 1.0)

    def test_empty_cloud(self):
        assert neighbor_components(np.empty((0, 2)), 0.1).shape == (0,)

    def test_dense_cells_split_into_blocks(self):
        # Two clumps of 400 points in neighboring cells: each cell pair holds
        # 160,000 point pairs, more than one vectorized block.
        rng = np.random.default_rng(3)
        delta = 0.1
        left = rng.uniform(0.0, 0.045, (400, 2))
        right = rng.uniform(0.0, 0.045, (400, 2)) + [0.09, 0.0]
        pts = np.concatenate([left, right])
        assert_matches_oracle(pts, _values(rng, pts), delta)

    def test_only_link_in_a_later_block(self):
        # Two dense cells joined by one pair only, whose first point is the
        # last of 400 rows: the pair is found only if every block of rows
        # is tested.
        delta = 1.0
        left = np.column_stack([np.zeros(400), np.linspace(0.0, 0.49, 400)])
        left[-1, 0] = 0.02
        right = np.column_stack([np.ones(300), np.linspace(0.0, 0.49, 300)])
        pts = np.concatenate([left, right])
        assert neighbor_components(pts, delta).tolist() == [0] * 700
        assert_matches_oracle(pts, pts[:, 0], delta)

    def test_many_cells(self):
        # A noisy line sampled at about 0.7 delta: several thousand cells,
        # more than one block of neighbor lookups.
        rng = np.random.default_rng(11)
        delta = 0.01
        x = np.arange(6000) * 0.7 * delta
        pts = np.column_stack([x, 0.3 * delta * np.sin(x)])
        pts += rng.uniform(0, 0.3 * delta, pts.shape)
        assert_matches_oracle(pts, _values(rng, pts), delta)

    @pytest.mark.parametrize("offset", [1e12, -3e13])
    def test_coordinates_beyond_the_index_limit(self, offset):
        # |x| / delta is above 2**44 here, so the cells widen beyond delta/2
        # and their points are no longer pairwise close. At -3e13 the float
        # spacing exceeds delta, so distinct points are never close.
        rng = np.random.default_rng(5)
        delta = 1e-3
        ulp = np.spacing(abs(offset))
        steps = np.column_stack([rng.integers(0, 1000, 150), rng.integers(0, 8, 150)])
        pts = offset + steps * ulp
        assert_matches_oracle(pts, _values(rng, pts), delta)
        distinct = np.unique(pts, axis=0)
        assert_matches_oracle(distinct, _values(rng, distinct), delta)
