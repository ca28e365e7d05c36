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


def grouped_oracle(pts, groups, delta):
    """The oracle's labels of each group's points, run on that group alone,
    renumbered in order of each component's first point over all points."""
    key = np.empty(len(pts), dtype=np.int64)
    offset = 0
    for group in np.unique(groups):
        at = np.flatnonzero(groups == group)
        key[at] = oracle(pts[at], np.zeros(at.size), delta)[0] + offset
        offset += at.size
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def assert_groups_match_oracle(pts, groups, delta):
    labels = neighbor_components(pts, delta, groups)
    assert np.array_equal(labels, grouped_oracle(pts, groups, delta))
    # No component holds points of two groups.
    assert np.unique(np.column_stack([labels, groups]), axis=0).shape[0] == labels.max() + 1
    return labels


def witness_oracle(pts, vals, delta, across):
    """Best |vals[i]-vals[j]| over the close pairs of each point and its next
    three in ``np.argsort(across)`` order, one pair at a time; 0.0 if none."""
    order = np.argsort(across)
    best = 0.0
    for a in range(len(order)):
        for b in range(a + 1, min(a + 4, len(order))):
            i, j = order[a], order[b]
            dx, dy = pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]
            if dx * dx + dy * dy < delta * delta:
                best = max(best, abs(float(vals[i] - vals[j])))
    return best


class TestWitness:
    @seed(6081)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(2, 200),
           st.sampled_from([0.0, 1e6, -1e6]))
    def test_witness_is_a_close_pair_below_the_supremum(self, s, delta, n, offset):
        rng = np.random.default_rng(s)
        pts = rng.uniform(0, delta * np.sqrt(n) / 2, (n, 2)) + offset
        if rng.random() < 0.3:  # duplicates
            pts = pts[rng.integers(0, max(1, n // 4), n)]
        vals = _values(rng, pts)
        across = pts @ rng.normal(size=2)
        _, exact = oracle(pts, vals, delta)
        lo = witness_oracle(pts, vals, delta, across)
        asked = []
        got = neighbor_sup_abs_diff(pts, vals, delta, across, lambda w: asked.append(w) or True)
        if lo > 0.0:
            assert asked == [lo]
            assert got == (lo, True)
            assert lo <= exact[0]
        else:
            # A witness of zero is never offered: the grid path decides.
            assert asked == []
            assert got == exact
        refused = neighbor_sup_abs_diff(pts, vals, delta, across, lambda w: False)
        assert refused == exact
        assert type(refused[0]) is float

    @seed(6082)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(2, 12), st.integers(1, 12))
    def test_lattice_at_exact_delta_spacing(self, s, delta, nx, ny):
        # Lattice neighbours at exactly delta are not close, to the witness
        # as to the grid.
        rng = np.random.default_rng(s)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        pts = rng.permutation(np.column_stack([ix.ravel(), iy.ravel()]) * delta)
        vals = _values(rng, pts)
        across = pts @ rng.normal(size=2) if rng.random() < 0.5 else pts[:, 1]
        lo = witness_oracle(pts, vals, delta, across)
        asked = []
        neighbor_sup_abs_diff(pts, vals, delta, across, lambda w: asked.append(w) or True)
        assert asked == ([lo] if lo > 0.0 else [])

    def test_zero_witness_runs_the_grid(self):
        # Four copies of p, three far points and then q, in `across` order:
        # every pair within three places is equal-valued or far apart, so
        # the witness reads 0, yet p and q are close with values 0 and 0.5.
        delta = 1.0
        pts = np.array([[0.0, 0.0]] * 4 + [[100.0, 0.1], [100.0, 0.2], [100.0, 0.3]]
                       + [[0.5, 0.4]])
        vals = pts[:, 0].copy()
        across = pts[:, 1]
        assert witness_oracle(pts, vals, delta, across) == 0.0
        assert neighbor_sup_abs_diff(pts, vals, delta, across, lambda w: True) == (0.5, True)

    def test_no_close_pair(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        assert neighbor_sup_abs_diff(pts, pts[:, 0], 1.0, pts[:, 0],
                                     lambda w: True) == (0.0, False)


GROUPED = settings(max_examples=40, deadline=None, database=None)


class TestGroupedComponents:
    @seed(6071)
    @GROUPED
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(1, 40), st.integers(2, 6))
    def test_identical_points_in_different_groups_never_join(self, s, delta, m, copies):
        rng = np.random.default_rng(s)
        base = rng.uniform(0, 3 * delta, (m, 2))
        pts = np.tile(base, (copies, 1))
        groups = np.repeat(rng.permutation(copies) * 7 - 3, m)
        perm = rng.permutation(len(pts))
        labels = assert_groups_match_oracle(pts[perm], groups[perm], delta)
        assert labels.max() + 1 == copies * (neighbor_components(base, delta).max() + 1)

    @seed(6072)
    @GROUPED
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(2, 12), st.integers(1, 12),
           st.integers(1, 5), st.sampled_from([1.0, 0.5]))
    def test_exact_delta_lattice_split_across_groups(self, s, delta, nx, ny, count, spacing):
        rng = np.random.default_rng(s)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        pts = np.column_stack([ix.ravel(), iy.ravel()]) * (spacing * delta)
        pts = rng.permutation(pts) + rng.integers(-3, 4, size=2) * delta
        assert_groups_match_oracle(pts, rng.integers(0, count, len(pts)), delta)

    @seed(6073)
    @GROUPED
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(1, 60), st.integers(0, 60))
    def test_one_point_groups(self, s, delta, singles, crowd):
        rng = np.random.default_rng(s)
        pts = rng.uniform(0, 2 * delta, (singles + crowd, 2))
        # The crowd shares group -1; every other point has a group of its own.
        groups = np.concatenate([rng.permutation(singles), np.full(crowd, -1)])
        perm = rng.permutation(len(pts))
        labels = assert_groups_match_oracle(pts[perm], groups[perm], delta)
        assert np.unique(labels[groups[perm] >= 0]).size == singles

    @seed(6074)
    @GROUPED
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(20, 120), st.integers(1, 12))
    def test_many_groups_a_million_away(self, s, delta, count, size):
        rng = np.random.default_rng(s)
        groups = np.repeat(np.arange(count), rng.integers(1, size + 1, count))
        # Each group sits at +-1e6 on either axis, its points a few cells wide.
        corner = rng.choice([1e6, -1e6], size=(count, 2))
        pts = corner[groups] + rng.uniform(0, 2 * delta, (groups.size, 2))
        perm = rng.permutation(groups.size)
        assert_groups_match_oracle(pts[perm], groups[perm], delta)

    @seed(6075)
    @GROUPED
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(1, 10), st.integers(1, 10),
           st.integers(1, 4), st.integers(1, 4), st.sampled_from([1.0, 0.5, 0.25]))
    def test_lattice_with_duplicated_points(self, s, delta, nx, ny, copies, count, spacing):
        # Copies of one point tie for the point nearest their cell's centre,
        # and at spacing < delta the probes join every cell.
        rng = np.random.default_rng(s)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        lattice = np.column_stack([ix.ravel(), iy.ravel()]) * (spacing * delta)
        pts = np.repeat(lattice, rng.integers(1, copies + 1, len(lattice)), axis=0)
        pts = rng.permutation(pts) + rng.integers(-3, 4, size=2) * delta
        assert np.array_equal(neighbor_components(pts, delta),
                              oracle(pts, np.zeros(len(pts)), delta)[0])
        assert_groups_match_oracle(pts, rng.integers(0, count, len(pts)), delta)

    def test_one_group_equals_no_groups(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 1, (400, 2))
        assert np.array_equal(neighbor_components(pts, 0.05, np.full(400, 5)),
                              neighbor_components(pts, 0.05))


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

    def test_components_join_past_the_first_block_of_cell_pairs(self):
        # 100 dumbbells, far apart: two tight cells two cells apart, each a
        # 29-point clump at its far side and one point at its near side.
        # The probes, in the clumps, lie 2.8 cells (over delta) apart, so
        # every dumbbell is joined only by the residual pass, and its 100
        # cell pairs of 900 point pairs fill more than one block.
        rng = np.random.default_rng(1)
        delta = 1.0
        side = (1 + 2**-6) * delta / 2  # the components' cell side
        bells = []
        for k in range(100):
            x = np.concatenate([rng.uniform(0.05, 0.10, 29), [0.99, 2.01],
                                rng.uniform(2.90, 2.95, 29)])
            bells.append(np.column_stack([x, rng.uniform(0.4, 0.6, 60) + 10 * k]) * side)
        pts = rng.permutation(np.concatenate(bells))
        labels = neighbor_components(pts, delta)
        assert np.array_equal(labels, oracle(pts, np.zeros(len(pts)), delta)[0])
        assert labels.max() + 1 == 100

    def test_supremum_past_the_first_block_of_cell_pairs(self):
        # 100 decoy cell pairs, four supremum cells apart, each with bound
        # 5.0 but close pairs that realize at most 4.5, and one pair of the
        # same shape whose inner points realize 4.8. The decoys' bounds come
        # first and fill the first block; the answer is in a later one.
        rng = np.random.default_rng(1)
        delta = 1.0
        side = (1 + 2**-6) * delta / 4  # the supremum's cell side
        pts, vals = [], []
        for k in range(101):
            x = np.concatenate([rng.uniform(0.05, 0.10, 29), [0.99, 4.01],
                                rng.uniform(4.90, 4.95, 29)])
            pts.append(np.column_stack([x, rng.uniform(0.4, 0.6, 60) + 10 * k]) * side)
            # Clump, inner, inner, clump.
            v = (5.5, 5.0, 1.0, 0.5) if k < 100 else (4.8, 4.8, 0.0, 0.0)
            vals.append(np.repeat(v, [29, 1, 1, 29]))
        perm = rng.permutation(101 * 60)
        pts, vals = np.concatenate(pts)[perm], np.concatenate(vals)[perm]
        got = neighbor_sup_abs_diff(pts, vals, delta)
        assert got == oracle(pts, vals, delta)[1] == (4.8, True)
