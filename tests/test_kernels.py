"""The grid neighbor kernels against a brute-force oracle.

The oracle tests every pair with the kernels' own arithmetic,
``dx*dx + dy*dy < delta*delta``, so ties at exactly delta must come out the
same way, not merely within a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from sstopo import LinearFilter, eval_filter
from sstopo._kernels import (_COMPONENTS_REACH, _MARGIN, _Grid, _renumber, _sq,
                             extreme_sup, id_order, neighbor_components,
                             neighbor_sup_abs_diff, witness_sup)


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
    three in stable ``across`` order, one pair at a time; 0.0 if none."""
    order = np.argsort(across, kind="stable")
    best = 0.0
    for a in range(len(order)):
        for b in range(a + 1, min(a + 4, len(order))):
            i, j = order[a], order[b]
            dx, dy = pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]
            if dx * dx + dy * dy < delta * delta:
                best = max(best, abs(float(vals[i] - vals[j])))
    return best


def one_set(pts):
    return np.zeros(len(pts), dtype=np.int64)


class TestWitness:
    @seed(6081)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(2, 200),
           st.sampled_from([0.0, 1e6, -1e6]), st.integers(1, 4))
    def test_witness_is_a_close_pair_below_the_supremum(self, s, delta, n, offset, sets):
        # The points fall in `sets` sets, owner-major; each set's witness
        # is the oracle's on that set alone, and never above its supremum.
        rng = np.random.default_rng(s)
        pts = rng.uniform(0, delta * np.sqrt(n) / 2, (n, 2)) + offset
        if rng.random() < 0.3:  # duplicates
            pts = pts[rng.integers(0, max(1, n // 4), n)]
        vals = _values(rng, pts)
        across = pts @ rng.normal(size=2)
        owner = np.sort(rng.integers(0, sets, n))
        got = witness_sup(pts, vals, delta, owner, across)
        assert got.shape == (owner.max() + 1,)
        for k, lo in enumerate(got.tolist()):
            at = owner == k
            assert lo == witness_oracle(pts[at], vals[at], delta, across[at])
            if at.any():
                _, exact = oracle(pts[at], vals[at], delta)
                assert lo <= exact[0]
                assert neighbor_sup_abs_diff(pts[at], vals[at], delta) == exact

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
        assert witness_sup(pts, vals, delta, one_set(pts), across).tolist() == [lo]

    @seed(6083)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(1, 14), st.integers(1, 14),
           st.integers(1, 4))
    def test_grid_centroids_tie_across_the_filter(self, s, delta, nx, ny, sets):
        # Centroids of a grid of cells, as the subdivision gives, ordered
        # across by one axis: every row of cells ties, so which pairs are
        # tested depends on how ties are ordered. A cell may be in several
        # sets, where it ties with itself. Each set's witness is the
        # oracle's in stable order on that set alone.
        rng = np.random.default_rng(s)
        ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        cells = rng.permutation(np.column_stack([ix.ravel(), iy.ravel()]) + 0.5)
        cells *= rng.choice([0.3, 0.6, 0.9]) * delta
        members = [np.sort(rng.choice(len(cells), rng.integers(1, len(cells) + 1),
                                      replace=False)) for _ in range(sets)]
        owner = np.repeat(np.arange(sets), [m.size for m in members])
        pts = cells[np.concatenate(members)]
        vals, across = _values(rng, pts), pts[:, 1]
        got = witness_sup(pts, vals, delta, owner, across)
        assert got.tolist() == [witness_oracle(pts[owner == k], vals[owner == k], delta,
                                               across[owner == k]) for k in range(sets)]

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
        assert witness_sup(pts, vals, delta, one_set(pts), across).tolist() == [0.0]
        assert neighbor_sup_abs_diff(pts, vals, delta) == (0.5, True)

    def test_no_close_pair(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        assert witness_sup(pts, pts[:, 0], 1.0, one_set(pts), pts[:, 0]).tolist() == [0.0]
        assert neighbor_sup_abs_diff(pts, pts[:, 0], 1.0) == (0.0, False)


def extreme_oracle(pts, vals, delta):
    """Best |vals[i]-vals[j]| over the close pairs of any point and the first
    point at the least value or the first at the greatest, one pair at a
    time; 0.0 if none."""
    best = 0.0
    for e in (int(np.argmin(vals)), int(np.argmax(vals))):
        for i in range(len(pts)):
            dx, dy = pts[i, 0] - pts[e, 0], pts[i, 1] - pts[e, 1]
            if dx * dx + dy * dy < delta * delta:
                best = max(best, abs(float(vals[i] - vals[e])))
    return best


class TestExtreme:
    @seed(6084)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), DELTAS, st.integers(1, 200), st.integers(1, 4),
           st.sampled_from(["uniform", "lattice", "duplicates"]),
           st.sampled_from([0.0, 1e6, -1e6]))
    def test_bound_is_a_close_pair_below_the_supremum(self, s, delta, n, sets, kind, far):
        # Points in `sets` sets, owner-major, valued by a filter whose centre
        # may lie a million away. Lattice neighbours at exactly delta are not
        # close; duplicates tie for the extremes. Each set's bound is the
        # oracle's on that set alone, and never above its supremum.
        rng = np.random.default_rng(s)
        if kind == "lattice":
            side = int(np.ceil(np.sqrt(n)))
            pts = np.column_stack(np.divmod(rng.permutation(side * side)[:n], side)) * delta
        else:
            pts = rng.uniform(0, delta * np.sqrt(n) / 2, (n, 2))
            if kind == "duplicates":
                pts = pts[rng.integers(0, max(1, n // 4), n)]
        pts = pts + rng.integers(-3, 4, size=2) * delta
        axis, off = rng.normal(size=2), rng.normal(size=2)
        filt = LinearFilter(pts.mean(axis=0) + far * off / np.linalg.norm(off),
                            axis / np.linalg.norm(axis))
        vals = eval_filter(filt, pts)
        owner = np.sort(rng.integers(0, sets, n))
        got = extreme_sup(pts, vals, delta, owner)
        assert got.shape == (owner.max() + 1,)
        for k, lo in enumerate(got.tolist()):
            at = owner == k
            if not at.any():
                assert lo == 0.0
                continue
            assert lo == extreme_oracle(pts[at], vals[at], delta)
            exact, found = neighbor_sup_abs_diff(pts[at], vals[at], delta)
            assert lo <= exact
            assert found or lo == 0.0

    def test_finds_the_pair_the_witness_misses(self):
        # The witness fixture above: its close pair of different values,
        # (0, 7), holds the least value.
        delta = 1.0
        pts = np.array([[0.0, 0.0]] * 4 + [[100.0, 0.1], [100.0, 0.2], [100.0, 0.3]]
                       + [[0.5, 0.4]])
        assert extreme_sup(pts, pts[:, 0].copy(), delta, one_set(pts)).tolist() == [0.5]

    def test_no_close_pair(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
        assert extreme_sup(pts, pts[:, 0], 1.0, one_set(pts)).tolist() == [0.0]
        assert extreme_sup(np.empty((0, 2)), np.empty(0), 1.0,
                           np.empty(0, dtype=np.int64)).tolist() == []


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
        # Copies of one point share a cell, and at spacing < delta the
        # probes join every cell.
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


def sweep_oracle(pts, delta, groups):
    """Canonical labels from every close pair of points of one group, found
    by testing each point against all the points after it in x order whose
    x lies less than delta further: a close pair's computed |dx| is below
    delta, since rounding is monotone."""
    order = np.argsort(pts[:, 0], kind="stable")
    xy, g = pts[order], groups[order]
    ii, jj = [], []
    k = 1
    while k < len(xy):
        within = np.flatnonzero(xy[k:, 0] - xy[:-k, 0] < delta)
        if within.size == 0:
            break
        d = xy[within + k] - xy[within]
        close = within[(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] < delta * delta)
                       & (g[within + k] == g[within])]
        ii.append(order[close])
        jj.append(order[close + k])
        k += 1
    parent = list(range(len(pts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(np.concatenate([[], *ii]).astype(int).tolist(),
                    np.concatenate([[], *jj]).astype(int).tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    ids: dict[int, int] = {}
    return np.array([ids.setdefault(find(i), len(ids)) for i in range(len(pts))])


class TestWideIds:
    """More than 2**16 groups or components, so that the group ids and the
    labels are sorted on 32-bit keys."""

    def test_more_than_two_to_the_sixteen_groups(self):
        # A line at about half delta spacing; runs of neighbors share a
        # group, and one point in a hundred joins a random group far away.
        rng = np.random.default_rng(21)
        n = 90_000
        x = np.cumsum(rng.uniform(0.2, 0.8, n))
        pts = np.column_stack([x, rng.uniform(0.0, 0.5, n)])
        groups = np.cumsum(rng.random(n) < 0.8)
        stray = rng.random(n) < 0.01
        groups[stray] = rng.integers(0, groups.max() + 1, stray.sum())
        groups = rng.permutation(groups.max() + 1)[groups]
        assert np.unique(groups).size > 2**16
        perm = rng.permutation(n)
        pts, groups = pts[perm], groups[perm]
        assert np.array_equal(neighbor_components(pts, 1.0, groups),
                              sweep_oracle(pts, 1.0, groups))

    def test_more_than_two_to_the_sixteen_components(self):
        # A line whose gaps are half or one and a half delta: every wide gap
        # starts a component.
        rng = np.random.default_rng(22)
        n = 100_000
        x = np.cumsum(np.where(rng.random(n) < 0.75, 1.5, 0.5))
        pts = rng.permutation(np.column_stack([x, rng.uniform(0.0, 0.01, n)]))
        labels = neighbor_components(pts, 1.0)
        assert labels.max() + 1 > 2**16
        assert np.array_equal(labels, sweep_oracle(pts, 1.0, np.zeros(n)))

    @pytest.mark.parametrize("low, high", [(0, 3), (-5, 250), (0, 70_000), (-2**40, 2**40)])
    def test_id_order_is_the_stable_argsort(self, low, high):
        ids = np.random.default_rng(23).integers(low, high, 5000)
        assert np.array_equal(id_order(ids), np.argsort(ids, kind="stable"))
        assert id_order(ids[:0]).size == 0


def renumber_reference(x, reach, groups):
    """The ranks of `_renumber` from the sorted distinct (group, index)
    pairs, one pair at a time."""
    g = [0] * len(x) if groups is None else groups.tolist()
    pairs = sorted(set(zip(g, x.tolist())))
    rank = {pairs[0]: 0.0}
    for (g0, x0), (g1, x1) in zip(pairs, pairs[1:]):
        rank[g1, x1] = rank[g0, x0] + (reach + 1 if g1 != g0 else min(x1 - x0, reach + 1))
    return np.array([rank[p] for p in zip(g, x.tolist())])


class TestRenumber:
    @seed(6111)
    @PROPERTY
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.sampled_from([1, 2, 4]),
           st.sampled_from([3.0, 100.0, 1e4, 2.0**44]), st.sampled_from([0, 1, 5, 300]))
    def test_ranks_equal_the_sorted_pairs(self, s, n, reach, scale, groups):
        # Small scales take the table of keys, large ones the sort.
        rng = np.random.default_rng(s)
        x = np.floor(rng.uniform(-scale, scale, n))
        ids = rng.integers(-groups, groups + 1, n) * 7 if groups else None
        assert np.array_equal(_renumber(x, reach, ids), renumber_reference(x, reach, ids))


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

    def test_components_join_past_the_first_block_of_cell_pairs(self, monkeypatch):
        # 100 dumbbells, far apart: two tight cells two cells apart, each a
        # 29-point clump at its far side and one point at its near side.
        # The clumps lie 2.8 cells (over delta) apart, so a dumbbell's probe
        # joins it only where a probe is a near point. The rest, most of
        # the 100, are joined by the residual pass, whose cell pairs of 900
        # point pairs each fill more than one block.
        found = []  # close point pairs yielded in each block

        def counted(grid, pairs, live):
            def block(k):
                found.append(0)
                return live(k)
            for i, j in near_pairs(grid, pairs, block):
                found[-1] += i.size
                yield i, j

        near_pairs = _Grid.near_pairs
        monkeypatch.setattr(_Grid, "near_pairs", counted)
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
        assert len(found) > 1 and all(found)

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


def offset_lookup(g, reach):
    """The candidate pairs of grid `g` as a set of (a, b, full) triples,
    found by one search of the sorted cell keys per cell offset: every
    offset (dx, dy) with 0 <= dx <= reach, |dy| <= reach and (dx, dy)
    after (0, 0), with the grid's own box bounds."""
    keys = g.keys
    multi = np.flatnonzero(g.count > 1)
    a, b = [multi], [multi]
    for dx in range(reach + 1):
        for dy in range(-reach, reach + 1):
            if dx == 0 and dy <= 0:
                continue
            target = keys + dx * g.width + dy
            found = np.searchsorted(keys, target)
            hit = np.flatnonzero(keys[np.minimum(found, keys.size - 1)] == target)
            a.append(hit)
            b.append(found[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    la, lb, ha, hb = g.lo[a], g.lo[b], g.hi[a], g.hi[b]
    lower = _sq(np.maximum(np.maximum(lb - ha, la - hb), 0.0))
    full = _sq(np.maximum(ha, hb) - np.minimum(la, lb)) < g.d2
    keep = lower < g.d2
    return set(zip(a[keep].tolist(), b[keep].tolist(), full[keep].tolist()))


def lookup_cloud(rng, kind, reach, delta):
    """A seeded cloud of one of the `TestRowRunLookup` kinds."""
    n = int(rng.integers(2, 400))
    extent = delta * rng.uniform(0.5, 12.0)
    if kind == "uniform":
        return rng.uniform(-extent, extent, (n, 2))
    if kind == "duplicates":
        base = rng.uniform(-extent, extent, (int(rng.integers(1, 40)), 2))
        return base[rng.integers(0, len(base), n)]
    # Coordinates about 2**44 cells of the reach's side from the origin, on
    # either side of the largest that keep that side.
    corner = 2.0**44 * _MARGIN * delta / reach * rng.choice([-1.0, 1.0], 2)
    return corner + rng.uniform(-4 * delta, 4 * delta, (n, 2))


class TestRowRunLookup:
    """The grid finds each cell's neighbors in a row of cells by one run of
    its sorted keys; the pairs must be those a search per offset finds."""

    @pytest.mark.parametrize("reach", [2, 4])
    @pytest.mark.parametrize("kind", ["uniform", "duplicates", "index_limit"])
    @pytest.mark.parametrize("grouped", [False, True])
    def test_same_pairs_as_a_search_per_offset(self, reach, kind, grouped):
        rng = np.random.default_rng([reach, len(kind), grouped])
        for _ in range(25):
            delta = float(rng.choice([0.1, 1.0, 1.0 / 3.0]))
            pts = lookup_cloud(rng, kind, reach, delta)
            groups = rng.integers(0, 5, len(pts)) * 3 - 4 if grouped else None
            g = _Grid(pts, delta, reach, groups)
            triples = list(zip(g.a.tolist(), g.b.tolist(), g.full.tolist()))
            assert len(triples) == len(set(triples))
            assert set(triples) == offset_lookup(g, reach)


def loose_cells_cloud(rng):
    """Points near 2**50, where the component grid's cells are 64 wide at
    delta = 1 and the float spacing is 0.25: in each of some cells, a clump
    within 0.5 per axis (tight) or a chain of points 0.75 to 1.5 apart
    (not tight, the chain's ends over delta apart)."""
    parts = []
    for k in range(int(rng.integers(4, 30))):
        origin = np.array([2.0**50 + 64.0 * 4 * k, 2.0**50 + 64.0 * rng.integers(0, 3)])
        if rng.random() < 0.5:
            steps = rng.integers(0, 3, (int(rng.integers(1, 6)), 2))
            parts.append(origin + 0.25 * steps)
        else:
            m = int(rng.integers(2, 12))
            gaps = rng.choice([0.75, 1.0, 1.25, 1.5], (m, 1)) * [[1.0, 0.0]]
            parts.append(origin + np.cumsum(gaps, axis=0) + 0.25 * rng.integers(0, 2, (m, 2)))
    pts = np.concatenate(parts)
    return rng.permutation(pts * rng.choice([-1.0, 1.0], 2))


class TestLooseCells:
    """Cells that are not tight, where the union-find keeps one element per
    point, beside tight cells that are one element each."""

    def test_labels_match_the_oracle(self):
        rng = np.random.default_rng(44)
        mixed = False
        for _ in range(30):
            pts = loose_cells_cloud(rng)
            g = _Grid(pts, 1.0, _COMPONENTS_REACH)
            several = g.count > 1
            mixed |= bool((several & g.tight).any() and (several & ~g.tight).any())
            assert np.array_equal(neighbor_components(pts, 1.0),
                                  oracle(pts, np.zeros(len(pts)), 1.0)[0])
            assert_groups_match_oracle(pts, rng.integers(0, 3, len(pts)), 1.0)
        assert mixed

    def test_no_cell_is_tight(self):
        # Every cell holds a chain: each point is its own element.
        rng = np.random.default_rng(45)
        x = 2.0**50 + np.cumsum(rng.choice([0.75, 1.25], 300))
        pts = rng.permutation(np.column_stack([x, np.full(300, 2.0**50)]))
        g = _Grid(pts, 1.0, _COMPONENTS_REACH)
        assert not g.tight[g.count > 1].any()
        assert np.array_equal(neighbor_components(pts, 1.0),
                              oracle(pts, np.zeros(len(pts)), 1.0)[0])
