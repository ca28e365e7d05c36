import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import sstopo._kernels
import sstopo.subdivision

from sstopo import (
    BSplineSurface,
    ConfigurationError,
    EmptyInputError,
    KnotVector,
    ParameterRangeError,
    evaluate,
    hausdorff_bound,
    intersect_surfaces,
)
from sstopo.geometry import _split_net, restrict
from sstopo.subdivision import (
    OVERLAP_WARN_RATIO,
    IntersectionPointSets,
    _overlap,
    _PatchStore,
    dump_box_pairs,
)

from corpus import (
    cylinder_patch,
    knotted_cubic_patch,
    paraboloid_patch,
    plane_patch,
    random_cubic_patch,
    saddle_patch,
    vertical_plane_x,
    wrinkle_patch,
)

EPS = 0.02


def _net_box(surface, rect):
    """Unpadded box of the control net of the restriction to `rect`."""
    net = restrict(surface, rect).control_points.reshape(-1, 3)
    return net.min(axis=0), net.max(axis=0)


# The rect arithmetic, restated on `(u_min, u_max, v_min, v_max)` tuples so
# that the references below do not read the code under test.


def _halve(rect):
    """The halving rule: the longer side, u on a tie, at its midpoint."""
    u0, u1, v0, v1 = rect
    if u1 - u0 >= v1 - v0:
        mid = 0.5 * (u0 + u1)
        return (u0, mid, v0, v1), (mid, u1, v0, v1)
    mid = 0.5 * (v0 + v1)
    return (u0, u1, v0, mid), (u0, u1, mid, v1)


def _diagonal(rect):
    return float(np.hypot(rect[1] - rect[0], rect[3] - rect[2]))


def _centroid(rect):
    return (0.5 * (rect[0] + rect[1]), 0.5 * (rect[2] + rect[3]))


@pytest.fixture(scope="module")
def plane_cross():
    """z=0 patch against the vertical plane x=0.5; analytic preimage is u=0.5."""
    return intersect_surfaces(plane_patch(), vertical_plane_x(0.5), EPS)


class TestBasics:
    def test_disjoint_surfaces_empty(self):
        far = plane_patch(shift=(5.0, 5.0, 5.0))
        sets = intersect_surfaces(plane_patch(), far, EPS)
        assert sets.is_empty
        assert sets.points2.shape == (0, 2)
        assert sets.correspondences.shape == (0, 2)

    def test_epsilon_validation(self):
        with pytest.raises(ConfigurationError):
            intersect_surfaces(plane_patch(), saddle_patch(), 0.0)
        with pytest.raises(ConfigurationError):
            intersect_surfaces(plane_patch(), saddle_patch(), -1.0)
        with pytest.raises(ConfigurationError):
            intersect_surfaces(plane_patch(), saddle_patch(), float("nan"))
        with pytest.raises(ConfigurationError, match="epsilon must be positive and finite"):
            intersect_surfaces(plane_patch(), saddle_patch(), float("inf"))

    def test_coincident_patches_terminate_with_overlap_flag(self):
        sets = intersect_surfaces(plane_patch(), plane_patch(), 0.1)
        assert sets.overlap_suspected
        # centroids tile the whole domain
        assert sets.points1.shape[0] >= 64
        assert sets.points1[:, 0].min() < 0.1 and sets.points1[:, 0].max() > 0.9


class TestPlaneCross:
    def test_points_near_analytic_line(self, plane_cross):
        # every evaluated output point is its own cell's centroid and sits
        # within half that cell's 3D box diagonal of the plane x=0.5
        sets = plane_cross
        s1 = plane_patch()
        assert sets.cells1.shape == (sets.points1.shape[0], 4)
        for (u, v), cell in zip(sets.points1.tolist(), sets.cells1.tolist()):
            assert (u, v) == _centroid(cell)
            lo, hi = _net_box(s1, cell)
            p = evaluate(s1, u, v)
            assert abs(p[0] - 0.5) <= 0.5 * float(np.linalg.norm(hi - lo))

    def test_hausdorff_bound_holds_against_analytic_preimage(self, plane_cross):
        sets = plane_cross
        b1, _ = hausdorff_bound(sets)
        # preimage of the intersection in domain 1 is the line u = 0.5
        assert np.abs(sets.points1[:, 0] - 0.5).max() <= b1

    def test_conservative_no_missed_branch(self, plane_cross):
        sets = plane_cross
        for v in np.linspace(0.0, 1.0, 51):
            d = np.hypot(sets.points1[:, 0] - 0.5, sets.points1[:, 1] - v).min()
            assert d <= sets.cell_diag1

    def test_terminal_pair_boxes_intersect(self, plane_cross):
        # recomputing the restriction takes a different insertion path, so
        # exact tangential touches need ulp slack
        s1 = plane_patch()
        s2 = vertical_plane_x(0.5)
        slack = 1e-9
        sets = plane_cross
        for i, j in sets.correspondences.tolist():
            b1 = np.concatenate(_net_box(s1, sets.cells1[i]))[None]
            lo2, hi2 = _net_box(s2, sets.cells2[j])
            inflated = np.concatenate([lo2 - slack, hi2 + slack])[None]
            assert _overlap(b1, inflated)[0]

    def test_terminal_cells_within_epsilon(self, plane_cross):
        sets = plane_cross
        assert sets.cells2.shape == (sets.points2.shape[0], 4)
        for cell in np.concatenate([sets.cells1, sets.cells2]).tolist():
            diagonal = _diagonal(cell)
            assert diagonal <= EPS
            # bounded depth: a cell is only split while its diagonal exceeds eps
            assert diagonal > EPS / 4

    def test_invariants(self, plane_cross):
        sets = plane_cross
        n1 = sets.points1.shape[0]
        n2 = sets.points2.shape[0]
        corr = sets.correspondences
        assert corr[:, 0].min() >= 0 and corr[:, 0].max() < n1
        assert corr[:, 1].min() >= 0 and corr[:, 1].max() < n2
        # every point appears in at least one correspondence
        assert set(corr[:, 0].tolist()) == set(range(n1))
        assert set(corr[:, 1].tolist()) == set(range(n2))
        # deduplicated and lexicographically sorted
        assert np.unique(sets.points1, axis=0).shape[0] == n1
        order = np.lexsort((sets.points1[:, 1], sets.points1[:, 0]))
        assert np.array_equal(order, np.arange(n1))
        # correspondence rows unique and sorted
        as_tuples = [tuple(r) for r in corr.tolist()]
        assert as_tuples == sorted(set(as_tuples))

    def test_determinism(self):
        a = intersect_surfaces(plane_patch(), vertical_plane_x(0.5), EPS)
        b = intersect_surfaces(plane_patch(), vertical_plane_x(0.5), EPS)
        assert np.array_equal(a.points1, b.points1)
        assert np.array_equal(a.points2, b.points2)
        assert np.array_equal(a.correspondences, b.correspondences)
        assert a.cell_diag1 == b.cell_diag1


class TestHausdorffBound:
    def test_half_diagonal(self):
        sets = IntersectionPointSets(
            cells1=np.array([[-0.02, 0.02, -0.015, 0.015]]),
            cells2=np.array([[-0.008, 0.008, -0.006, 0.006]]),
            correspondences=np.zeros((1, 2), dtype=np.int64),
            epsilon=0.1,
        )
        assert (sets.cell_diag1, sets.cell_diag2) == (0.05, 0.02)
        b1, b2 = hausdorff_bound(sets)
        assert b1 == 0.025 and b2 == 0.01

    def test_square_cells(self):
        h = 0.04
        sets = IntersectionPointSets(
            cells1=np.array([[-h / 2, h / 2, -h / 2, h / 2]]),
            cells2=np.array([[-h / 2, h / 2, -h / 2, h / 2]]),
            correspondences=np.zeros((1, 2), dtype=np.int64),
            epsilon=h * 2,
        )
        b1, b2 = hausdorff_bound(sets)
        assert b1 == pytest.approx(h * np.sqrt(2) / 2)
        assert b2 == b1

    def test_largest_cell_sets_the_bound(self):
        # Cells of several sizes: the diagonals are read from the largest
        # cell of each domain, wherever it sits in the rows.
        sets = IntersectionPointSets(
            cells1=np.array([[0.0, 0.02, 0.0, 0.02], [0.1, 0.14, 0.2, 0.23],
                             [0.5, 0.51, 0.5, 0.51]]),
            cells2=np.array([[0.0, 0.008, 0.0, 0.006], [0.3, 0.302, 0.3, 0.301]]),
            correspondences=np.array([[0, 0], [1, 0], [2, 1]]),
            epsilon=0.1,
        )
        expected = (_diagonal((0.1, 0.14, 0.2, 0.23)), _diagonal((0.0, 0.008, 0.0, 0.006)))
        assert (sets.cell_diag1, sets.cell_diag2) == expected
        assert hausdorff_bound(sets) == (0.5 * expected[0], 0.5 * expected[1])

    def test_empty_raises(self):
        sets = IntersectionPointSets(
            cells1=np.empty((0, 4)),
            cells2=np.empty((0, 4)),
            correspondences=np.empty((0, 2), dtype=np.int64),
            epsilon=0.1,
        )
        assert (sets.cell_diag1, sets.cell_diag2) == (0.0, 0.0)
        with pytest.raises(EmptyInputError):
            hausdorff_bound(sets)


def test_box_dump(tmp_path, plane_cross):
    sets = plane_cross
    path = tmp_path / "boxes.json"
    dump_box_pairs(path, sets)
    with open(path) as fh:
        records = json.load(fh)
    assert path.read_bytes() == json.dumps(records).encode()
    assert len(records) == sets.correspondences.shape[0] > 0
    assert records == [{"rect1": sets.cells1[i].tolist(), "rect2": sets.cells2[j].tolist()}
                       for i, j in sets.correspondences.tolist()]


def _random_pair(seed1, seed2, make1=random_cubic_patch):
    return (lambda: make1(np.random.default_rng(seed1)),
            lambda: random_cubic_patch(np.random.default_rng(seed2)))


# Coarse enough to keep the uncached reference fast, fine enough that many
# patches are paired with several partners.
CACHE_CASES = {
    "saddle": (plane_patch, saddle_patch, 0.05),
    "wrinkle": (plane_patch, wrinkle_patch, 0.05),
    "cylinders": (lambda: cylinder_patch(axis="y"), lambda: cylinder_patch(axis="x"), 0.05),
    "random-1-2": (*_random_pair(1, 2), 0.05),
    "random-4-9": (*_random_pair(4, 9), 0.05),
    # Levels whose splits span several groups, with mixed multiplicities
    # and spans inside one group (see test_levels_mix_split_groups).
    "knotted-1-2": (*_random_pair(1, 2, knotted_cubic_patch), 0.05),
}


def _quantize(value):
    return int(round(value / 1e-12))


def _dedup_sorted(raw):
    """Points collapsed on a 1e-12 grid and sorted, with each raw point's index."""
    keys = [(_quantize(u), _quantize(v)) for u, v in raw]
    survivors = {}
    for key, pt in zip(keys, raw):
        survivors.setdefault(key, pt)
    ordered = sorted(survivors)
    index_of = {key: i for i, key in enumerate(ordered)}
    pts = np.array([survivors[k] for k in ordered], dtype=np.float64).reshape(-1, 2)
    return pts, [index_of[k] for k in keys]


def _uncached_intersection(surface1, surface2, epsilon):
    """Depth-first subdivision that recomputes every split.

    An independent reference for the level loop: it keeps its own stack of
    patches, halves v by transposing the net, pads each box by its net's
    largest absolute coordinate and deduplicates centroids on a quantised
    grid. Rects are tuples, halved by `_halve`. Returns the fields of
    `IntersectionPointSets` that the traversal decides, the set of
    `(surface index, rect)` keys of the rects it split (the rects of the two
    surfaces can coincide) and the set of `(rect1, rect2)` rows of its
    terminal pairs.
    """
    degrees = {1: (surface1.degree_u, surface1.degree_v),
               2: (surface2.degree_u, surface2.degree_v)}

    def patch(rect, knots_u, knots_v, net):
        flat = net.reshape(-1, 3)
        pad = 1e-12 * (1.0 + float(np.abs(flat).max()))
        return rect, knots_u, knots_v, net, flat.min(axis=0) - pad, flat.max(axis=0) + pad

    def root(surface):
        rect = tuple(surface.param_range)
        r = restrict(surface, rect)
        return patch(rect, r.knots_u.knots, r.knots_v.knots, r.control_points)

    def halves(p, surface_id):
        rect, knots_u, knots_v, net = p[:4]
        degree_u, degree_v = degrees[surface_id]
        split.add((surface_id, rect))
        ra, rb = _halve(rect)
        if ra[1] != rect[1]:
            [(_, (ka, na), (kb, nb))] = _split_net(knots_u[None], net[None], degree_u, [ra[1]])
            return patch(ra, ka[0], knots_v, na[0]), patch(rb, kb[0], knots_v, nb[0])
        net_t = np.ascontiguousarray(net.transpose(1, 0, 2))
        [(_, (ka, na), (kb, nb))] = _split_net(knots_v[None], net_t[None], degree_v, [ra[3]])
        return (patch(ra, knots_u, ka[0], na[0].transpose(1, 0, 2)),
                patch(rb, knots_u, kb[0], nb[0].transpose(1, 0, 2)))

    def meet(p, q):
        return bool(np.all(p[4] <= q[5]) and np.all(q[4] <= p[5]))

    split = set()
    terminal = set()
    root1, root2 = root(surface1), root(surface2)
    raw1, raw2, raw_pairs = [], [], []
    cell_diag1 = cell_diag2 = 0.0
    seen_rect1 = {}
    stack = [(root1, root2)] if meet(root1, root2) else []
    while stack:
        p1, p2 = stack.pop()
        r1, r2 = p1[0], p2[0]
        d1, d2 = _diagonal(r1), _diagonal(r2)
        if d1 <= epsilon and d2 <= epsilon:
            c1, c2 = _centroid(r1), _centroid(r2)
            raw_pairs.append((len(raw1), len(raw2)))
            terminal.add((r1, r2))
            raw1.append(c1)
            raw2.append(c2)
            cell_diag1 = max(cell_diag1, d1)
            cell_diag2 = max(cell_diag2, d2)
            seen_rect1[(_quantize(c1[0]), _quantize(c1[1]))] = (r1[1] - r1[0]) * (r1[3] - r1[2])
            continue
        if d1 >= d2:
            stack.extend((c, p2) for c in halves(p1, 1) if meet(c, p2))
        else:
            stack.extend((p1, c) for c in halves(p2, 2) if meet(p1, c))
    u0, u1, v0, v1 = root1[0]
    points1, index1 = _dedup_sorted(raw1)
    points2, index2 = _dedup_sorted(raw2)
    pairs = sorted({(index1[i], index2[j]) for i, j in raw_pairs})
    return {
        "points1": points1,
        "points2": points2,
        "correspondences": np.array(pairs, dtype=np.int64).reshape(-1, 2),
        "cell_diag1": cell_diag1,
        "cell_diag2": cell_diag2,
        "overlap_suspected":
            sum(seen_rect1.values()) > OVERLAP_WARN_RATIO * (u1 - u0) * (v1 - v0),
        "split": split,
        "terminal": terminal,
    }


def _rect(store, i):
    """The rect of patch `i` of a `_PatchStore`, as a tuple."""
    return tuple(store.rects[i].tolist())


@functools.lru_cache(maxsize=None)
def _reference(case):
    make1, make2, eps = CACHE_CASES[case]
    return _uncached_intersection(make1(), make2(), eps)


class TestSplitCache:
    @pytest.mark.parametrize("case", sorted(CACHE_CASES))
    def test_each_rect_split_once(self, monkeypatch, case):
        # The rects of the patches with a child are the rects the reference
        # split, each split once: every patch but the root is a child, and
        # the children number twice the distinct split rects. Each split
        # makes the halves of `_halve`.
        make1, make2, eps = CACHE_CASES[case]
        stores = []

        class Recording(_PatchStore):
            def __init__(self, *args):
                super().__init__(*args)
                stores.append(self)

        monkeypatch.setattr(sstopo.subdivision, "_PatchStore", Recording)
        sets = intersect_surfaces(make1(), make2(), eps)
        assert not sets.is_empty
        split = set()
        for surface_id, store in enumerate(stores, 1):
            parents = np.flatnonzero(store.child >= 0).tolist()
            rects = {(surface_id, _rect(store, i)) for i in parents}
            assert len(store.rects) - 1 == 2 * len(rects)
            for i in parents:
                first = int(store.child[i])
                assert (_rect(store, first), _rect(store, first + 1)) == _halve(_rect(store, i))
            split |= rects
        assert split
        assert split == _reference(case)["split"]

    def test_levels_mix_split_groups(self, monkeypatch):
        # The knotted case must exercise the grouping in `_split_net` and
        # `_PatchStore.split`: a level split in several groups, a group
        # whose split points differ in multiplicity, and a group whose
        # split points of one multiplicity land in different spans.
        levels = []
        real_split = _PatchStore.split
        real_split_net = sstopo.subdivision._split_net

        def record_level(self, ids):
            levels.append([])
            return real_split(self, ids)

        def record_group(knots, nets, degree, t, axis=0):
            got = real_split_net(knots, nets, degree, t, axis)
            mult = np.count_nonzero(knots == np.asarray(t)[:, None], axis=1)
            levels[-1].append({(int(mult[rows[0]]), left_knots.shape[1] - 2)
                               for rows, (left_knots, _), _ in got})
            return got

        monkeypatch.setattr(_PatchStore, "split", record_level)
        monkeypatch.setattr(sstopo.subdivision, "_split_net", record_group)
        make1, make2, eps = CACHE_CASES["knotted-1-2"]
        assert not intersect_surfaces(make1(), make2(), eps).is_empty
        groups = [group for level in levels for group in level]
        assert any(len(level) >= 2 for level in levels)
        assert any(len({m for m, _ in group}) >= 2 for group in groups)
        assert any(len([k for m, k in group if m == mult]) >= 2
                   for group in groups for mult, _ in group)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_box_test_is_closed_per_axis(self, axis):
        a = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
        b = np.array([[0.5, 0.5, 0.5, 1.5, 1.5, 1.5]])
        b[0, axis] = 1.0  # touching faces count as intersecting
        assert _overlap(a, b)[0] and _overlap(b, a)[0]
        b[0, axis] = math.nextafter(1.0, 2.0)
        assert not _overlap(a, b)[0] and not _overlap(b, a)[0]

    def test_split_reuses_halves(self):
        store = _PatchStore(plane_patch())
        assert store.split(np.array([0, 0])).tolist() == [1, 1]
        assert store.split(np.array([0])).tolist() == [1]
        assert len(store.rects) == 3
        assert (_rect(store, 1), _rect(store, 2)) == _halve(_rect(store, 0))
        # Patches 1 and 2 split together: their first halves, 3 and 5, share
        # a block.
        assert store.split(np.array([2, 1])).tolist() == [5, 3]
        assert store.block[3] == store.block[5]
        store.split(np.array([3]))
        store.split(np.array([5, 3]))
        assert len(store.rects) == 11

    def test_degenerate_half_raises(self):
        # A one-ulp-wide domain cannot be halved: the midpoint rounds onto
        # an end, and the split refuses the empty half as `restrict` would.
        end = math.nextafter(1.0, 2.0)
        kv = KnotVector(np.array([1.0, 1.0, end, end]), 1)
        store = _PatchStore(BSplineSurface(kv, kv, plane_patch().control_points))
        with pytest.raises(ParameterRangeError):
            store.split(np.array([0]))

    @pytest.mark.parametrize("case", sorted(CACHE_CASES))
    def test_matches_uncached_reference(self, case):
        expected = _reference(case)
        make1, make2, eps = CACHE_CASES[case]
        sets = intersect_surfaces(make1(), make2(), eps)
        assert sets.points1.shape[0] > 0
        for name in ("points1", "points2", "correspondences"):
            assert np.array_equal(getattr(sets, name), expected[name]), name
        assert sets.cell_diag1 == expected["cell_diag1"]
        assert sets.cell_diag2 == expected["cell_diag2"]
        assert sets.overlap_suspected == expected["overlap_suspected"]
        # Each correspondence row pairs the cells of one terminal pair.
        pairs = [(tuple(sets.cells1[i].tolist()), tuple(sets.cells2[j].tolist()))
                 for i, j in sets.correspondences.tolist()]
        assert len(pairs) == len(expected["terminal"])
        assert set(pairs) == expected["terminal"]


class TestSplitGroups:
    # How `_split_net` hands the patches of a run to `insert_knot`.
    @staticmethod
    def _insert_calls(monkeypatch, case):
        # One record per `_split_net` call of a run: its row count and the
        # row count of each `insert_knot` call it makes. Every row a call
        # gets must lie in the span it is given: the last knot <= t,
        # clamped to the top control row.
        calls, active = [], []
        real_split_net = sstopo.subdivision._split_net
        real_insert = sstopo._kernels.insert_knot

        def record_split(knots, nets, degree, t, axis=0):
            active.append((len(t), []))
            calls.append(active[-1])
            try:
                return real_split_net(knots, nets, degree, t, axis)
            finally:
                active.pop()

        def record_insert(knots, ctrl, degree, t, k, times):
            spans = np.minimum(np.count_nonzero(knots <= t[:, None], axis=1) - 1,
                               ctrl.shape[1] - 1)
            assert (spans == k).all()
            if active:
                active[-1][1].append(t.size)
            return real_insert(knots, ctrl, degree, t, k, times)

        monkeypatch.setattr(sstopo.subdivision, "_split_net", record_split)
        monkeypatch.setattr(sstopo._kernels, "insert_knot", record_insert)
        make1, make2, eps = CACHE_CASES[case]
        assert not intersect_surfaces(make1(), make2(), eps).is_empty
        return calls

    def test_saddle_inserts_each_split_in_one_call(self, monkeypatch):
        calls = self._insert_calls(monkeypatch, "saddle")
        assert calls
        assert all(inserts == [rows] for rows, inserts in calls)

    def test_knotted_run_groups_some_splits(self, monkeypatch):
        # Patches that still hold an interior knot are grouped by where t
        # lands, one insertion per group.
        calls = self._insert_calls(monkeypatch, "knotted-1-2")
        assert any(inserts == [rows] for rows, inserts in calls)
        assert any(len(inserts) > 1 for _, inserts in calls)
        assert all(sum(inserts) <= rows for rows, inserts in calls)


SIGNED_PERMUTATIONS = [
    (perm, signs)
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
]
INVARIANCE_CASES = {**CACHE_CASES, "paraboloid": (plane_patch, paraboloid_patch, 0.05)}


def _signed_permutation(surface, perm, signs):
    return BSplineSurface(surface.knots_u, surface.knots_v,
                          surface.control_points[..., list(perm)] * np.array(signs))


@functools.lru_cache(maxsize=None)
def _untransformed(case):
    make1, make2, eps = INVARIANCE_CASES[case]
    return intersect_surfaces(make1(), make2(), eps)


class TestInvariance:
    # Negation, axis permutation and the |x| box pad are exact, and the box
    # test compares each axis on its own, so a signed axis permutation of
    # both surfaces changes no pruning decision and no output bit.
    @seed(7031)
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from(sorted(INVARIANCE_CASES)), st.sampled_from(SIGNED_PERMUTATIONS))
    def test_signed_axis_permutation(self, case, motion):
        make1, make2, eps = INVARIANCE_CASES[case]
        expected = _untransformed(case)
        sets = intersect_surfaces(_signed_permutation(make1(), *motion),
                                  _signed_permutation(make2(), *motion), eps)
        for name in ("points1", "points2", "correspondences"):
            assert np.array_equal(getattr(sets, name), getattr(expected, name)), name
        assert sets.cell_diag1 == expected.cell_diag1
        assert sets.cell_diag2 == expected.cell_diag2
        assert sets.overlap_suspected == expected.overlap_suspected
