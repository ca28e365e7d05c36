import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

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
    split_rect,
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


@pytest.fixture(scope="module")
def plane_cross():
    """z=0 patch against the vertical plane x=0.5; analytic preimage is u=0.5."""
    return intersect_surfaces(plane_patch(), vertical_plane_x(0.5), EPS, collect_pairs=True)


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

    def test_coincident_patches_terminate_with_overlap_flag(self):
        sets = intersect_surfaces(plane_patch(), plane_patch(), 0.1)
        assert sets.overlap_suspected
        # centroids tile the whole domain
        assert sets.points1.shape[0] >= 64
        assert sets.points1[:, 0].min() < 0.1 and sets.points1[:, 0].max() > 0.9


class TestPlaneCross:
    def test_points_near_analytic_line(self, plane_cross):
        # every evaluated output point sits within half its cell's 3D box
        # diagonal of the plane x=0.5
        sets = plane_cross
        diag_by_point = {}
        s1 = plane_patch()
        for pair in sets.terminal_pairs:
            lo, hi = _net_box(s1, pair.rect1)
            c = pair.rect1.centroid
            key = (round(c[0] / 1e-12), round(c[1] / 1e-12))
            diag_by_point[key] = max(diag_by_point.get(key, 0.0), float(np.linalg.norm(hi - lo)))
        for u, v in sets.points1:
            p = evaluate(s1, u, v)
            key = (round(u / 1e-12), round(v / 1e-12))
            assert abs(p[0] - 0.5) <= 0.5 * diag_by_point[key]

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
        for pair in plane_cross.terminal_pairs:
            b1 = np.concatenate(_net_box(s1, pair.rect1))[None]
            lo2, hi2 = _net_box(s2, pair.rect2)
            inflated = np.concatenate([lo2 - slack, hi2 + slack])[None]
            assert _overlap(b1, inflated)[0]

    def test_terminal_cells_within_epsilon(self, plane_cross):
        sets = plane_cross
        for pair in sets.terminal_pairs:
            assert pair.rect1.diagonal <= EPS
            assert pair.rect2.diagonal <= EPS
            # bounded depth: a cell is only split while its diagonal exceeds eps
            assert pair.rect1.diagonal > EPS / 4
            assert pair.rect2.diagonal > EPS / 4

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
            points1=np.zeros((1, 2)),
            points2=np.zeros((1, 2)),
            correspondences=np.zeros((1, 2), dtype=np.int64),
            epsilon=0.1,
            cell_diag1=0.05,
            cell_diag2=0.02,
        )
        b1, b2 = hausdorff_bound(sets)
        assert b1 == 0.025 and b2 == 0.01

    def test_square_cells(self):
        h = 0.04
        sets = IntersectionPointSets(
            points1=np.zeros((1, 2)),
            points2=np.zeros((1, 2)),
            correspondences=np.zeros((1, 2), dtype=np.int64),
            epsilon=h * 2,
            cell_diag1=h * np.sqrt(2),
            cell_diag2=h * np.sqrt(2),
        )
        b1, b2 = hausdorff_bound(sets)
        assert b1 == pytest.approx(h * np.sqrt(2) / 2)
        assert b2 == b1

    def test_empty_raises(self):
        sets = IntersectionPointSets(
            points1=np.empty((0, 2)),
            points2=np.empty((0, 2)),
            correspondences=np.empty((0, 2), dtype=np.int64),
            epsilon=0.1,
            cell_diag1=0.0,
            cell_diag2=0.0,
        )
        with pytest.raises(EmptyInputError):
            hausdorff_bound(sets)


def test_box_dump(tmp_path, plane_cross):
    path = tmp_path / "boxes.json"
    dump_box_pairs(path, plane_cross.terminal_pairs)
    with open(path) as fh:
        records = json.load(fh)
    assert len(records) == len(plane_cross.terminal_pairs)
    first = records[0]
    assert len(first["rect1"]) == 4 and len(first["rect2"]) == 4


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
    grid. Returns the fields of `IntersectionPointSets` that the traversal
    decides, plus the set of rects it split.
    """
    degrees = {1: (surface1.degree_u, surface1.degree_v),
               2: (surface2.degree_u, surface2.degree_v)}

    def patch(rect, knots_u, knots_v, net):
        flat = net.reshape(-1, 3)
        pad = 1e-12 * (1.0 + float(np.abs(flat).max()))
        return rect, knots_u, knots_v, net, flat.min(axis=0) - pad, flat.max(axis=0) + pad

    def root(surface, surface_id):
        rect = surface.full_rect(surface_id)
        r = restrict(surface, rect)
        return patch(rect, r.knots_u.knots, r.knots_v.knots, r.control_points)

    def halves(p):
        rect, knots_u, knots_v, net = p[:4]
        degree_u, degree_v = degrees[rect.surface_id]
        split.add(rect)
        ra, rb = split_rect(rect)
        if ra.u_max != rect.u_max:
            [(_, (ka, na), (kb, nb))] = _split_net(knots_u[None], net[None], degree_u,
                                                   [ra.u_max])
            return patch(ra, ka[0], knots_v, na[0]), patch(rb, kb[0], knots_v, nb[0])
        net_t = np.ascontiguousarray(net.transpose(1, 0, 2))
        [(_, (ka, na), (kb, nb))] = _split_net(knots_v[None], net_t[None], degree_v, [ra.v_max])
        return (patch(ra, knots_u, ka[0], na[0].transpose(1, 0, 2)),
                patch(rb, knots_u, kb[0], nb[0].transpose(1, 0, 2)))

    def meet(p, q):
        return bool(np.all(p[4] <= q[5]) and np.all(q[4] <= p[5]))

    split = set()
    root1, root2 = root(surface1, 1), root(surface2, 2)
    raw1, raw2, raw_pairs = [], [], []
    cell_diag1 = cell_diag2 = 0.0
    seen_rect1 = {}
    stack = [(root1, root2)] if meet(root1, root2) else []
    while stack:
        p1, p2 = stack.pop()
        r1, r2 = p1[0], p2[0]
        if r1.diagonal <= epsilon and r2.diagonal <= epsilon:
            c1, c2 = r1.centroid, r2.centroid
            raw_pairs.append((len(raw1), len(raw2)))
            raw1.append(c1)
            raw2.append(c2)
            cell_diag1 = max(cell_diag1, r1.diagonal)
            cell_diag2 = max(cell_diag2, r2.diagonal)
            seen_rect1[(_quantize(c1[0]), _quantize(c1[1]))] = r1.area
            continue
        if r1.diagonal >= r2.diagonal:
            stack.extend((c, p2) for c in halves(p1) if meet(c, p2))
        else:
            stack.extend((p1, c) for c in halves(p2) if meet(p1, c))
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
            sum(seen_rect1.values()) > OVERLAP_WARN_RATIO * root1[0].area,
        "split": split,
    }


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
        # makes the halves of `split_rect`.
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
        for store in stores:
            parents = np.flatnonzero(store.child >= 0).tolist()
            rects = {store.rect(i) for i in parents}
            assert len(store.rects) - 1 == 2 * len(rects)
            for i in parents:
                first = int(store.child[i])
                assert (store.rect(first), store.rect(first + 1)) == split_rect(store.rect(i))
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

    def test_split_reuses_halves_and_frees_parent(self):
        store = _PatchStore(plane_patch(), 1)
        assert store.split(np.array([0, 0])).tolist() == [1, 1]
        # The root's block, its net and knots, is freed; its halves' are not.
        assert store.blocks[store.block[0]] is None
        assert store.blocks[store.block[1]] is not None
        assert store.blocks[store.block[2]] is not None
        assert store.split(np.array([0])).tolist() == [1]
        assert len(store.rects) == 3
        assert [store.rect(1), store.rect(2)] == list(split_rect(store.rect(0)))
        # Patches 1 and 2 split together: their first halves, 3 and 5, share
        # a block, which is freed only once both are split.
        assert store.split(np.array([2, 1])).tolist() == [5, 3]
        assert store.block[3] == store.block[5]
        store.split(np.array([3]))
        assert store.blocks[store.block[5]] is not None
        store.split(np.array([5, 3]))
        assert store.blocks[store.block[5]] is None
        assert len(store.rects) == 11

    def test_degenerate_half_raises(self):
        # A one-ulp-wide domain cannot be halved: the midpoint rounds onto
        # an end, and the split refuses the empty half as ParamRect would.
        end = math.nextafter(1.0, 2.0)
        kv = KnotVector(np.array([1.0, 1.0, end, end]), 1)
        store = _PatchStore(BSplineSurface(kv, kv, plane_patch().control_points), 1)
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
