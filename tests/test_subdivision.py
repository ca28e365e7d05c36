import json
import math
from collections import Counter

import numpy as np
import pytest

import sstopo.subdivision

from sstopo import (
    ConfigurationError,
    EmptyInputError,
    evaluate,
    hausdorff_bound,
    intersect_surfaces,
    patch_aabb,
)
from sstopo.subdivision import (
    OVERLAP_WARN_RATIO,
    IntersectionPointSets,
    _dedup_sorted,
    _Patch,
    _quantize,
    dump_box_pairs,
)

from corpus import cylinder_patch, plane_patch, saddle_patch, vertical_plane_x, wrinkle_patch

EPS = 0.02


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
            box = patch_aabb(s1, pair.rect1)
            c = pair.rect1.centroid
            key = (round(c[0] / 1e-12), round(c[1] / 1e-12))
            diag_by_point[key] = max(diag_by_point.get(key, 0.0), box.diagonal)
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
        from sstopo import AABB3

        s1 = plane_patch()
        s2 = vertical_plane_x(0.5)
        slack = 1e-9
        for pair in plane_cross.terminal_pairs:
            b1 = patch_aabb(s1, pair.rect1)
            b2 = patch_aabb(s2, pair.rect2)
            inflated = AABB3(b2.min_corner - slack, b2.max_corner + slack)
            assert b1.intersects(inflated)

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


# Coarse enough to keep the uncached reference fast, fine enough that many
# patches are paired with several partners.
CACHE_CASES = {
    "saddle": (plane_patch, saddle_patch, 0.05),
    "wrinkle": (plane_patch, wrinkle_patch, 0.05),
    "cylinders": (lambda: cylinder_patch(axis="y"), lambda: cylinder_patch(axis="x"), 0.05),
}


def _array_boxes_intersect(a, b):
    """The closed-box test on numpy arrays, as an oracle for the float one."""
    return bool(
        np.all(np.array(a.box_min) <= np.array(b.box_max))
        and np.all(np.array(b.box_min) <= np.array(a.box_max))
    )


def _uncached_intersection(surface1, surface2, epsilon):
    """The subdivision loop recomputing every split, with array box tests.

    Returns the fields of `IntersectionPointSets` that the traversal decides.
    """
    root1 = _Patch.from_surface(surface1, 1)
    root2 = _Patch.from_surface(surface2, 2)
    raw1, raw2, raw_pairs = [], [], []
    cell_diag1 = cell_diag2 = 0.0
    seen_rect1 = {}
    stack = [(root1, root2)] if _array_boxes_intersect(root1, root2) else []
    while stack:
        p1, p2 = stack.pop()
        if p1.diag <= epsilon and p2.diag <= epsilon:
            c1, c2 = p1.rect.centroid, p2.rect.centroid
            raw_pairs.append((len(raw1), len(raw2)))
            raw1.append(c1)
            raw2.append(c2)
            cell_diag1 = max(cell_diag1, p1.diag)
            cell_diag2 = max(cell_diag2, p2.diag)
            seen_rect1[(_quantize(c1[0]), _quantize(c1[1]))] = p1.rect.area
            continue
        if p1.diag >= p2.diag:
            stack.extend((c, p2) for c in p1._split() if _array_boxes_intersect(c, p2))
        else:
            stack.extend((p1, c) for c in p2._split() if _array_boxes_intersect(p1, c))
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
            sum(seen_rect1.values()) > OVERLAP_WARN_RATIO * root1.rect.area,
    }


class TestSplitCache:
    @pytest.mark.parametrize("case", sorted(CACHE_CASES))
    def test_each_rect_split_once(self, monkeypatch, case):
        make1, make2, eps = CACHE_CASES[case]
        splitting = []
        nets_split = Counter()
        cached_split = _Patch.split
        real_split_net = sstopo.subdivision._split_net

        def split(self):
            splitting.append(self.rect)
            try:
                return cached_split(self)
            finally:
                splitting.pop()

        def split_net(*args):
            nets_split[splitting[-1]] += 1
            return real_split_net(*args)

        monkeypatch.setattr(_Patch, "split", split)
        monkeypatch.setattr(sstopo.subdivision, "_split_net", split_net)
        sets = intersect_surfaces(make1(), make2(), eps)
        assert not sets.is_empty
        assert nets_split and max(nets_split.values()) == 1

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_box_test_is_closed_per_axis(self, axis):
        a = _Patch.from_surface(plane_patch(), 1)
        b = _Patch.from_surface(plane_patch(), 2)
        a.box_min, a.box_max = [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]
        b.box_min, b.box_max = [0.5, 0.5, 0.5], [1.5, 1.5, 1.5]
        b.box_min[axis] = 1.0  # touching faces count as intersecting
        assert a.boxes_intersect(b) and b.boxes_intersect(a)
        b.box_min[axis] = math.nextafter(1.0, 2.0)
        assert not a.boxes_intersect(b) and not b.boxes_intersect(a)

    @pytest.mark.parametrize("case", sorted(CACHE_CASES))
    def test_matches_uncached_reference(self, case):
        make1, make2, eps = CACHE_CASES[case]
        expected = _uncached_intersection(make1(), make2(), eps)
        sets = intersect_surfaces(make1(), make2(), eps)
        assert sets.points1.shape[0] > 0
        for name in ("points1", "points2", "correspondences"):
            assert np.array_equal(getattr(sets, name), expected[name]), name
        assert sets.cell_diag1 == expected["cell_diag1"]
        assert sets.cell_diag2 == expected["cell_diag2"]
        assert sets.overlap_suspected == expected["overlap_suspected"]
