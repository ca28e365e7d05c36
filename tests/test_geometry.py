import numpy as np
import pytest

from sstopo import (
    BSplineSurface,
    KnotVector,
    ParameterRangeError,
    evaluate,
    uniform_clamped_knots,
)
from sstopo import _kernels
from sstopo.geometry import (
    _split_net,
    restrict,
    surface_from_dict,
    surface_to_dict,
    uniform_periodic_knots,
)
from sstopo.subdivision import _boxes, _overlap, _PatchStore

from corpus import (
    bilinear_corner_patch,
    cylinder_patch,
    oracle_surface_point,
    plane_patch,
    random_cubic_patch,
)


def evaluate_grid(surface: BSplineSurface, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Reference evaluator: the points at the tensor grid us x vs, one
    `evaluate` call each, shape (len(us), len(vs), 3)."""
    out = np.empty((len(us), len(vs), 3))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            out[i, j] = evaluate(surface, float(u), float(v))
    return out


class TestKnotVector:
    def test_rejects_decreasing_knots(self):
        with pytest.raises(ParameterRangeError):
            KnotVector(np.array([0.0, 0.5, 0.2, 1.0]), 1)

    def test_rejects_empty_range(self):
        with pytest.raises(ParameterRangeError):
            KnotVector(np.array([0.0, 0.0, 0.0, 0.0]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_knots(self, bad):
        with pytest.raises(ParameterRangeError):
            KnotVector(np.array([0.0, 0.0, 0.5, 1.0, bad]), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_control_points(self, bad):
        data = surface_to_dict(plane_patch())
        data["control_points"][1][0][2] = bad
        with pytest.raises(ParameterRangeError):
            surface_from_dict(data)

    def test_clamped_properties(self):
        kv = uniform_clamped_knots(3, 6)
        assert kv.count == 6
        assert kv.start == 0.0 and kv.end == 1.0
        ends = kv.degree + 1
        assert kv.knots[:ends].tolist() == [0.0] * ends
        assert kv.knots[-ends:].tolist() == [1.0] * ends

    def test_grid_mismatch_rejected(self):
        kv = uniform_clamped_knots(1, 2)
        with pytest.raises(ParameterRangeError):
            BSplineSurface(kv, kv, np.zeros((3, 2, 3)))

    @pytest.mark.parametrize("build", [
        lambda: KnotVector(np.array([0.0, 0.0, 1.0, 1.0]), -1),
        lambda: KnotVector(np.array([0.0, 1.0]), 1),
        lambda: uniform_clamped_knots(3, 3),
        lambda: uniform_periodic_knots(2, 2),
        lambda: BSplineSurface(uniform_clamped_knots(1, 2), uniform_clamped_knots(1, 2),
                               np.zeros((2, 2, 2))),
    ], ids=["negative-degree", "too-short", "clamped-too-few-rows", "periodic-too-few-rows",
            "grid-not-3d"])
    def test_bad_construction_raises_parameter_range_error(self, build):
        with pytest.raises(ParameterRangeError):
            build()


class TestEvaluate:
    def test_clamped_corners_exact(self):
        s = bilinear_corner_patch()
        assert np.array_equal(evaluate(s, 0, 0), [0, 0, 0])
        assert np.array_equal(evaluate(s, 1, 1), [1, 1, 1])
        assert np.array_equal(evaluate(s, 1, 0), [1, 0, 0])
        assert np.array_equal(evaluate(s, 0, 1), [0, 1, 0])

    def test_bilinear_center_matches_basis_oracle(self):
        s = bilinear_corner_patch()
        expected = oracle_surface_point(s, 0.5, 0.5)
        np.testing.assert_allclose(expected, [0.5, 0.5, 0.25], atol=1e-15)
        np.testing.assert_allclose(evaluate(s, 0.5, 0.5), expected, atol=1e-15)

    def test_out_of_range_raises(self):
        s = bilinear_corner_patch()
        with pytest.raises(ParameterRangeError):
            evaluate(s, 1.2, 0.5)
        with pytest.raises(ParameterRangeError):
            evaluate(s, 0.5, -0.1)

    def test_random_cubic_matches_basis_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(3):
            s = random_cubic_patch(rng)
            for _ in range(30):
                u = float(rng.uniform(0, 1))
                v = float(rng.uniform(0, 1))
                np.testing.assert_allclose(
                    evaluate(s, u, v), oracle_surface_point(s, u, v), atol=1e-12
                )

    def test_periodic_surface_matches_basis_oracle(self):
        cyl = cylinder_patch()
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = float(rng.uniform(0, 1))
            v = float(rng.uniform(0, 1))
            np.testing.assert_allclose(
                evaluate(cyl, u, v), oracle_surface_point(cyl, u, v), atol=1e-12
            )


class TestSubpatch:
    def test_full_range_is_identity(self):
        s = bilinear_corner_patch()
        net = restrict(s, s.param_range).control_points
        np.testing.assert_array_equal(net, s.control_points)

    def test_corner_interpolation_after_restriction(self):
        s = bilinear_corner_patch()
        net = restrict(s, (0.0, 0.5, 0.0, 1.0)).control_points
        np.testing.assert_allclose(net[0, 0], evaluate(s, 0.0, 0.0), atol=1e-15)
        np.testing.assert_allclose(net[-1, 0], evaluate(s, 0.5, 0.0), atol=1e-15)
        np.testing.assert_allclose(net[0, -1], evaluate(s, 0.0, 1.0), atol=1e-15)
        np.testing.assert_allclose(net[-1, -1], evaluate(s, 0.5, 1.0), atol=1e-15)

    def test_restriction_fidelity_dense_sampling(self):
        rng = np.random.default_rng(0)
        s = random_cubic_patch(rng)
        a, b = sorted(rng.uniform(0, 1, 2))
        c, d = sorted(rng.uniform(0, 1, 2))
        sub = restrict(s, (a, b, c, d))
        us = np.linspace(a, b, 10)
        vs = np.linspace(c, d, 10)
        np.testing.assert_allclose(
            evaluate_grid(sub, us, vs), evaluate_grid(s, us, vs), atol=1e-12
        )

    def test_restriction_fidelity_random_params(self):
        rng = np.random.default_rng(17)
        s = random_cubic_patch(rng)
        u0, u1, v0, v1 = rect = (0.21, 0.83, 0.08, 0.67)
        sub = restrict(s, rect)
        for _ in range(100):
            u = float(rng.uniform(u0, u1))
            v = float(rng.uniform(v0, v1))
            np.testing.assert_allclose(evaluate(sub, u, v), evaluate(s, u, v), atol=1e-10)

    def test_periodic_restriction_fidelity(self):
        cyl = cylinder_patch()
        rng = np.random.default_rng(9)
        for rect in [(0.0, 0.35, 0.0, 1.0), (0.6, 1.0, 0.2, 0.9)]:
            sub = restrict(cyl, rect)
            u0, u1, v0, v1 = rect
            for _ in range(40):
                u = float(rng.uniform(u0, u1))
                v = float(rng.uniform(v0, v1))
                np.testing.assert_allclose(evaluate(sub, u, v), evaluate(cyl, u, v), atol=1e-10)

    def test_split_along_v_equals_split_of_transpose(self):
        # One split path serves both axes: along v it gives, bit for bit,
        # the u split of the transposed net, at a new knot and at an
        # existing one.
        s = random_cubic_patch(np.random.default_rng(0))
        kv = s.knots_v.knots
        for t in (0.37, 0.5):
            [(_, *along_v)] = _split_net(kv[None], s.control_points[None], s.degree_v, [t],
                                         axis=1)
            [(_, *along_u)] = _split_net(kv[None], s.control_points.transpose(1, 0, 2)[None],
                                         s.degree_v, [t])
            for (k1, n1), (k2, n2) in zip(along_v, along_u):
                assert np.array_equal(k1, k2)
                assert np.array_equal(n1, n2.transpose(0, 2, 1, 3))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_batched_split_equals_one_net_at_a_time(self, axis):
        # Nets of one shape whose split points differ in multiplicity (on
        # an interior knot, on a clamped end, off every knot) and in span:
        # each net's halves equal, bit for bit, those of a split of that
        # net alone.
        rng = np.random.default_rng(5)
        degree, count = 3, 7
        knots = np.tile(uniform_clamped_knots(degree, count).knots, (8, 1))
        knots[1::2, 4:7] = [0.2, 0.3, 0.35]
        nets = rng.normal(size=(8, count, 4, 3))
        if axis:
            nets = nets.transpose(0, 2, 1, 3)
        t = np.array([0.5, 0.3, 0.25, 0.35, 0.1, 0.9, 0.0, 0.61])
        groups = _split_net(knots, nets, degree, t, axis)
        assert len(groups) >= 4
        seen = np.concatenate([rows for rows, _, _ in groups])
        assert sorted(seen.tolist()) == list(range(8))
        for rows, (lk, ln), (rk, rn) in groups:
            for r, g in enumerate(rows.tolist()):
                [(_, (lk1, ln1), (rk1, rn1))] = _split_net(knots[g : g + 1], nets[g : g + 1],
                                                           degree, t[g : g + 1], axis)
                for got, alone in ((lk[r], lk1[0]), (ln[r], ln1[0]), (rk[r], rk1[0]),
                                   (rn[r], rn1[0])):
                    assert got.shape == alone.shape
                    assert got.tobytes() == alone.tobytes()

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ParameterRangeError, match="degenerate"):
            restrict(bilinear_corner_patch(), (0.5, 0.5, 0.0, 1.0))

    def test_rect_outside_range_rejected(self):
        s = bilinear_corner_patch()
        with pytest.raises(ParameterRangeError, match="outside"):
            restrict(s, (0.0, 1.5, 0.0, 1.0))


def _patch_box(surface, rect):
    """The subdivision's padded box of the restriction to `rect`, as (lo, hi)."""
    box = _boxes([restrict(surface, rect).control_points])[0]
    return box[:3], box[3:]


class TestPatchAABB:
    def test_planar_patch_has_flat_z(self):
        s = plane_patch(z=0.0)
        lo, hi = _patch_box(s, s.param_range)
        pad = 1e-12 * (1.0 + 1.0)  # relative to the largest coordinate, 1
        assert lo[2] == -pad and hi[2] == pad

    def test_bilinear_full_range_box(self):
        s = bilinear_corner_patch()
        lo, hi = _patch_box(s, s.param_range)
        pad = 1e-12 * (1.0 + 1.0)
        np.testing.assert_array_equal(lo, np.zeros(3) - pad)
        np.testing.assert_array_equal(hi, np.ones(3) + pad)

    def test_sampling_containment(self):
        # Convex hull guarantee: sampled surface points stay inside the box.
        rng = np.random.default_rng(3)
        for _ in range(4):
            s = random_cubic_patch(rng)
            a, b = sorted(rng.uniform(0, 1, 2))
            c, d = sorted(rng.uniform(0, 1, 2))
            if b - a < 1e-3 or d - c < 1e-3:
                continue
            lo, hi = _patch_box(s, (a, b, c, d))
            pts = evaluate_grid(s, np.linspace(a, b, 20), np.linspace(c, d, 20)).reshape(-1, 3)
            assert np.all(pts >= lo - 1e-9)
            assert np.all(pts <= hi + 1e-9)

    def test_containment_400_samples(self):
        rng = np.random.default_rng(100)
        s = random_cubic_patch(rng)
        lo, hi = _patch_box(s, (0.1, 0.8, 0.3, 0.95))
        us = np.linspace(0.1, 0.8, 20)
        vs = np.linspace(0.3, 0.95, 20)
        pts = evaluate_grid(s, us, vs).reshape(-1, 3)
        assert pts.shape[0] == 400
        assert np.all(pts >= lo - 1e-9)
        assert np.all(pts <= hi + 1e-9)

    def test_aabb_intersection_is_closed(self):
        a = np.array([[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]])
        b = np.array([[1.0, 0.0, 0.0, 2.0, 1.0, 1.0]])
        c = np.array([[1.1, 0.0, 0.0, 2.0, 1.0, 1.0]])
        assert _overlap(a, b)[0] and _overlap(b, a)[0]  # touching counts
        assert not _overlap(a, c)[0] and not _overlap(c, a)[0]

    def test_boxes_of_several_nets_match_one_at_a_time(self):
        rng = np.random.default_rng(8)
        base = random_cubic_patch(rng).control_points
        # Shifted by -3, a net's largest absolute coordinate is its lowest.
        nets = np.stack([base + rng.normal(scale=0.2, size=base.shape) + shift
                         for shift in (0, -3, 0, -3, 2)])
        together = _boxes(nets)
        for net, row in zip(nets, together):
            np.testing.assert_array_equal(_boxes([net])[0], row)
            flat = net.reshape(-1, 3)
            pad = 1e-12 * (1.0 + np.abs(flat).max())
            np.testing.assert_array_equal(row[:3], flat.min(axis=0) - pad)
            np.testing.assert_array_equal(row[3:], flat.max(axis=0) + pad)


def _halves(rect):
    """The two halves a one-patch `_PatchStore` makes of `rect`, as tuples."""
    u0, u1, v0, v1 = rect
    plane = BSplineSurface(uniform_clamped_knots(1, 2, u0, u1),
                           uniform_clamped_knots(1, 2, v0, v1), np.zeros((2, 2, 3)))
    store = _PatchStore(plane)
    assert store.rects[0].tolist() == list(rect)
    assert store.split(np.array([0])).tolist() == [1]
    return tuple(store.rects[1].tolist()), tuple(store.rects[2].tolist())


class TestSplitRect:
    def test_longer_side_split(self):
        assert _halves((0.0, 1.0, 0.0, 0.25)) == ((0.0, 0.5, 0.0, 0.25), (0.5, 1.0, 0.0, 0.25))
        assert _halves((0.0, 0.25, 0.0, 1.0)) == ((0.0, 0.25, 0.0, 0.5), (0.0, 0.25, 0.5, 1.0))

    def test_tie_splits_u(self):
        assert _halves((0.0, 1.0, 0.0, 1.0)) == ((0.0, 0.5, 0.0, 1.0), (0.5, 1.0, 0.0, 1.0))

    def test_exact_tiling(self):
        rng = np.random.default_rng(12)
        tiled = 0
        for _ in range(50):
            u0, u1 = sorted(rng.uniform(0, 1, 2))
            v0, v1 = sorted(rng.uniform(0, 1, 2))
            if u1 - u0 < 1e-6 or v1 - v0 < 1e-6:
                continue
            rect = (float(u0), float(u1), float(v0), float(v1))
            a, b = _halves(rect)
            area = [(r[1] - r[0]) * (r[3] - r[2]) for r in (rect, a, b)]
            assert abs(area[1] + area[2] - area[0]) < 1e-15
            if u1 - u0 >= v1 - v0:
                assert a[1] == b[0] == 0.5 * (u0 + u1)
                assert (a[0], b[1]) == (u0, u1) and a[2:] == b[2:] == (v0, v1)
            else:
                assert a[3] == b[2] == 0.5 * (v0 + v1)
                assert (a[2], b[3]) == (v0, v1) and a[:2] == b[:2] == (u0, u1)
            tiled += 1
        assert tiled >= 45


class TestDeterminism:
    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(2)
        s = random_cubic_patch(rng)
        rect = (0.2, 0.9, 0.1, 0.7)
        p1 = evaluate(s, 0.312, 0.644)
        p2 = evaluate(s, 0.312, 0.644)
        assert np.array_equal(p1, p2)
        n1 = restrict(s, rect).control_points
        n2 = restrict(s, rect).control_points
        assert np.array_equal(n1, n2)


class TestSurfaceIO:
    def test_round_trip(self, tmp_path):
        s = cylinder_patch()
        d = surface_to_dict(s)
        s2 = surface_from_dict(d)
        assert np.array_equal(s.control_points, s2.control_points)
        assert np.array_equal(s.knots_u.knots, s2.knots_u.knots)
        assert s2.knots_u.periodic and not s2.knots_v.periodic
        path = tmp_path / "surf.json"
        from sstopo import load_surface, save_surface

        save_surface(path, s)
        s3 = load_surface(path)
        assert np.array_equal(s.control_points, s3.control_points)

    def test_non_object_rejected(self):
        with pytest.raises(ParameterRangeError, match="JSON object"):
            surface_from_dict([surface_to_dict(plane_patch())])

    @pytest.mark.parametrize("key", ["degree_u", "degree_v", "knots_u", "knots_v",
                                     "control_points"])
    def test_missing_key_named(self, key):
        data = surface_to_dict(plane_patch())
        del data[key]
        with pytest.raises(ParameterRangeError, match=repr(key)):
            surface_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("degree_u", 1.7),
        ("degree_u", 1.0),
        ("degree_v", True),
        ("degree_v", "1"),
        ("periodic_u", "no"),
        ("periodic_v", 0),
        ("periodic_v", None),
        ("knots_u", {"a": 1}),
        ("knots_v", "abc"),
        ("control_points", [[["a", 0.0, 0.0]]]),
        ("control_points", {"x": 1}),
    ])
    def test_ill_typed_value_named(self, key, value):
        data = surface_to_dict(plane_patch())
        data[key] = value
        with pytest.raises(ParameterRangeError, match=key):
            surface_from_dict(data)


def _loop_span(knots, degree, t):
    hi = knots.shape[0] - degree - 2
    k = degree
    while k < hi and knots[k + 1] <= t:
        k += 1
    return k


def _loop_deboor(knots_u, degree_u, knots_v, degree_v, ctrl, u, v):
    # Scalar de Boor recursion, element by element; the reference the
    # row-wise kernel must match bit for bit.
    su = _loop_span(knots_u, degree_u, u)
    sv = _loop_span(knots_v, degree_v, v)
    d = ctrl[su - degree_u : su + 1, sv - degree_v : sv + 1, :].copy()
    for r in range(1, degree_u + 1):
        for j in range(degree_u, r - 1, -1):
            i = j + su - degree_u
            alpha = (u - knots_u[i]) / (knots_u[j + 1 + su - r] - knots_u[i])
            for q in range(degree_v + 1):
                for c in range(3):
                    d[j, q, c] = (1.0 - alpha) * d[j - 1, q, c] + alpha * d[j, q, c]
    row = d[degree_u]
    for r in range(1, degree_v + 1):
        for j in range(degree_v, r - 1, -1):
            i = j + sv - degree_v
            alpha = (v - knots_v[i]) / (knots_v[j + 1 + sv - r] - knots_v[i])
            for c in range(3):
                row[j, c] = (1.0 - alpha) * row[j - 1, c] + alpha * row[j, c]
    return row[degree_v].copy()


def _insert_span(knots, ctrl, t):
    # The span the scalar loop inserts t after: the last knot <= t, clamped
    # to the top control row.
    return min(int(np.searchsorted(knots, t, side="right")) - 1, ctrl.shape[0] - 1)


def _loop_insert_knot(knots, ctrl, degree, t, times):
    # Scalar Boehm insertion; the reference for the row-wise kernel.
    for _ in range(times):
        k = _insert_span(knots, ctrl, t)
        n, w = ctrl.shape
        out = np.empty((n + 1, w))
        for i in range(n + 1):
            for c in range(w):
                if i <= k - degree:
                    out[i, c] = ctrl[i, c]
                elif i <= k:
                    alpha = (t - knots[i]) / (knots[i + degree] - knots[i])
                    out[i, c] = (1.0 - alpha) * ctrl[i - 1, c] + alpha * ctrl[i, c]
                else:
                    out[i, c] = ctrl[i - 1, c]
        knots = np.concatenate([knots[: k + 1], [t], knots[k + 1 :]])
        ctrl = out
    return knots, ctrl


class TestKernelsMatchScalarLoops:
    @staticmethod
    def _surfaces(rng):
        for trial in range(24):
            du, dv = (int(x) for x in rng.integers(1, 4, size=2))
            nu, nv = du + int(rng.integers(1, 5)), dv + int(rng.integers(1, 5))
            make_u = uniform_periodic_knots if trial % 2 else uniform_clamped_knots
            make_v = uniform_periodic_knots if trial % 3 == 0 else uniform_clamped_knots
            ku = make_u(du, nu, -0.5, 2.0)
            kv = make_v(dv, nv)
            yield BSplineSurface(ku, kv, rng.normal(size=(nu, nv, 3)))

    def test_deboor_bit_identical(self):
        rng = np.random.default_rng(11)
        for s in self._surfaces(rng):
            u0, u1, v0, v1 = s.param_range
            params = [(u0, v0), (u1, v1), (u0, v1), (u1, v0)]
            params += [(float(rng.uniform(u0, u1)), float(rng.uniform(v0, v1)))
                       for _ in range(20)]
            for u, v in params:
                args = (s.knots_u.knots, s.degree_u, s.knots_v.knots, s.degree_v,
                        s.control_points, u, v)
                assert evaluate(s, u, v).tobytes() == _loop_deboor(*args).tobytes()

    def test_evaluate_equals_deboor_loop(self):
        # Degree 0 in either direction, interior knots of any multiplicity,
        # and nets where a third of the coordinates are 0.0 or -0.0. Where
        # the loop blends with a weight of 0 or 1 the insertion may skip the
        # blend, so a zero may differ in sign; the floats must be equal.
        rng = np.random.default_rng(13)
        zeros = 0

        def knots(degree):
            if rng.random() < 0.25:
                return uniform_periodic_knots(degree, degree + int(rng.integers(1, 4)), -0.5, 2.0)
            inner = np.sort(rng.choice([0.25, 0.5, 0.75], size=int(rng.integers(0, 5))))
            return KnotVector(np.concatenate([np.zeros(degree + 1), inner,
                                              np.ones(degree + 1)]), degree)

        for du, dv in [(0, 0), (0, 2), (3, 0), (1, 1), (2, 3), (0, 1), (2, 0)] * 12:
            ku, kv = knots(du), knots(dv)
            net = rng.normal(size=(ku.count, kv.count, 3))
            pick = rng.random(net.shape)
            net[pick < 1 / 6] = 0.0
            net[pick > 5 / 6] = -0.0
            s = BSplineSurface(ku, kv, net)
            u0, u1, v0, v1 = s.param_range
            us = np.concatenate([[u0, u1], ku.knots[(ku.knots > u0) & (ku.knots < u1)],
                                 rng.uniform(u0, u1, size=3)])
            vs = np.concatenate([[v0, v1], kv.knots[(kv.knots > v0) & (kv.knots < v1)],
                                 rng.uniform(v0, v1, size=3)])
            for u in us.tolist():
                for v in vs.tolist():
                    got = evaluate(s, u, v)
                    want = _loop_deboor(ku.knots, du, kv.knots, dv, s.control_points, u, v)
                    assert np.array_equal(got, want), (du, dv, u, v)
                    zeros += bool((want == 0.0).any())
        assert zeros > 0

    def test_insert_knot_bit_identical(self):
        # Rows with different t and so different spans, t on an existing
        # knot, and t at both ends of the valid range, where an unclamped
        # periodic vector clamps the span to the top control row. The rows
        # go to the kernel one span at a time, the span as the scalar loop
        # finds it; each row must equal the scalar loop on its own.
        rng = np.random.default_rng(12)
        top_row_clamps = 0
        for s in self._surfaces(rng):
            u0, u1, _, _ = s.param_range
            knots = s.knots_u.knots
            inner = knots[(knots > u0) & (knots < u1)]
            t = np.concatenate([rng.uniform(u0, u1, size=6), inner[:2], [u0, u1]])
            flat = s.control_points.reshape(s.control_points.shape[0], -1)
            nets = flat + rng.normal(scale=0.1, size=(t.size,) + flat.shape)
            room = s.degree_u - np.count_nonzero(knots == t[:, None], axis=1)
            spans = np.array([_insert_span(knots, flat, float(x)) for x in t])
            for times in range(1, s.degree_u + 1):
                for k in np.unique(spans[room >= times]).tolist():
                    rows = np.flatnonzero((room >= times) & (spans == k))
                    got_knots, got_nets = _kernels.insert_knot(
                        np.tile(knots, (rows.size, 1)), nets[rows], s.degree_u, t[rows], k,
                        times)
                    for r, g in enumerate(rows.tolist()):
                        expected = _loop_insert_knot(knots, nets[g], s.degree_u, float(t[g]),
                                                     times)
                        assert got_knots[r].tobytes() == expected[0].tobytes()
                        assert got_nets[r].shape == expected[1].shape
                        assert got_nets[r].tobytes() == expected[1].tobytes()
                        top_row_clamps += int(np.count_nonzero(knots <= t[g])) > flat.shape[0]
        assert top_row_clamps > 0


def _loop_split(knots, net, degree, t, axis):
    # One net split at t by the scalar loop: t inserted up to full
    # multiplicity after knot k, the left side ending and the right side
    # starting with degree + 1 copies of t.
    rows = np.moveaxis(net, axis, 0)
    flat = rows.reshape(rows.shape[0], -1)
    times = max(degree - int(np.count_nonzero(knots == t)), 0)
    kn, fl = _loop_insert_knot(knots, flat, degree, t, times)
    k = int(np.count_nonzero(kn <= t)) - 1

    def side(side_knots, side_flat):
        return side_knots, np.moveaxis(side_flat.reshape((-1,) + rows.shape[1:]), 0, axis)

    return (side(np.append(kn[: k + 1], t), fl[: k - degree + 1]),
            side(np.append(np.full(degree + 1, t), kn[k + 1 :]), fl[k - degree :]))


class TestSingleSpanSplit:
    # Batches of single clamped spans [a]*(p+1) + [b]*(p+1) with a < t < b,
    # the nets a subdivision splits almost always, and batches of other
    # single spans, where t may sit on an end knot or the vector may be
    # unclamped. Both must equal the scalar loop by bytes. A quarter of the
    # net coordinates are 0.0 and a quarter -0.0, so signed zeros must come
    # out as the loop makes them.
    SPANS = np.array([[0.0, 1.0], [-0.5, 2.0], [0.25, 0.3], [-3.0, -0.0]])

    @staticmethod
    def _nets(rng, count, rows, axis):
        nets = rng.normal(size=(count, rows, 3, 3))
        zeros = rng.random(nets.shape)
        nets[zeros < 0.25] = 0.0
        nets[zeros > 0.75] = -0.0
        return nets.transpose(0, 2, 1, 3) if axis else nets

    @staticmethod
    def _check_split(knots, nets, degree, t, axis):
        got = _split_net(knots, nets, degree, t, axis)
        seen = np.concatenate([rows for rows, _, _ in got])
        assert sorted(seen.tolist()) == list(range(t.size))
        for rows, *sides in got:
            for r, g in enumerate(rows.tolist()):
                expected = _loop_split(knots[g], nets[g], degree, float(t[g]), axis)
                for (side_knots, side_nets), (want_knots, want_net) in zip(sides, expected):
                    assert side_knots[r].tobytes() == want_knots.tobytes()
                    assert side_nets[r].shape == want_net.shape
                    assert side_nets[r].tobytes() == want_net.tobytes()
        return got

    @staticmethod
    def _check_insert(knots, ctrl, degree, t, times):
        # One kernel call per span, the span as the scalar loop finds it.
        spans = np.array([_insert_span(knots[g], ctrl[g], float(t[g])) for g in range(t.size)])
        for k in np.unique(spans).tolist():
            rows = np.flatnonzero(spans == k)
            got_knots, got_ctrl = _kernels.insert_knot(knots[rows], ctrl[rows], degree, t[rows],
                                                       k, times)
            for r, g in enumerate(rows.tolist()):
                want_knots, want_ctrl = _loop_insert_knot(knots[g], ctrl[g], degree,
                                                          float(t[g]), times)
                assert got_knots[r].tobytes() == want_knots.tobytes()
                assert got_ctrl[r].tobytes() == want_ctrl.tobytes()

    def _single_spans(self, rng, degree, count):
        ends = self.SPANS[rng.integers(0, len(self.SPANS), size=count)]
        a, b = ends[:, 0], ends[:, 1]
        t = a + (b - a) * rng.uniform(0.05, 0.95, size=count)
        # One ulp inside each end, where (t - a)/(b - a) is at its extremes.
        t[0::3] = np.nextafter(a, b)[0::3]
        t[1::3] = np.nextafter(b, a)[1::3]
        return np.repeat(ends, degree + 1, axis=1), t

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_single_spans_match_scalar_loop(self, degree, axis):
        rng = np.random.default_rng(40 + 2 * degree + axis)
        knots, t = self._single_spans(rng, degree, 36)
        nets = self._nets(rng, t.size, degree + 1, axis)
        [(rows, _, _)] = self._check_split(knots, nets, degree, t, axis)
        assert rows.tolist() == list(range(t.size))
        ctrl = np.moveaxis(nets, 1 + axis, 1).reshape(t.size, degree + 1, -1)
        for times in range(1, degree + 2):
            self._check_insert(knots, ctrl, degree, t, times)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_other_batches_match_scalar_loop(self, degree):
        rng = np.random.default_rng(50 + degree)
        count = 12
        # An unclamped single-span vector: as long as a clamped one, but
        # its valid range [-0.5, 2.0] is only its middle span.
        periodic = np.tile(uniform_periodic_knots(degree, degree + 1, -0.5, 2.0).knots,
                           (count, 1))
        assert periodic.shape[1] == 2 * degree + 2
        t = rng.uniform(-0.4, 1.9, size=count)
        t[:2] = np.nextafter(-0.5, 1.0), np.nextafter(2.0, 0.0)
        # Clamped single spans, some split on an end knot.
        clamped, t_clamped = self._single_spans(rng, degree, count)
        t_clamped[::4] = clamped[::4, 0]
        t_clamped[1::4] = clamped[1::4, -1]
        # A second insertion of b into a clamped span divides 0 by 0, in the
        # loop too, so those batches take one insertion.
        for knots, t, most in ((periodic, t, degree), (clamped, t_clamped, 1)):
            for axis in (0, 1):
                nets = self._nets(rng, count, degree + 1, axis)
                self._check_split(knots, nets, degree, t, axis)
            ctrl = self._nets(rng, count, degree + 1, 0).reshape(count, degree + 1, -1)
            for times in range(1, most + 1):
                self._check_insert(knots, ctrl, degree, t, times)
