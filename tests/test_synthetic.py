import numpy as np
import pytest

from sstopo import ConfigurationError, DegenerateCloudError, EmptyInputError
from sstopo.synthetic import (
    Arc,
    Circle,
    SegmentCurve,
    SyntheticSpec,
    curve_from_dict,
    generate_synthetic,
    load_cloud,
    recommended_delta,
    save_cloud,
    spec_from_dict,
)

from corpus import distance_to_curve


class TestSampling:
    def test_unit_circle_point_count_and_radius(self):
        spec = SyntheticSpec(curves=(Circle((0, 0), 1.0),), step=0.02, noise=0.0, seed=0)
        pts, labels = generate_synthetic(spec)
        assert len(pts) == 314  # floor(2*pi / 0.02)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        np.testing.assert_allclose(radii, 1.0, atol=1e-12)
        assert set(labels.tolist()) == {0}

    def test_segment_includes_both_endpoints(self):
        spec = SyntheticSpec(
            curves=(SegmentCurve((0, 0), (1, 0)),), step=0.02, noise=0.0, seed=0
        )
        pts, _ = generate_synthetic(spec)
        assert len(pts) == 51
        np.testing.assert_allclose(pts[0], [0, 0], atol=1e-15)
        np.testing.assert_allclose(pts[-1], [1, 0], atol=1e-12)

    def test_segment_with_non_multiple_length(self):
        spec = SyntheticSpec(
            curves=(SegmentCurve((0, 0), (1.01, 0)),), step=0.02, noise=0.0, seed=0
        )
        pts, _ = generate_synthetic(spec)
        np.testing.assert_allclose(pts[-1], [1.01, 0], atol=1e-12)
        gaps = np.diff(pts[:, 0])
        assert np.all(gaps <= 0.02 + 1e-12)

    def test_arc_sampling(self):
        spec = SyntheticSpec(
            curves=(Arc((0, 0), 2.0, 0.0, np.pi / 2),), step=0.05, noise=0.0, seed=0
        )
        pts, _ = generate_synthetic(spec)
        radii = np.hypot(pts[:, 0], pts[:, 1])
        np.testing.assert_allclose(radii, 2.0, atol=1e-12)
        assert np.all(pts >= -1e-12)  # first quadrant
        np.testing.assert_allclose(pts[-1], [0, 2], atol=1e-9)

    @pytest.mark.parametrize("curve", [
        Circle((0.3, -1.7), 1.3, phase=0.4),
        SegmentCurve((-1.5, 0.25), (3.5, 1.6)),
        Arc((2.0, 1.0), 0.7, 2.5, -1.0),
        Arc((-4.0, 0.0), 3.0, -0.5, 1.9),
    ])
    def test_array_call_equals_scalar_calls(self, curve):
        # generate_synthetic samples each curve in one array call.
        s = np.concatenate([np.linspace(0.0, curve.length, 997),
                            np.random.default_rng(3).uniform(0.0, curve.length, 500)])
        scalar = np.array([curve.point_at(float(si)) for si in s])
        assert scalar.shape == (s.size, 2)
        assert np.array_equal(curve.point_at(s), scalar)

    def test_noise_bounded_by_distance_oracle(self):
        curves = (Circle((0, 0), 1.0), SegmentCurve((2, 0), (4, 1)))
        spec = SyntheticSpec(curves=curves, step=0.02, noise=0.01, seed=5)
        pts, labels = generate_synthetic(spec)
        for p, lab in zip(pts, labels):
            assert distance_to_curve(p, curves[lab]) <= 0.01 + 1e-12

    def test_determinism(self):
        spec = SyntheticSpec(curves=(Circle((0, 0), 1.0),), step=0.02, noise=0.01, seed=9)
        a, _ = generate_synthetic(spec)
        b, _ = generate_synthetic(spec)
        assert np.array_equal(a, b)
        c, _ = generate_synthetic(
            SyntheticSpec(curves=(Circle((0, 0), 1.0),), step=0.02, noise=0.01, seed=10)
        )
        assert not np.array_equal(a, c)

    def test_zero_step_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic(SyntheticSpec(curves=(Circle((0, 0), 1.0),), step=0.0, seed=0))

    @pytest.mark.parametrize("field", ["step", "noise"])
    def test_nan_step_or_noise_rejected(self, field):
        spec = SyntheticSpec(curves=(Circle((0, 0), 1.0),), seed=0, **{field: float("nan")})
        with pytest.raises(ConfigurationError):
            generate_synthetic(spec)

    def test_empty_curves_rejected(self):
        with pytest.raises(EmptyInputError):
            generate_synthetic(SyntheticSpec(curves=(), seed=0))

    def test_recommended_delta(self):
        assert recommended_delta(0.02, 0.01) == pytest.approx(0.08)


class TestCloudIO:
    def test_round_trip_with_labels(self, tmp_path):
        pts = np.array([[0.125, -3.5], [1.0, 2.0]])
        labels = np.array([0, 1])
        path = tmp_path / "cloud.txt"
        save_cloud(path, pts, labels)
        got_pts, got_labels = load_cloud(path)
        assert np.array_equal(got_pts, pts)
        assert np.array_equal(got_labels, labels)

    def test_round_trip_without_labels(self, tmp_path):
        pts = np.array([[0.1, 0.2]])
        path = tmp_path / "cloud.txt"
        save_cloud(path, pts)
        got_pts, got_labels = load_cloud(path)
        assert np.array_equal(got_pts, pts)
        assert got_labels is None

    @pytest.mark.parametrize("text, line", [
        ("0 0\n1\n", 2),
        ("0 0 0\n1 1\n2 2 0\n", 2),
        ("0 0\n\n1 1 0\n", 3),
        ("0 0\n1 one\n", 2),
        ("0 0 0\n1 1 x\n", 2),
        ("0 0 0 0\n", 1),
    ])
    def test_malformed_line_named(self, tmp_path, text, line):
        path = tmp_path / "cloud.txt"
        path.write_text(text)
        with pytest.raises(DegenerateCloudError, match=f"line {line}:"):
            load_cloud(path)

    def test_spec_from_dict(self):
        data = {
            "step": 0.05,
            "noise": 0.0,
            "seed": 3,
            "curves": [
                {"kind": "circle", "center": [0, 0], "radius": 1},
                {"kind": "segment", "start": [0, 0], "end": [1, 1]},
                {"kind": "arc", "center": [0, 0], "radius": 2,
                 "angle_start": 0, "angle_end": 1.5},
            ],
        }
        spec = spec_from_dict(data)
        assert spec.step == 0.05 and spec.seed == 3
        assert isinstance(spec.curves[0], Circle)
        assert isinstance(spec.curves[1], SegmentCurve)
        assert isinstance(spec.curves[2], Arc)

    @pytest.mark.parametrize("data", [[1], 1, "spec", None, {"curves": [1]},
                                      {"curves": ["circle"]}, {"curves": 5},
                                      {"curves": {"kind": "circle"}}])
    def test_non_object_spec_or_curve_rejected(self, data):
        with pytest.raises(ConfigurationError, match="must be"):
            spec_from_dict(data)

    @pytest.mark.parametrize("field", ["step", "noise"])
    @pytest.mark.parametrize("value", [[1], "x", None, float("inf"), float("nan")])
    def test_non_numeric_step_or_noise_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be a finite number"):
            spec_from_dict({field: value, "curves": []})

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, "3", -1, None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            spec_from_dict({"seed": seed, "curves": []})
        if seed is not None:  # None means "no override"
            with pytest.raises(ConfigurationError, match="seed"):
                spec_from_dict({"curves": []}, seed_override=seed)

    def test_integer_seeds_accepted(self):
        assert spec_from_dict({"seed": 7}).seed == 7
        spec = spec_from_dict({"seed": 7}, seed_override=np.int64(4))
        assert spec.seed == 4 and type(spec.seed) is int

    def test_unknown_curve_kind(self):
        with pytest.raises(ConfigurationError):
            curve_from_dict({"kind": "spiral"})


class TestCurveValidation:
    @pytest.mark.parametrize("data", [
        {"kind": "circle", "center": [0, 0], "radius": 0},
        {"kind": "circle", "center": [0, 0], "radius": -1},
        {"kind": "circle", "center": [0, 0], "radius": float("nan")},
        {"kind": "circle", "center": [0, 0], "radius": float("inf")},
        {"kind": "circle", "center": ["a", 0], "radius": 1},
        {"kind": "circle", "center": [0, float("inf")], "radius": 1},
        {"kind": "circle", "center": [0], "radius": 1},
        {"kind": "circle", "center": [0, 0]},
        {"kind": "segment", "start": [1, 2], "end": [1, 2]},
        {"kind": "segment", "start": [0, 0], "end": [float("nan"), 1]},
        {"kind": "arc", "center": [0, 0], "radius": 1, "angle_start": 1, "angle_end": 1},
        {"kind": "arc", "center": [0, 0], "radius": 0, "angle_start": 0, "angle_end": 1},
        {"kind": "arc", "center": [0, 0], "radius": 1, "angle_start": 0,
         "angle_end": float("nan")},
    ])
    def test_degenerate_curve_rejected(self, data):
        with pytest.raises(ConfigurationError):
            curve_from_dict(data)

    def test_dataclasses_validate(self):
        with pytest.raises(ConfigurationError):
            Circle((0, 0), 0.0)
        with pytest.raises(ConfigurationError):
            SegmentCurve((0, 0), (0.0, 0.0))
        with pytest.raises(ConfigurationError):
            Arc((0, 0), 1.0, 0.5, 0.5)
