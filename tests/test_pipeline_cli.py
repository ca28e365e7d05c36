import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import sstopo
import sstopo.pipeline
from sstopo import (
    BoundarySpec,
    BSplineSurface,
    ConfigurationError,
    DegenerateCloudError,
    PipelineConfig,
    ResultDocument,
    result_digest,
    run_mapper_only,
    run_pipeline,
    save_surface,
    sweep_theta,
    uniform_clamped_knots,
)
from sstopo.cli import main
from sstopo.geometry import surface_to_dict
from sstopo.partition import KIND_CLOSED, KIND_ISOLATED, KIND_OPEN
from sstopo.synthetic import (
    generate_synthetic,
    load_cloud,
    recommended_delta,
    save_cloud,
    spec_from_dict,
)

from corpus import (
    STEP,
    NOISE,
    noisy_circle_cloud,
    performance_cloud,
    plane_patch,
    saddle_patch,
    three_curves_cloud,
)

DELTA = recommended_delta(STEP, NOISE)


@pytest.fixture(scope="module")
def crossed_doc():
    return run_pipeline(PipelineConfig(epsilon=0.02), plane_patch(), saddle_patch())


class TestRunPipeline:
    def test_disjoint_surfaces_flagged(self):
        doc = run_pipeline(
            PipelineConfig(epsilon=0.05), plane_patch(), plane_patch(shift=(9, 9, 9))
        )
        assert doc.no_intersection
        assert doc.domains == []
        assert doc.match is None

    def test_crossed_planes_topology(self, crossed_doc):
        doc = crossed_doc
        assert not doc.no_intersection
        assert len(doc.domains) == 2
        for dom in doc.domains:
            assert len(dom.characteristic.singular_nodes) == 1
            (sid,) = dom.characteristic.singular_nodes
            assert dom.graph.degrees()[sid] == 4
            assert dom.partition.segment_kinds() == [KIND_OPEN] * 4
        assert len(doc.match.pairs) == 4
        # bijective matching
        assert len({a for a, _, _ in doc.match.pairs}) == 4
        assert len({b for _, b, _ in doc.match.pairs}) == 4

    def test_timings_structure(self, crossed_doc):
        t = crossed_doc.timings
        assert set(t) == {"initial", "subdivision", "total", "surface_subdivision"}
        assert all(v >= 0 for v in t.values())

    def test_delta_is_at_least_four_hausdorff_bounds(self, crossed_doc):
        doc = crossed_doc
        b1, b2 = doc.extras["hausdorff_bound"]
        assert doc.domains[0].delta >= 4 * b1 - 1e-15
        assert doc.domains[1].delta >= 4 * b2 - 1e-15

    def test_emitted_files(self, tmp_path):
        cfg = PipelineConfig(
            epsilon=0.03,
            out_dir=str(tmp_path),
            emit_graph=True,
            emit_svg=True,
            dump_boxes=True,
        )
        doc = run_pipeline(cfg, plane_patch(), saddle_patch())
        assert (tmp_path / "result.json").exists()
        assert (tmp_path / "boxes.json").exists()
        for dom in doc.domains:
            gml = (tmp_path / f"graph_{dom.name}.gml").read_text()
            assert gml.count("node [") == dom.graph.node_count
            assert gml.count("edge [") == dom.graph.edge_count
            assert "directed 0" in gml
            svg = (tmp_path / f"points_{dom.name}.svg").read_text()
            assert svg.count("<circle") == dom.points.shape[0]

    def test_result_document_round_trip(self, crossed_doc, tmp_path):
        data = crossed_doc.to_dict()
        rebuilt = ResultDocument.from_dict(data)
        assert rebuilt.to_dict() == data
        path = tmp_path / "result.json"
        crossed_doc.save(path)
        loaded = ResultDocument.load(path)
        assert loaded.to_dict() == data

    def test_determinism_digest(self):
        cfg = PipelineConfig(epsilon=0.03)
        d1 = run_pipeline(cfg, plane_patch(), saddle_patch())
        d2 = run_pipeline(cfg, plane_patch(), saddle_patch())
        assert result_digest(d1) == result_digest(d2)

    def test_overlap_flag_propagates(self):
        doc = run_pipeline(PipelineConfig(epsilon=0.1), plane_patch(), plane_patch())
        assert doc.overlap_suspected

    def test_delta_override_used(self):
        doc = run_pipeline(
            PipelineConfig(epsilon=0.02, delta_override=0.07),
            plane_patch(),
            saddle_patch(),
        )
        assert doc.domains[0].delta == 0.07
        assert doc.domains[1].delta == 0.07

    def test_non_unit_parameter_domains(self):
        # same crossed-planes geometry but over [0,2] x [-1,1] domains
        ku = uniform_clamped_knots(1, 2, 0.0, 2.0)
        kv = uniform_clamped_knots(1, 2, -1.0, 1.0)
        plane = BSplineSurface(
            ku, kv, np.array([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]], float)
        )
        saddle = BSplineSurface(
            ku, kv,
            np.array([[[0, 0, 0.25], [0, 1, -0.25]], [[1, 0, -0.25], [1, 1, 0.25]]], float),
        )
        doc = run_pipeline(PipelineConfig(epsilon=0.04), plane, saddle)
        for dom in doc.domains:
            assert len(dom.characteristic.singular_nodes) == 1
            assert dom.partition.segment_kinds() == [KIND_OPEN] * 4
        assert len(doc.match.pairs) == 4


class TestRunMapperOnly:
    def test_requires_delta(self):
        with pytest.raises(ConfigurationError):
            run_mapper_only(PipelineConfig(), np.zeros((3, 2)))

    def test_noisy_circle_cycle(self):
        pts, _ = noisy_circle_cloud(seed=7)
        doc = run_mapper_only(PipelineConfig(delta_override=DELTA), pts)
        dom = doc.domains[0]
        comps = dom.graph.connected_components()
        assert len(comps) == 1
        assert dom.graph.edge_count - dom.graph.node_count + len(comps) == 1
        assert dom.partition.segment_kinds() == [KIND_CLOSED]

    def test_three_curves_components(self):
        pts, _ = three_curves_cloud(seed=3)
        doc = run_mapper_only(PipelineConfig(delta_override=DELTA), pts)
        dom = doc.domains[0]
        assert len(dom.graph.connected_components()) == 3
        assert len(dom.partition.segments) == 3

    def test_single_point_isolated(self):
        doc = run_mapper_only(PipelineConfig(delta_override=0.1), np.array([[0.5, 0.5]]))
        assert doc.domains[0].partition.segment_kinds() == [KIND_ISOLATED]

    def test_empty_cloud_reports_no_intersection(self):
        doc = run_mapper_only(PipelineConfig(delta_override=0.1), np.empty((0, 2)))
        assert doc.no_intersection
        assert doc.domains == []
        assert set(doc.timings) == {"initial", "subdivision", "total"}

    @pytest.mark.parametrize("n", [255, 300])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cloud_rejected(self, n, bad):
        pts = np.random.default_rng(n).uniform(0, 1, (n, 2))
        pts[n // 2, 1] = bad
        with pytest.raises(DegenerateCloudError, match="finite"):
            run_mapper_only(PipelineConfig(delta_override=0.1), pts)

    def test_runs_leave_scipy_unloaded(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import sstopo\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            "t = np.linspace(0.0, 1.0, 600)\n"
            "doc = sstopo.run_mapper_only(sstopo.PipelineConfig(delta_override=0.05),\n"
            "                             np.column_stack([t, 0.5 * t]))\n"
            "assert doc.domains[0].partition.segment_kinds() == ['open']\n"
            "assert 'scipy' not in sys.modules, 'run_mapper_only'\n"
            "kv = sstopo.uniform_clamped_knots(1, 2)\n"
            "plane = sstopo.BSplineSurface(kv, kv, np.array(\n"
            "    [[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]], dtype=float))\n"
            "saddle = sstopo.BSplineSurface(kv, kv, np.array(\n"
            "    [[[0, 0, 0.25], [0, 1, -0.25]], [[1, 0, -0.25], [1, 1, 0.25]]], dtype=float))\n"
            "doc = sstopo.run_pipeline(sstopo.PipelineConfig(epsilon=0.05), plane, saddle)\n"
            "assert not doc.no_intersection\n"
            "print('scipy' in sys.modules)\n"
        )
        src = Path(sstopo.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.strip() == "False"

    def test_bounds_enable_boundary_classification(self):
        delta = recommended_delta(STEP, 0.0)
        xs = np.arange(0.0, 1.00001, STEP)
        cloud = np.column_stack([xs, np.full_like(xs, 0.5)])
        bounds = BoundarySpec(0.0, 1.0, 0.0, 1.0)
        doc = run_mapper_only(
            PipelineConfig(delta_override=delta), cloud, bounds=bounds
        )
        dom = doc.domains[0]
        assert len(dom.characteristic.boundary_nodes) >= 2
        assert dom.partition.segment_kinds() == [KIND_OPEN]


INVARIANCE_CLOUDS = [("three-curve", s) for s in range(6)] + [("6k", s) for s in (11, 3, 100, 108)]


@functools.lru_cache(maxsize=None)
def _invariance_cloud(name, noise_seed):
    """The cloud, its clustering radius and its sorted segment kinds."""
    if name == "three-curve":
        pts, _ = three_curves_cloud(seed=noise_seed)
        delta = DELTA
    else:
        pts, _, step = performance_cloud(6000, noise_seed)
        delta = recommended_delta(step, NOISE)
    return pts, delta, _segment_kinds(pts, delta)


def _segment_kinds(points, delta):
    doc = run_mapper_only(PipelineConfig(delta_override=delta), points)
    return sorted(doc.domains[0].partition.segment_kinds())


class TestMapperInvariance:
    # The segments describe the cloud's shape, so neither the order of its
    # points nor where it sits in the plane may change their kinds or count.
    @seed(7051)
    @settings(max_examples=48, deadline=None, database=None)
    @given(st.sampled_from(INVARIANCE_CLOUDS), st.integers(0, 2**32 - 1))
    def test_point_permutation(self, case, perm_seed):
        pts, delta, expected = _invariance_cloud(*case)
        order = np.random.default_rng(perm_seed).permutation(len(pts))
        assert _segment_kinds(pts[order], delta) == expected

    @seed(7052)
    @settings(max_examples=48, deadline=None, database=None)
    @given(st.sampled_from(INVARIANCE_CLOUDS),
           st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_translation(self, case, offset):
        pts, delta, expected = _invariance_cloud(*case)
        assert _segment_kinds(pts + np.array(offset), delta) == expected


class TestSweep:
    def test_singleton_list(self):
        pts, _ = three_curves_cloud(seed=3)
        report = sweep_theta(PipelineConfig(delta_override=DELTA), [0.2], cloud=pts)
        assert len(report["entries"]) == 1
        entry = report["entries"][0]
        assert entry["theta_ov"] == 0.2
        assert entry["nodes"] > 0 and entry["edges"] > 0 and entry["seconds"] >= 0

    def test_out_of_range_theta_rejected(self):
        pts, _ = three_curves_cloud(seed=3)
        with pytest.raises(ConfigurationError):
            sweep_theta(PipelineConfig(delta_override=DELTA), [0.5], cloud=pts)
        with pytest.raises(ConfigurationError):
            sweep_theta(PipelineConfig(delta_override=DELTA), [0.0], cloud=pts)

    def test_node_count_trend(self):
        pts, _ = three_curves_cloud(seed=3)
        report = sweep_theta(
            PipelineConfig(delta_override=DELTA), [0.1, 0.2, 0.3, 0.4], cloud=pts
        )
        nodes = [e["nodes"] for e in report["entries"]]
        inversions = sum(1 for a, b in zip(nodes, nodes[1:]) if b < a)
        assert inversions <= 1

    @pytest.fixture
    def subdivision_calls(self, monkeypatch):
        calls = []
        original = sstopo.pipeline.intersect_surfaces

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(sstopo.pipeline, "intersect_surfaces", counting)
        return calls

    def test_surfaces_subdivide_once(self, subdivision_calls):
        surfaces = (plane_patch(), saddle_patch())
        config = PipelineConfig(epsilon=0.05)
        thetas = [0.1, 0.2, 0.3, 0.4]
        report = sweep_theta(config, thetas, surfaces=surfaces)
        assert len(subdivision_calls) == 1
        assert [e["theta_ov"] for e in report["entries"]] == thetas
        for theta, entry in zip(thetas, report["entries"]):
            doc = run_pipeline(dataclasses.replace(config, theta_ov=theta), *surfaces)
            assert entry["nodes"] == sum(d.graph.node_count for d in doc.domains)
            assert entry["edges"] == sum(d.graph.edge_count for d in doc.domains)

    def test_bad_theta_rejected_before_subdivision(self, subdivision_calls):
        with pytest.raises(ConfigurationError):
            sweep_theta(PipelineConfig(epsilon=0.05), [0.2, 0.5],
                        surfaces=(plane_patch(), saddle_patch()))
        assert subdivision_calls == []

    def test_requires_exactly_one_input(self):
        pts, _ = three_curves_cloud(seed=3)
        with pytest.raises(ConfigurationError):
            sweep_theta(PipelineConfig(delta_override=DELTA), [0.2])
        with pytest.raises(ConfigurationError):
            sweep_theta(
                PipelineConfig(delta_override=DELTA),
                [0.2],
                cloud=pts,
                surfaces=(plane_patch(), saddle_patch()),
            )


class TestConfigValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(epsilon=0.0)

    def test_bad_theta(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(theta_ov=0.5)

    def test_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(alpha=-1.0)

    @pytest.mark.parametrize("field", ["epsilon", "alpha", "delta_override"])
    def test_nan_rejected(self, field):
        with pytest.raises(ConfigurationError):
            PipelineConfig(**{field: float("nan")})


class TestCli:
    def test_intersect_command(self, tmp_path, capsys):
        s1 = tmp_path / "s1.json"
        s2 = tmp_path / "s2.json"
        save_surface(s1, plane_patch())
        save_surface(s2, saddle_patch())
        out = tmp_path / "out"
        rc = main(
            [
                "intersect", str(s1), str(s2),
                "--epsilon", "0.03",
                "--out-dir", str(out),
                "--emit-graph", "--emit-svg",
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "domain uv" in captured and "domain st" in captured
        assert "Initial" in captured and "Subdivision" in captured and "Total" in captured
        assert (out / "result.json").exists()
        assert (out / "graph_uv.gml").exists()
        assert (out / "points_st.svg").exists()

    def test_synth_then_mapper(self, tmp_path, capsys):
        spec = {
            "step": 0.02,
            "noise": 0.01,
            "seed": 7,
            "curves": [{"kind": "circle", "center": [0, 0], "radius": 1.0}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["synth", str(spec_path), "--out-dir", str(tmp_path)])
        assert rc == 0
        cloud_path = tmp_path / "cloud.txt"
        assert cloud_path.exists()
        rc = main(
            ["mapper", str(cloud_path), "--delta", str(DELTA), "--out-dir",
             str(tmp_path / "m")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "closed" in out

    def test_synth_uses_spec_seed(self, tmp_path, capsys):
        spec = {
            "step": 0.05,
            "noise": 0.01,
            "seed": 7,
            "curves": [{"kind": "circle", "center": [0, 0], "radius": 1.0}],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["synth", str(spec_path), "--out-dir", str(tmp_path)]) == 0
        written, _ = load_cloud(tmp_path / "cloud.txt")
        expected, _ = generate_synthetic(spec_from_dict(spec))
        assert np.array_equal(written, expected)
        assert main(["synth", str(spec_path), "--out-dir", str(tmp_path), "--seed", "8"]) == 0
        reseeded, _ = load_cloud(tmp_path / "cloud.txt")
        assert not np.array_equal(reseeded, expected)

    def test_synth_rejects_pipeline_flags(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["synth", str(tmp_path / "spec.json"), "--epsilon", "0.1"])

    def test_mapper_empty_cloud_reports_no_intersection(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("")
        rc = main(["mapper", str(p), "--delta", "0.1"])
        assert rc == 0
        assert "no intersection" in capsys.readouterr().out

    def test_sweep_command(self, tmp_path, capsys):
        pts, _ = three_curves_cloud(seed=3)
        cloud_path = tmp_path / "cloud.txt"
        save_cloud(cloud_path, pts)
        rc = main(
            ["sweep", str(cloud_path), "--thetas", "0.1,0.3", "--delta", str(DELTA),
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("theta_ov=") == 2
        assert (tmp_path / "sweep.json").exists()

    def test_mapper_with_bounds(self, tmp_path, capsys):
        delta = recommended_delta(STEP, 0.0)
        xs = np.arange(0.0, 1.00001, STEP)
        cloud_path = tmp_path / "line.txt"
        save_cloud(cloud_path, np.column_stack([xs, np.full_like(xs, 0.5)]))
        rc = main(
            ["mapper", str(cloud_path), "--delta", str(delta),
             "--bounds", "0", "1", "0", "1"]
        )
        assert rc == 0
        assert "open" in capsys.readouterr().out

    def test_bounds_without_delta_rejected(self, tmp_path, capsys):
        p = tmp_path / "line.txt"
        save_cloud(p, np.array([[0.5, 0.5]]))
        rc = main(["mapper", str(p), "--bounds", "0", "1", "0", "1"])
        assert rc == 2
        assert "delta" in capsys.readouterr().err

    def test_error_exit_code(self, tmp_path, capsys):
        pts, _ = three_curves_cloud(seed=3)
        cloud_path = tmp_path / "cloud.txt"
        save_cloud(cloud_path, pts)
        rc = main(["mapper", str(cloud_path)])  # missing --delta
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["mapper", str(tmp_path / "nope.txt"), "--delta", "0.1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["0 0\n1\n", "0 0 0\n1 1\n2 2 0\n"])
    def test_mapper_rejects_malformed_cloud(self, tmp_path, capsys, text):
        p = tmp_path / "f.txt"
        p.write_text(text)
        rc = main(["mapper", str(p), "--delta", "0.1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2:" in err

    @pytest.mark.parametrize("curve", [
        {"kind": "circle", "center": [0, 0], "radius": 0},
        {"kind": "circle", "center": [0, 0], "radius": -1},
        {"kind": "circle", "center": ["a", 0], "radius": 1},
        {"kind": "segment", "start": [0, 0], "end": [0, 0]},
    ])
    def test_synth_rejects_degenerate_curve(self, tmp_path, capsys, curve):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"curves": [curve]}))
        rc = main(["synth", str(spec_path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "cloud.txt").exists()

    @pytest.mark.parametrize("spec", [
        [1],
        {"curves": [1]},
        {"curves": {"kind": "circle", "center": [0, 0], "radius": 1}},
        {"seed": 1.5, "curves": [{"kind": "circle", "center": [0, 0], "radius": 1}]},
        {"seed": True, "curves": [{"kind": "circle", "center": [0, 0], "radius": 1}]},
        {"step": [1], "curves": [{"kind": "circle", "center": [0, 0], "radius": 1}]},
    ])
    def test_synth_rejects_malformed_spec(self, tmp_path, capsys, spec):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        rc = main(["synth", str(spec_path), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "cloud.txt").exists()

    def test_sweep_rejects_three_inputs(self, tmp_path, capsys):
        p = tmp_path / "x.txt"
        p.write_text("0 0\n")
        rc = main(["sweep", str(p), str(p), str(p), "--delta", "0.1"])
        assert rc == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_intersect_rejects_non_finite_surface(self, tmp_path, capsys, bad):
        data = surface_to_dict(plane_patch())
        data["control_points"][0][1][2] = bad
        s1 = tmp_path / "a.json"
        s2 = tmp_path / "b.json"
        s1.write_text(json.dumps(data))
        save_surface(s2, saddle_patch())
        rc = main(["intersect", str(s1), str(s2), "--epsilon", "0.05"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("change", [
        lambda d: [d],
        lambda d: {k: v for k, v in d.items() if k != "knots_u"},
        lambda d: {**d, "degree_u": 1.7},
        lambda d: {**d, "periodic_u": "no"},
        lambda d: {**d, "knots_u": {"a": 1}},
        lambda d: {**d, "knots_u": [0.0, 0.0, 1.0, 0.5]},
    ], ids=["list", "no-knots_u", "fractional-degree", "string-periodic", "object-knots",
            "decreasing-knots"])
    def test_intersect_rejects_malformed_surface(self, tmp_path, capsys, change):
        s1 = tmp_path / "a.json"
        s2 = tmp_path / "b.json"
        s1.write_text(json.dumps(change(surface_to_dict(plane_patch()))))
        save_surface(s2, saddle_patch())
        rc = main(["intersect", str(s1), str(s2), "--epsilon", "0.05"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_intersect_rejects_nan_epsilon(self, tmp_path, capsys):
        s1 = tmp_path / "a.json"
        s2 = tmp_path / "b.json"
        save_surface(s1, plane_patch())
        save_surface(s2, saddle_patch())
        rc = main(["intersect", str(s1), str(s2), "--epsilon", "nan"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: epsilon must be positive")

    @pytest.mark.parametrize("flag", ["--emit-graph", "--emit-svg", "--dump-boxes"])
    def test_sweep_rejects_output_flags(self, tmp_path, capsys, flag):
        p = tmp_path / "x.txt"
        p.write_text("0 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(p), "--delta", "0.1", flag])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--epsilon", "0.05"], ["--dump-boxes"]])
    def test_mapper_rejects_subdivision_flags(self, tmp_path, capsys, flags):
        p = tmp_path / "x.txt"
        p.write_text("0 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["mapper", str(p), "--delta", "0.1", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err

    def test_intersect_disjoint_reports_no_intersection(self, tmp_path, capsys):
        s1 = tmp_path / "a.json"
        s2 = tmp_path / "b.json"
        save_surface(s1, plane_patch())
        save_surface(s2, plane_patch(shift=(7, 7, 7)))
        rc = main(["intersect", str(s1), str(s2), "--epsilon", "0.05"])
        assert rc == 0
        assert "no intersection" in capsys.readouterr().out
