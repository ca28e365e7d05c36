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
import sstopo.cli
import sstopo.pipeline
from sstopo import (
    BSplineSurface,
    ConfigurationError,
    DegenerateCloudError,
    KnotVector,
    MapperParams,
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
from sstopo.exports import SEGMENT_PALETTE, write_svg
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
    assert_edge_record,
    assert_id_array,
    brute_force_clusters,
    cylinder_patch,
    noisy_circle_cloud,
    paraboloid_patch,
    performance_cloud,
    plane_patch,
    saddle_patch,
    three_curves_cloud,
    wrinkle_patch,
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

    def test_net_just_below_the_overflow_bound_runs_clean(self):
        # Scaled up to just below 2**1023, the pair reads as it does at unit
        # size; under the suite's filterwarnings = error, an overflow
        # anywhere in the run would raise.
        small = (plane_patch(), saddle_patch())
        scale = 2.0**1023 * (1 - 2.0**-40) / max(np.abs(s.control_points).max() for s in small)
        big = [BSplineSurface(s.knots_u, s.knots_v, s.control_points * scale) for s in small]
        assert max(np.abs(s.control_points).max() for s in big) < 2.0**1023
        want = run_pipeline(PipelineConfig(epsilon=0.05), *small)
        got = run_pipeline(PipelineConfig(epsilon=0.05), *big)
        assert len(got.domains) == 2
        assert ([d.partition.segment_kinds() for d in got.domains]
                == [d.partition.segment_kinds() for d in want.domains])

    @pytest.mark.parametrize("epsilon", [0.02, 0.005])
    def test_knots_just_below_their_bound_run_clean(self, epsilon):
        # Every knot and epsilon scaled by 2**479, just below the knot bound:
        # the pair reads as it does at unit size. Under the suite's
        # filterwarnings = error, an overflow anywhere in the run would
        # raise; at 2**509 the finer run's PCA sums overflowed.
        def scaled(s):
            return BSplineSurface(KnotVector(s.knots_u.knots * 2.0**479, s.knots_u.degree),
                                  KnotVector(s.knots_v.knots * 2.0**479, s.knots_v.degree),
                                  s.control_points)

        small = (plane_patch(), saddle_patch())
        want = run_pipeline(PipelineConfig(epsilon=epsilon), *small)
        got = run_pipeline(PipelineConfig(epsilon=epsilon * 2.0**479), *map(scaled, small))
        assert len(got.domains) == 2
        assert ([d.partition.segment_kinds() for d in got.domains]
                == [d.partition.segment_kinds() for d in want.domains]
                == [[KIND_OPEN] * 4] * 2)
        assert got.match.pairs == want.match.pairs

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
        for got, want in zip(loaded.domains, crossed_doc.domains):
            assert_edge_record(got.graph.edges)
            assert np.array_equal(got.graph.edges, want.graph.edges)
            assert len(got.partition.segments) == len(want.partition.segments)
            pairs = [(got.characteristic.boundary_nodes, want.characteristic.boundary_nodes),
                     (got.characteristic.singular_nodes, want.characteristic.singular_nodes),
                     (got.partition.removed_boundary_points,
                      want.partition.removed_boundary_points),
                     (got.partition.removed_singular_points,
                      want.partition.removed_singular_points)]
            for a, b in zip(got.partition.segments, want.partition.segments):
                assert a.kind == b.kind
                pairs += [(a.point_indices, b.point_indices), (a.node_ids, b.node_ids)]
            for a, b in pairs:
                assert_id_array(a)
                assert_id_array(b)
                assert np.array_equal(a, b)

    def test_loaded_edges_are_the_nodes_shared_pairs(self, crossed_doc, tmp_path):
        # A file whose edges disagree with its nodes (one pair dropped, one
        # added) loads with the edges its nodes realize.
        data = crossed_doc.to_dict()
        edges = data["domains"][0]["graph"]["edges"]
        first = edges[0][0]
        missing = next(b for b in range(first + 1, len(crossed_doc.domains[0].graph.nodes))
                       if [first, b] not in edges)
        data["domains"][0]["graph"]["edges"] = edges[1:] + [[first, missing]]
        path = tmp_path / "result.json"
        path.write_text(json.dumps(data))
        loaded = ResultDocument.load(path)
        for got, want in zip(loaded.domains, crossed_doc.domains):
            assert_edge_record(got.graph.edges)
            assert np.array_equal(got.graph.edges, want.graph.edges)
        assert loaded.to_dict() == crossed_doc.to_dict()
        assert result_digest(loaded) == result_digest(crossed_doc)

    def test_loaded_singular_nodes_are_the_graphs(self, crossed_doc, tmp_path):
        # A file whose singular set disagrees with its graph (the crossing's
        # node dropped, a degree-two node added) loads with the graph's.
        data = crossed_doc.to_dict()
        for dom, want in zip(data["domains"], crossed_doc.domains):
            assert dom["singular_nodes"]
            regular = np.flatnonzero(want.graph.degrees() == 2)[0]
            dom["singular_nodes"] = dom["singular_nodes"][1:] + [int(regular)]
        path = tmp_path / "result.json"
        path.write_text(json.dumps(data))
        loaded = ResultDocument.load(path)
        for got, want in zip(loaded.domains, crossed_doc.domains):
            assert_id_array(got.characteristic.singular_nodes)
            assert np.array_equal(got.characteristic.singular_nodes, want.graph.singular_nodes)
            assert np.array_equal(got.characteristic.singular_nodes,
                                  want.characteristic.singular_nodes)
        assert loaded.to_dict() == crossed_doc.to_dict()
        assert result_digest(loaded) == result_digest(crossed_doc)

    def test_loaded_negative_and_huge_point_ids_pair_as_sets(self, crossed_doc, tmp_path):
        # Nothing bounds a loaded node's point ids; ids far apart or below 0
        # still give the edges of the sets they name.
        data = crossed_doc.to_dict()
        nodes = data["domains"][0]["graph"]["nodes"]
        count = len(nodes)
        for points in ([-3, 5], [-3, 2**40], [2**40, 2**62]):
            nodes.append({"id": len(nodes), "points": points, "intervals": [], "refined": False})
        path = tmp_path / "result.json"
        path.write_text(json.dumps(data))
        graph = ResultDocument.load(path).domains[0].graph
        assert_edge_record(graph.edges)
        sets = [set(n["points"]) for n in nodes]
        want = [[a, b] for a in range(len(sets)) for b in range(a + 1, len(sets))
                if sets[a] & sets[b]]
        assert graph.edges.tolist() == want
        assert [count, count + 1] in want and [count + 1, count + 2] in want

    def test_saved_document_is_one_unindented_dump(self, crossed_doc, tmp_path):
        # No indent, so CPython encodes the document with its C encoder.
        path = tmp_path / "result.json"
        crossed_doc.save(path)
        assert path.read_bytes() == json.dumps(crossed_doc.to_dict()).encode("utf-8")
        assert result_digest(ResultDocument.load(path)) == result_digest(crossed_doc)

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


def _svg_by_point_loop(points, colors, size=640):
    """The SVG that `write_svg` wrote when it formatted one point at a time."""
    points = np.asarray(points, dtype=np.float64)
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    pad = 0.05 * float(span.max())
    lo = lo - pad
    span = span + 2 * pad
    scale = size / float(span.max())
    width = span[0] * scale
    height = span[1] * scale
    radius = max(1.5, 0.004 * size)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">',
        f'<rect width="{width:.1f}" height="{height:.1f}" fill="white"/>',
    ]
    for (x, y), color in zip(points, colors):
        cx = (x - lo[0]) * scale
        cy = height - (y - lo[1]) * scale
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{radius:.2f}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class TestSvg:
    @pytest.mark.parametrize("offset", [(0.0, 0.0), (-3.7e6, 2.9e7), (-1e9, -1e9)])
    def test_bytes_match_point_loop(self, tmp_path, offset):
        rng = np.random.default_rng(17)
        points = np.concatenate([
            rng.normal(scale=[250.0, 40.0], size=(300, 2)),
            [[-1e4, 0.0], [3e4, -2e3], [0.0, 1e-7]],
        ]) + offset
        colors = [SEGMENT_PALETTE[i % len(SEGMENT_PALETTE)] for i in range(len(points))]
        path = tmp_path / "points.svg"
        write_svg(path, points, colors)
        assert path.read_bytes() == _svg_by_point_loop(points, colors).encode("utf-8")

    def test_empty_cloud_draws_the_unit_box(self, tmp_path):
        # No points: the plot spans [0, 1]^2 padded by 5 %, so it is square.
        path = tmp_path / "points.svg"
        write_svg(path, np.empty((0, 2)), [])
        assert path.read_text() == (
            '<svg xmlns="http://www.w3.org/2000/svg" width="640.0" height="640.0" '
            'viewBox="0 0 640.0 640.0">\n'
            '<rect width="640.0" height="640.0" fill="white"/>\n'
            "</svg>\n")


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

    def test_document_holds_a_copy_of_the_cloud(self):
        pts, _ = noisy_circle_cloud(seed=7)
        doc = run_mapper_only(PipelineConfig(delta_override=DELTA), pts)
        digest = result_digest(doc)
        held = doc.domains[0].points
        pts[0] = (99.0, 99.0)
        assert result_digest(doc) == digest
        assert not np.shares_memory(held, pts)
        assert held.dtype == np.float64 and not held.flags.writeable

    def test_huge_finite_alpha(self):
        # (1 + alpha) * l0 overflows to infinity, which gives one interval.
        t = np.linspace(0.0, 6.0, 400)
        doc = run_mapper_only(PipelineConfig(delta_override=1.0, alpha=1e308),
                              np.column_stack([t, np.sin(t)]))
        assert doc.domains[0].graph.node_count == 1
        assert doc.domains[0].partition.segment_kinds() == [KIND_ISOLATED]

    @pytest.mark.parametrize("bounds", [(1, 0, 0, np.nan), (1, 0, 0, 1), (0, 0.1, 0, 1)],
                             ids=["nan", "reversed", "narrow"])
    def test_empty_cloud_still_checks_the_box(self, bounds):
        with pytest.raises(ConfigurationError):
            run_mapper_only(PipelineConfig(delta_override=0.1), np.empty((0, 2)), bounds=bounds)

    @pytest.mark.parametrize("points", [
        np.random.default_rng(4).uniform(0, 1, (30, 3)),  # once read as 45 planar points
        np.linspace(0.0, 1.0, 5),
    ], ids=["three-columns", "one-dimensional"])
    def test_cloud_must_be_n_by_2(self, points):
        config = PipelineConfig(delta_override=0.1)
        with pytest.raises(DegenerateCloudError, match=r"\(n, 2\) array"):
            run_mapper_only(config, points)
        with pytest.raises(DegenerateCloudError, match=r"\(n, 2\) array"):
            sweep_theta(config, [0.2], cloud=points)

    @pytest.mark.parametrize("n", [255, 300])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cloud_rejected(self, n, bad):
        pts = np.random.default_rng(n).uniform(0, 1, (n, 2))
        pts[n // 2, 1] = bad
        with pytest.raises(DegenerateCloudError, match="finite"):
            run_mapper_only(PipelineConfig(delta_override=0.1), pts)

    @pytest.mark.parametrize("points", [
        [[-1e308, 0], [0, 0], [1e308, 0]],  # the span itself overflows
        [[-1e160, 0], [0, 0], [1e160, 0]],  # a finite span whose square overflows
        [[1e308, 0], [1e308, 0.5], [1e308, 0.25]],  # the sum for the mean overflows
    ], ids=["span", "squared-span", "mean"])
    def test_finite_cloud_whose_sums_overflow_rejected(self, points):
        with pytest.raises(DegenerateCloudError, match="overflow"):
            run_mapper_only(PipelineConfig(delta_override=0.1), points)

    @pytest.mark.parametrize("delta, far", [(1e-300, 1e10), (1e-200, 1e150)])
    def test_infinite_cover_count_takes_the_cap(self, delta, far, caplog):
        # span / delta overflows, so the count formula gives inf; the cap of
        # 2n + 1 intervals holds it, and three far-apart points read as three.
        doc = run_mapper_only(PipelineConfig(delta_override=delta),
                              [[-far, 0], [0, 0], [far, 0]])
        assert doc.domains[0].partition.segment_kinds() == [KIND_ISOLATED] * 3
        assert any("inf capped at 7" in r.getMessage() for r in caplog.records)

    @seed(7041)
    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=3),
           st.lists(st.integers(0, 2), min_size=1, max_size=6))
    def test_copies_of_few_sites_read_as_isolated_points(self, sites, picks):
        # Clouds with fewer than two distinct points near each other take the
        # general path: (1, 0) by the eigenvalue tie, l0 = delta / theta_ov
        # with no close pair, one interval for a zero span. Sites sit on a
        # lattice of 0.6 delta, so no two lie near distance delta.
        delta = 0.1
        cloud = 0.6 * delta * np.array([sites[k % len(sites)] for k in picks], dtype=float)
        doc = run_mapper_only(PipelineConfig(delta_override=delta), cloud)
        segments = doc.domains[0].partition.segments
        assert [seg.kind for seg in segments] == [KIND_ISOLATED] * len(segments)
        clusters = brute_force_clusters(np.arange(len(cloud)), cloud, delta)
        assert ([seg.point_indices.tolist() for seg in segments]
                == [c.tolist() for c in clusters])

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

    def test_import_adds_only_stdlib_modules_to_numpy(self):
        # The benchmark's setup time is mostly numpy's import; a third-party
        # import in sstopo would add to it.
        src = Path(sstopo.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))

        def loaded(statement):
            code = f"import sys\n{statement}\nprint(*sorted(sys.modules))"
            return set(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True, timeout=120).stdout.split())

        added = loaded("import sstopo") - loaded("import numpy")
        roots = {name.partition(".")[0] for name in added}
        assert "sstopo" in roots
        assert roots - {"sstopo"} <= sys.stdlib_module_names, sorted(added)

    def test_bounds_enable_boundary_classification(self):
        delta = recommended_delta(STEP, 0.0)
        xs = np.arange(0.0, 1.00001, STEP)
        cloud = np.column_stack([xs, np.full_like(xs, 0.5)])
        bounds = (0.0, 1.0, 0.0, 1.0)
        doc = run_mapper_only(
            PipelineConfig(delta_override=delta), cloud, bounds=bounds
        )
        dom = doc.domains[0]
        assert len(dom.characteristic.boundary_nodes) >= 2
        assert dom.partition.segment_kinds() == [KIND_OPEN]

    @pytest.mark.parametrize("change", [{"epsilon": 0.5}, {"dump_boxes": True}])
    def test_refuses_subdivision_settings(self, tmp_path, change):
        # Both would be ignored, and the epsilon echoed into the digest.
        pts, _ = three_curves_cloud(seed=3)
        out = tmp_path / "out"
        config = PipelineConfig(delta_override=DELTA, out_dir=str(out), **change)
        with pytest.raises(ConfigurationError, match="no subdivision"):
            run_mapper_only(config, pts)
        with pytest.raises(ConfigurationError, match="no subdivision"):
            sweep_theta(config, [0.2], cloud=pts)
        assert not out.exists()

    def test_echoes_the_default_epsilon(self):
        config = PipelineConfig(delta_override=DELTA, epsilon=PipelineConfig.epsilon)
        doc = run_mapper_only(config, three_curves_cloud(seed=3)[0])
        assert doc.config["epsilon"] == PipelineConfig().epsilon


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


class TestNoiseRedraw:
    # A new noise draw at the same step samples the same curves, so with
    # `recommended_delta` the topology must not change.
    @seed(7054)
    @settings(max_examples=12, deadline=None, database=None)
    @given(st.sampled_from([6000, 24000]), st.integers(200, 214))
    def test_performance_cloud_keeps_five_segments(self, size, noise_seed):
        pts, _, step = performance_cloud(size, noise_seed)
        doc = run_mapper_only(PipelineConfig(delta_override=recommended_delta(step, NOISE)), pts)
        assert len(doc.domains[0].partition.segments) == 5

    @seed(7055)
    @settings(max_examples=20, deadline=None, database=None)
    @given(st.integers(200, 229))
    def test_three_curve_cloud_keeps_three_components(self, noise_seed):
        pts, _ = three_curves_cloud(seed=noise_seed)
        doc = run_mapper_only(PipelineConfig(delta_override=DELTA), pts)
        assert len(doc.domains[0].graph.connected_components()) == 3


class TestCutArcs:
    def test_plane_near_paraboloid_rim_reads_four_open_arcs(self):
        # z=0.4 cuts the paraboloid in four corner arcs, each about 18 delta
        # long at this epsilon. The boundary band takes the nodes at both
        # ends of an arc, so each arc survives as one node that lost its
        # neighbors: an arc cut short, which is open, not an isolated point.
        doc = run_pipeline(PipelineConfig(epsilon=0.005), plane_patch(0.4), paraboloid_patch())
        for dom in doc.domains:
            assert dom.partition.segment_kinds() == [KIND_OPEN] * 4
            degrees = dom.graph.degrees()
            assert all(degrees[nid] > 0 for seg in dom.partition.segments
                       for nid in seg.node_ids)
        assert sorted(a for a, _, _ in doc.match.pairs) == [0, 1, 2, 3]
        assert sorted(b for _, b, _ in doc.match.pairs) == [0, 1, 2, 3]


SWAP_PAIRS = {
    "saddle": (plane_patch, saddle_patch),
    "wrinkle": (plane_patch, wrinkle_patch),
    "cylinders": (lambda: cylinder_patch(axis="y"), lambda: cylinder_patch(axis="x")),
    "paraboloid": (plane_patch, paraboloid_patch),
}


class TestSurfaceSwap:
    # Swapping the surfaces swaps the parameter domains: the same point sets
    # and segment kinds in the other order, and the transposed match.
    @seed(7056)
    @settings(max_examples=8, deadline=None, database=None)
    @given(st.sampled_from(sorted(SWAP_PAIRS)), st.sampled_from([0.02, 0.01]))
    def test_swap_transposes_match(self, case, epsilon):
        make1, make2 = SWAP_PAIRS[case]
        config = PipelineConfig(epsilon=epsilon)
        doc = run_pipeline(config, make1(), make2())
        swapped = run_pipeline(config, make2(), make1())
        assert not doc.no_intersection
        assert [d.name for d in swapped.domains] == ["uv", "st"]
        for dom, other in zip(doc.domains, reversed(swapped.domains)):
            assert np.array_equal(dom.points, other.points)
            assert dom.partition.segment_kinds() == other.partition.segment_kinds()
        assert doc.match.pairs
        assert sorted(doc.match.pairs) == sorted((b, a, n) for a, b, n in swapped.match.pairs)
        for key in ("cell_diag", "hausdorff_bound", "point_counts"):
            assert doc.extras[key] == swapped.extras[key][::-1], key
        assert doc.extras["correspondence_count"] == swapped.extras["correspondence_count"]


class TestSweep:
    def test_singleton_list(self):
        pts, _ = three_curves_cloud(seed=3)
        report = sweep_theta(PipelineConfig(delta_override=DELTA), [0.2], cloud=pts)
        assert len(report["entries"]) == 1
        entry = report["entries"][0]
        assert entry["theta_ov"] == 0.2
        assert entry["nodes"] > 0 and entry["edges"] > 0 and entry["seconds"] >= 0

    def test_report_file_is_one_unindented_dump(self, tmp_path):
        pts, _ = three_curves_cloud(seed=3)
        config = PipelineConfig(delta_override=DELTA, out_dir=str(tmp_path))
        report = sweep_theta(config, [0.2, 0.3], cloud=pts)
        assert (tmp_path / "sweep.json").read_bytes() == json.dumps(report).encode("utf-8")

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

    @pytest.mark.parametrize("mode", ["cloud", "surfaces"])
    def test_empty_theta_list_rejected(self, tmp_path, subdivision_calls, mode):
        out = tmp_path / "out"
        config = PipelineConfig(delta_override=DELTA, epsilon=0.05, out_dir=str(out))
        if mode == "cloud":
            config = dataclasses.replace(config, epsilon=PipelineConfig.epsilon)
        inputs = ({"cloud": three_curves_cloud(seed=3)[0]} if mode == "cloud"
                  else {"surfaces": (plane_patch(), saddle_patch())})
        with pytest.raises(ConfigurationError, match="at least one theta_ov"):
            sweep_theta(config, [], **inputs)
        assert subdivision_calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["emit_graph", "emit_svg", "dump_boxes"])
    @pytest.mark.parametrize("mode", ["cloud", "surfaces"])
    def test_refuses_output_flags(self, tmp_path, subdivision_calls, flag, mode):
        # A sweep writes only sweep.json; these flags would be dropped.
        out = tmp_path / "out"
        config = PipelineConfig(delta_override=DELTA, out_dir=str(out), **{flag: True})
        inputs = ({"cloud": three_curves_cloud(seed=3)[0]} if mode == "cloud"
                  else {"surfaces": (plane_patch(), saddle_patch())})
        with pytest.raises(ConfigurationError, match=flag):
            sweep_theta(config, [0.2, 0.3], **inputs)
        assert subdivision_calls == []
        assert not out.exists()

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

    @pytest.mark.parametrize("field, value", [
        ("theta_ov", 0.0), ("theta_ov", 0.5), ("theta_ov", -0.1), ("theta_ov", float("nan")),
        ("theta_ov", float("inf")), ("alpha", 0.0), ("alpha", -1.0), ("alpha", float("nan")),
        ("alpha", float("inf")), ("alpha", float("-inf")),
    ])
    def test_cover_params_refused_as_mapper_params_refuses_them(self, field, value):
        with pytest.raises(ConfigurationError) as config_error:
            PipelineConfig(**{field: value})
        with pytest.raises(ConfigurationError) as params_error:
            MapperParams(delta=0.1, **{field: value})
        assert str(config_error.value) == str(params_error.value)
        assert f"{field} must" in str(config_error.value)

    @pytest.mark.parametrize("field", ["epsilon", "alpha", "delta_override"])
    def test_inf_rejected(self, field):
        name = field.replace("_", " ")
        with pytest.raises(ConfigurationError, match=f"{name} must be positive and finite"):
            PipelineConfig(**{field: float("inf")})


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

    @pytest.mark.parametrize("bounds", [["1", "0", "0", "1"], ["0", "0.1", "0", "1"]],
                             ids=["reversed", "narrow"])
    def test_mapper_rejects_bad_bounds_on_an_empty_cloud(self, tmp_path, capsys, bounds):
        p = tmp_path / "empty.txt"
        p.write_text("")
        out = tmp_path / "out"
        rc = main(["mapper", str(p), "--delta", "0.1", "--out-dir", str(out),
                   "--bounds", *bounds])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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

    def test_sweep_surfaces_command(self, tmp_path, capsys):
        surfaces = (plane_patch(), saddle_patch())
        paths = [tmp_path / "s1.json", tmp_path / "s2.json"]
        for path, surface in zip(paths, surfaces):
            save_surface(path, surface)
        out = tmp_path / "out"
        rc = main(["sweep", *map(str, paths), "--thetas", "0.1,0.3", "--epsilon", "0.05",
                   "--out-dir", str(out)])
        assert rc == 0
        assert capsys.readouterr().out.count("theta_ov=") == 2
        with open(out / "sweep.json") as fh:
            written = json.load(fh)
        expected = sweep_theta(PipelineConfig(epsilon=0.05), [0.1, 0.3], surfaces=surfaces)
        assert written["mode"] == expected["mode"] == "surfaces"

        def untimed(report):
            return [{k: v for k, v in e.items() if k != "seconds"} for e in report["entries"]]

        assert untimed(written) == untimed(expected)
        assert len(untimed(written)) == 2

    def test_sweep_rejects_empty_thetas(self, tmp_path, capsys):
        cloud_path = tmp_path / "cloud.txt"
        save_cloud(cloud_path, three_curves_cloud(seed=3)[0])
        out = tmp_path / "out"
        rc = main(["sweep", str(cloud_path), "--thetas", "", "--delta", str(DELTA),
                   "--out-dir", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_mapper_huge_finite_alpha(self, tmp_path, capsys):
        t = np.linspace(0.0, 6.0, 400)
        cloud_path = tmp_path / "sine.txt"
        save_cloud(cloud_path, np.column_stack([t, np.sin(t)]))
        rc = main(["mapper", str(cloud_path), "--delta", "1", "--alpha", "1e308"])
        assert rc == 0
        assert "1 nodes" in capsys.readouterr().out

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

    @pytest.mark.parametrize("bounds", [
        ["1", "0", "0", "1"],
        ["0", "inf", "0", "1"],
        ["nan", "1", "0", "1"],
        ["0", "1", "0", str(1.5 * DELTA)],  # narrower than two bands
    ], ids=["reversed", "infinite", "nan", "narrow"])
    def test_mapper_rejects_bad_bounds_before_the_mapper(self, tmp_path, capsys, monkeypatch,
                                                         bounds):
        def refuse(*args):
            raise AssertionError("the Mapper ran before the box was checked")

        monkeypatch.setattr(sstopo.pipeline, "run_two_step", refuse)
        cloud_path = tmp_path / "cloud.txt"
        save_cloud(cloud_path, three_curves_cloud(seed=3)[0])
        out = tmp_path / "out"
        rc = main(["mapper", str(cloud_path), "--delta", str(DELTA), "--out-dir", str(out),
                   "--bounds", *bounds])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

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

    def test_intersect_rejects_knots_whose_arithmetic_overflows(self, tmp_path, capsys):
        data = surface_to_dict(plane_patch())
        data["knots_u"] = data["knots_v"] = [0.0, 0.0, 1e300, 1e300]
        s1 = tmp_path / "a.json"
        s2 = tmp_path / "b.json"
        s1.write_text(json.dumps(data))
        save_surface(s2, saddle_patch())
        rc = main(["intersect", str(s1), str(s2), "--epsilon", "1e299"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: knots must be below 2**480")

    def test_intersect_rejects_surface_whose_boxes_overflow(self, tmp_path, capsys):
        data = surface_to_dict(plane_patch())
        data["control_points"][0][1][2] = -np.finfo(np.float64).max
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

    @pytest.mark.parametrize("command, flags, message", [
        ("intersect", ["--epsilon", "inf"], "epsilon must be positive"),
        ("intersect", ["--delta", "inf"], "delta override must be positive"),
        ("intersect", ["--alpha", "inf"], "alpha must be positive"),
        ("mapper", ["--delta", "inf"], "delta override must be positive"),
        ("mapper", ["--delta", "0.1", "--alpha", "inf"], "alpha must be positive"),
        ("sweep", ["--delta", "0.1", "--alpha", "inf"], "alpha must be positive"),
    ])
    def test_infinite_setting_rejected(self, tmp_path, capsys, command, flags, message):
        if command == "intersect":
            inputs = [tmp_path / "a.json", tmp_path / "b.json"]
            save_surface(inputs[0], plane_patch())
            save_surface(inputs[1], saddle_patch())
        else:
            inputs = [tmp_path / "cloud.txt"]
            save_cloud(inputs[0], three_curves_cloud(seed=3)[0])
        rc = main([command, *map(str, inputs), *flags])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_runs_without_setting_flags_take_the_config_defaults(self, tmp_path, capsys,
                                                                  monkeypatch):
        # Each run echoes PipelineConfig()'s settings, plus the --delta given.
        s1, s2, cloud = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "cloud.txt"
        save_surface(s1, plane_patch())
        save_surface(s2, saddle_patch())
        save_cloud(cloud, three_curves_cloud(seed=3)[0])
        out = tmp_path / "out"
        assert main(["intersect", str(s1), str(s2), "--out-dir", str(out)]) == 0
        echo = json.loads((out / "result.json").read_text())["config"]
        assert echo == PipelineConfig().echo()
        assert main(["mapper", str(cloud), "--delta", "0.25", "--out-dir", str(out)]) == 0
        echo = json.loads((out / "result.json").read_text())["config"]
        assert echo == PipelineConfig(delta_override=0.25).echo()
        # A sweep writes no result document: read the config it was given.
        given = []
        monkeypatch.setattr(sstopo.cli, "sweep_theta",
                            lambda config, *a, **k: given.append(config) or {"entries": []})
        assert main(["sweep", str(cloud), "--delta", "0.25"]) == 0
        assert main(["sweep", str(s1), str(s2)]) == 0
        assert [c.echo() for c in given] == [PipelineConfig(delta_override=0.25).echo(),
                                             PipelineConfig().echo()]
        assert given == [PipelineConfig(delta_override=0.25), PipelineConfig()]

    def test_sweep_cloud_rejects_epsilon(self, tmp_path, capsys):
        cloud_path = tmp_path / "cloud.txt"
        save_cloud(cloud_path, three_curves_cloud(seed=3)[0])
        rc = main(["sweep", str(cloud_path), "--delta", str(DELTA), "--epsilon", "0.05"])
        assert rc == 2
        assert "no subdivision" in capsys.readouterr().err

    def test_intersect_disjoint_reports_no_intersection(self, tmp_path, capsys):
        s1 = tmp_path / "a.json"
        s2 = tmp_path / "b.json"
        save_surface(s1, plane_patch())
        save_surface(s2, plane_patch(shift=(7, 7, 7)))
        rc = main(["intersect", str(s1), str(s2), "--epsilon", "0.05"])
        assert rc == 0
        assert "no intersection" in capsys.readouterr().out
