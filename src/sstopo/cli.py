"""Command-line driver.

Subcommands:
  intersect S1.json S2.json   two-surface pipeline
  mapper CLOUD.txt            two-step Mapper on a raw planar cloud
  synth SPEC.json             synthetic cloud generator
  sweep (CLOUD | S1 S2)       overlap-ratio sweep

Surface file schema (JSON): degree_u, degree_v, knots_u, knots_v,
control_points (row-major grid of [x, y, z]), periodic_u, periodic_v.
Cloud file: one `x y` pair per line, optional third integer label column.
Synthetic spec (JSON): step, noise, seed, curves: list of
{kind: circle|segment|arc, ...} records (see sstopo.synthetic).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import SstopoError
from .geometry import load_surface
from .pipeline import PipelineConfig, run_mapper_only, run_pipeline, sweep_theta
from .synthetic import generate_synthetic, load_cloud, save_cloud, spec_from_dict


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta-ov", type=float, default=0.2, dest="theta_ov",
                   help="cover overlap ratio, in (0, 0.5)")
    p.add_argument("--alpha", type=float, default=0.001, help="interval length margin")
    p.add_argument("--delta", type=float, default=None, help="clustering radius override")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=None)


def _add_outputs(p: argparse.ArgumentParser) -> None:
    """Per-run output files; a sweep writes only sweep.json, so it has none."""
    p.add_argument("--emit-graph", action="store_true", help="write GML graph files")
    p.add_argument("--emit-svg", action="store_true", help="write SVG point plots")


def _config(args) -> PipelineConfig:
    return PipelineConfig(
        epsilon=getattr(args, "epsilon", PipelineConfig.epsilon),
        theta_ov=args.theta_ov,
        alpha=args.alpha,
        delta_override=args.delta,
        seed=args.seed,
        out_dir=args.out_dir,
        emit_graph=getattr(args, "emit_graph", False),
        emit_svg=getattr(args, "emit_svg", False),
        dump_boxes=getattr(args, "dump_boxes", False),
    )


def _summarize(doc) -> None:
    if doc.no_intersection:
        print("no intersection")
    for dom in doc.domains:
        kinds = [seg.kind for seg in dom.partition.segments]
        print(
            f"domain {dom.name}: {dom.points.shape[0]} points, "
            f"{dom.graph.node_count} nodes, {dom.graph.edge_count} edges, "
            f"{len(kinds)} segments {kinds}"
        )
    if doc.match is not None:
        print(f"matched pairs: {[(a, b) for a, b, _ in doc.match.pairs]}")
    t = doc.timings
    print(
        f"Initial {t['initial']:.4f}s  Subdivision {t['subdivision']:.4f}s  "
        f"Total {t['total']:.4f}s"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sstopo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("intersect", help="intersect two surface files")
    p_int.add_argument("surface1")
    p_int.add_argument("surface2")
    _add_common(p_int)
    _add_outputs(p_int)
    p_int.add_argument("--dump-boxes", action="store_true",
                       help="write the terminal cell pair of each correspondence")

    p_map = sub.add_parser("mapper", help="two-step Mapper on a cloud file")
    p_map.add_argument("cloud")
    p_map.add_argument("--bounds", type=float, nargs=4, default=None,
                       metavar=("U_MIN", "U_MAX", "V_MIN", "V_MAX"),
                       help="domain box enabling boundary classification")
    _add_common(p_map)
    _add_outputs(p_map)

    p_syn = sub.add_parser("synth", help="generate a synthetic cloud")
    p_syn.add_argument("spec")
    p_syn.add_argument("--seed", type=int, default=None,
                       help="noise seed; overrides the spec's seed")
    p_syn.add_argument("--out-dir", default=None)

    p_swp = sub.add_parser("sweep", help="overlap-ratio sweep")
    p_swp.add_argument("inputs", nargs="+",
                       help="one cloud file, or two surface files")
    p_swp.add_argument("--thetas", default="0.1,0.2,0.3,0.4",
                       help="comma-separated overlap ratios")
    _add_common(p_swp)
    # A mapper run has no subdivision, so it takes no precision.
    for p in (p_int, p_swp):
        p.add_argument("--epsilon", type=float, default=0.01, help="subdivision precision")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (SstopoError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "intersect":
        doc = run_pipeline(_config(args), load_surface(args.surface1),
                           load_surface(args.surface2))
        _summarize(doc)
        return 0

    if args.command == "mapper":
        points, _ = load_cloud(args.cloud)
        config = _config(args)
        doc = run_mapper_only(config, points, bounds=args.bounds)
        _summarize(doc)
        return 0

    if args.command == "synth":
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = spec_from_dict(json.load(fh), seed_override=args.seed)
        points, labels = generate_synthetic(spec)
        out_dir = Path(args.out_dir or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "cloud.txt"
        save_cloud(path, points, labels)
        print(f"wrote {points.shape[0]} points to {path}")
        return 0

    if args.command == "sweep":
        config = _config(args)
        thetas = [float(t) for t in args.thetas.split(",") if t]
        if len(args.inputs) == 1:
            points, _ = load_cloud(args.inputs[0])
            report = sweep_theta(config, thetas, cloud=points)
        elif len(args.inputs) == 2:
            surfaces = (load_surface(args.inputs[0]), load_surface(args.inputs[1]))
            report = sweep_theta(config, thetas, surfaces=surfaces)
        else:
            print("error: sweep takes one cloud file or two surface files",
                  file=sys.stderr)
            return 2
        for row in report["entries"]:
            print(
                f"theta_ov={row['theta_ov']:.2f}  nodes={row['nodes']}  "
                f"edges={row['edges']}  seconds={row['seconds']:.4f}"
            )
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
