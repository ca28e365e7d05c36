"""End-to-end driver: subdivision, two-step Mapper per domain, partitioning,
cross-domain matching, and machine-readable result documents."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import ConfigurationError, DegenerateCloudError
from .exports import segment_colors, write_gml, write_svg
from .geometry import BSplineSurface
from .mapper import MapperGraph, MapperNode, MapperParams, default_delta
from .partition import (
    CharacteristicNodes,
    CrossDomainMatch,
    PartitionResult,
    Segment,
    approximate_boundary_set,
    classify_characteristic_nodes,
    match_across_domains,
    partition,
)
from .subdivision import (IntersectionPointSets, dump_box_pairs, hausdorff_bound,
                          intersect_surfaces)
from .twostep import run_two_step


@dataclass(frozen=True)
class PipelineConfig:
    epsilon: float = 0.01
    theta_ov: float = MapperParams.theta_ov
    alpha: float = MapperParams.alpha
    delta_override: float | None = None
    seed: int = 0
    out_dir: str | None = None
    emit_graph: bool = False
    emit_svg: bool = False
    dump_boxes: bool = False

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ConfigurationError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 < self.theta_ov < 0.5:
            raise ConfigurationError(
                f"theta_ov must lie strictly between 0 and 0.5, got {self.theta_ov}"
            )
        if not 0 < self.alpha < np.inf:
            raise ConfigurationError(f"alpha must be positive and finite, got {self.alpha}")
        if self.delta_override is not None and not 0 < self.delta_override < np.inf:
            raise ConfigurationError("delta override must be positive and finite")

    def echo(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "theta_ov": self.theta_ov,
            "alpha": self.alpha,
            "delta_override": self.delta_override,
            "seed": self.seed,
        }


@dataclass
class DomainResult:
    name: str
    points: np.ndarray  # (n, 2), held as a read-only copy
    delta: float
    graph: MapperGraph
    characteristic: CharacteristicNodes
    partition: PartitionResult
    seconds_initial: float
    seconds_refine: float

    def __post_init__(self):
        _kernels.freeze(self, np.float64, "points", shape=(-1, 2))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points": self.points.tolist(),
            "delta": self.delta,
            "graph": {
                "nodes": [
                    {
                        "id": i,
                        "points": n.points.tolist(),
                        "intervals": list(n.intervals),
                        "refined": n.refined,
                    }
                    for i, n in enumerate(self.graph.nodes)
                ],
                "edges": self.graph.edges.tolist(),
            },
            "boundary_nodes": self.characteristic.boundary_nodes.tolist(),
            "singular_nodes": self.characteristic.singular_nodes.tolist(),
            "segments": [
                {
                    "id": si,
                    "kind": seg.kind,
                    "points": seg.point_indices.tolist(),
                    "nodes": seg.node_ids.tolist(),
                }
                for si, seg in enumerate(self.partition.segments)
            ],
            "removed_boundary_points": self.partition.removed_boundary_points.tolist(),
            "removed_singular_points": self.partition.removed_singular_points.tolist(),
            "seconds_initial": self.seconds_initial,
            "seconds_refine": self.seconds_refine,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DomainResult":
        nodes = tuple(
            MapperNode(n["points"], intervals=tuple(n["intervals"]), refined=bool(n["refined"]))
            for n in data["graph"]["nodes"]
        )
        segments = tuple(Segment(s["points"], s["kind"], s["nodes"]) for s in data["segments"])
        return cls(
            name=data["name"],
            points=data["points"],
            delta=float(data["delta"]),
            graph=MapperGraph(nodes),
            characteristic=CharacteristicNodes(data["boundary_nodes"], data["singular_nodes"]),
            partition=PartitionResult(
                segments=segments,
                removed_boundary_points=data["removed_boundary_points"],
                removed_singular_points=data["removed_singular_points"],
            ),
            seconds_initial=float(data["seconds_initial"]),
            seconds_refine=float(data["seconds_refine"]),
        )


@dataclass
class ResultDocument:
    kind: str  # "intersect" or "mapper"
    config: dict
    overlap_suspected: bool
    domains: list[DomainResult]
    match: CrossDomainMatch | None
    timings: dict  # initial / subdivision / total (+ surface_subdivision)
    extras: dict = field(default_factory=dict)

    @property
    def no_intersection(self) -> bool:
        return not self.domains

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "no_intersection": self.no_intersection,
            "overlap_suspected": self.overlap_suspected,
            "domains": [d.to_dict() for d in self.domains],
            "match": None if self.match is None else [list(p) for p in self.match.pairs],
            "timings": self.timings,
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResultDocument":
        match = data.get("match")
        return cls(
            kind=data["kind"],
            config=data["config"],
            overlap_suspected=bool(data["overlap_suspected"]),
            domains=[DomainResult.from_dict(d) for d in data["domains"]],
            match=None if match is None else CrossDomainMatch(
                tuple((int(a), int(b), int(c)) for a, b, c in match)
            ),
            timings=data["timings"],
            extras=data.get("extras", {}),
        )

    def save(self, path) -> None:
        # One line with no indent: only `json.dumps` without an indent runs
        # CPython's C encoder, two to three times faster on these documents.
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path) -> "ResultDocument":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def result_digest(doc: ResultDocument) -> str:
    """SHA-256 over the canonical document with wall-clock fields stripped."""
    data = doc.to_dict()
    data.pop("timings", None)
    for dom in data["domains"]:
        dom.pop("seconds_initial", None)
        dom.pop("seconds_refine", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _analyze_domain(
    name: str,
    points: np.ndarray,
    params: MapperParams,
    boundary_idx: np.ndarray,
) -> DomainResult:
    two_step = run_two_step(points, params)
    characteristic = classify_characteristic_nodes(two_step.graph, boundary_idx)
    part = partition(two_step.graph, characteristic.boundary_nodes)
    return DomainResult(
        name=name,
        points=points,
        delta=params.delta,
        graph=two_step.graph,
        characteristic=characteristic,
        partition=part,
        seconds_initial=two_step.seconds_initial,
        seconds_refine=two_step.seconds_refine,
    )


def _stage_seconds(domains: list[DomainResult]) -> dict:
    """Initial graph and orthogonal refinement seconds, summed over the domains."""
    return {"initial": sum((d.seconds_initial for d in domains), 0.0),
            "subdivision": sum((d.seconds_refine for d in domains), 0.0)}


def run_pipeline(
    config: PipelineConfig, surface1: BSplineSurface, surface2: BSplineSurface
) -> ResultDocument:
    """Full chain: subdivision -> per-domain two-step Mapper -> partition -> match.

    Timing fields: "initial" sums the initial Mapper graph seconds of both
    domains, "subdivision" sums the orthogonal refinement seconds, "total" is
    the end-to-end wall clock, and "surface_subdivision" records the box-pair
    recursion separately.
    """
    t_start = time.perf_counter()
    sets = intersect_surfaces(surface1, surface2, config.epsilon)
    return _analyze_pair(config, sets, surface1, surface2, time.perf_counter() - t_start)


def _analyze_pair(
    config: PipelineConfig,
    sets: IntersectionPointSets,
    surface1: BSplineSurface,
    surface2: BSplineSurface,
    seconds_subdivision: float,
) -> ResultDocument:
    """Everything after the subdivision, which does not depend on theta_ov:
    per-domain analysis, matching, the document and its exports."""
    t_start = time.perf_counter()
    domains = []
    match = None
    extras = {}
    if not sets.is_empty:
        for name, points, cell_diag, surface in (
            ("uv", sets.points1, sets.cell_diag1, surface1),
            ("st", sets.points2, sets.cell_diag2, surface2),
        ):
            delta = config.delta_override
            if delta is None:
                delta = default_delta(cell_diag)
            params = MapperParams(delta, config.theta_ov, config.alpha)
            boundary_idx = approximate_boundary_set(points, surface.param_range, params.delta)
            domains.append(_analyze_domain(name, points, params, boundary_idx))
        match = match_across_domains(
            domains[0].partition, domains[1].partition, sets.correspondences
        )
        extras = {
            "epsilon": sets.epsilon,
            "cell_diag": [sets.cell_diag1, sets.cell_diag2],
            "hausdorff_bound": list(hausdorff_bound(sets)),
            "point_counts": [int(sets.points1.shape[0]), int(sets.points2.shape[0])],
            "correspondence_count": int(sets.correspondences.shape[0]),
        }
    doc = ResultDocument(
        kind="intersect",
        config=config.echo(),
        overlap_suspected=sets.overlap_suspected,
        domains=domains,
        match=match,
        timings={**_stage_seconds(domains),
                 "total": seconds_subdivision + time.perf_counter() - t_start,
                 "surface_subdivision": seconds_subdivision},
        extras=extras,
    )
    _emit(doc, config, sets=sets)
    return doc


def run_mapper_only(
    config: PipelineConfig,
    points: np.ndarray,
    *,
    bounds: Sequence[float] | None = None,
) -> ResultDocument:
    """Two-step Mapper plus partition on a raw planar cloud.

    Requires `delta_override` (there are no subdivision cells to derive the
    clustering radius from) and refuses a non-default `epsilon` or
    `dump_boxes`, which need one; boundary classification happens only when a
    domain box, a `(u_min, u_max, v_min, v_max)` sequence, is supplied. The
    box is checked before the Mapper runs, on an empty cloud too. An empty
    cloud gives the document `run_pipeline` gives for an empty intersection:
    `no_intersection` and no domains. Raises `DegenerateCloudError` unless
    `points` is an `(n, 2)` array of finite coordinates, each of magnitude at
    most m with 8 n m^2 finite.
    """
    if config.delta_override is None:
        raise ConfigurationError("mapper-only runs need an explicit delta")
    if config.epsilon != PipelineConfig.epsilon or config.dump_boxes:
        raise ConfigurationError("mapper-only runs have no subdivision: epsilon and "
                                 "dump_boxes must keep their defaults")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DegenerateCloudError(f"a cloud is an (n, 2) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise DegenerateCloudError("cloud coordinates must be finite")
    # With every |coordinate| at most m, 8 n m^2 bounds the PCA filter's sums:
    # of the coordinates, and of their squared offsets from the mean.
    m = float(max(points.max(initial=0.0), -points.min(initial=0.0)))
    if not np.isfinite(8.0 * len(points) * m * m):
        raise DegenerateCloudError("cloud coordinates too large: the PCA filter's sums overflow")
    t_start = time.perf_counter()
    params = MapperParams(config.delta_override, config.theta_ov, config.alpha)
    if bounds is not None:
        boundary_idx = approximate_boundary_set(points, bounds, params.delta)
    else:
        boundary_idx = np.empty(0, dtype=np.int64)
    domains = [_analyze_domain("cloud", points, params, boundary_idx)] if len(points) else []
    doc = ResultDocument(
        kind="mapper",
        config=config.echo(),
        overlap_suspected=False,
        domains=domains,
        match=None,
        timings={**_stage_seconds(domains), "total": time.perf_counter() - t_start},
    )
    _emit(doc, config)
    return doc


def sweep_theta(
    config: PipelineConfig,
    theta_list,
    *,
    cloud: np.ndarray | None = None,
    surfaces: tuple[BSplineSurface, BSplineSurface] | None = None,
) -> dict:
    """Run the pipeline once per overlap ratio; report node/edge counts and time.

    Every theta is validated, and an empty list refused, before any work
    runs. On surfaces the subdivision, which does not depend on theta, runs
    once and is shared: each entry's `seconds` is that run's total, the
    shared subdivision included. A sweep writes only `sweep.json`, so it
    refuses `emit_graph`, `emit_svg` and, on surfaces, `dump_boxes`; on a
    cloud `run_mapper_only` refuses `dump_boxes`.
    """
    if (cloud is None) == (surfaces is None):
        raise ConfigurationError("sweep needs exactly one of cloud or surfaces")
    if config.emit_graph or config.emit_svg or (surfaces is not None and config.dump_boxes):
        raise ConfigurationError("a sweep writes only sweep.json: emit_graph, emit_svg "
                                 "and dump_boxes must keep their defaults")
    configs = [dataclasses.replace(config, theta_ov=theta, out_dir=None)
               for theta in theta_list]
    if not configs:
        raise ConfigurationError("a sweep needs at least one theta_ov")
    if surfaces is not None:
        t_start = time.perf_counter()
        sets = intersect_surfaces(*surfaces, config.epsilon)
        seconds = time.perf_counter() - t_start
        docs = (_analyze_pair(cfg, sets, *surfaces, seconds) for cfg in configs)
    else:
        docs = (run_mapper_only(cfg, cloud) for cfg in configs)
    entries = [
        {
            "theta_ov": cfg.theta_ov,
            "nodes": sum(d.graph.node_count for d in doc.domains),
            "edges": sum(d.graph.edge_count for d in doc.domains),
            "seconds": doc.timings["total"],
        }
        for cfg, doc in zip(configs, docs)
    ]
    report = {"mode": "surfaces" if surfaces is not None else "cloud", "entries": entries}
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "sweep.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report))
    return report


def _emit(doc: ResultDocument, config: PipelineConfig, sets=None) -> None:
    if config.out_dir is None:
        return
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc.save(out / "result.json")
    for dom in doc.domains:
        if config.emit_graph:
            write_gml(out / f"graph_{dom.name}.gml", dom.graph)
        if config.emit_svg:
            colors = segment_colors(dom.points.shape[0], dom.partition)
            write_svg(out / f"points_{dom.name}.svg", dom.points, colors)
    if config.dump_boxes and sets is not None:
        dump_box_pairs(out / "boxes.json", sets)
