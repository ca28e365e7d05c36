"""Characteristic-node detection, segment partitioning, and cross-domain matching.

Boundary nodes are clusters that reach into the dilated domain boundary;
singular nodes have graph degree above two. Removing both leaves only paths,
cycles, and isolated nodes, which classify the point subsets as open curve
segments, closed curve segments, and isolated intersection points. Each
connected component of the surviving subgraph is classified from its node
degrees alone, its edge count being half its degree sum.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._kernels import run_starts
from .errors import ConfigurationError
from .mapper import MapperGraph, components, membership_table

log = logging.getLogger(__name__)

KIND_OPEN = "open"
KIND_CLOSED = "closed"
KIND_ISOLATED = "isolated"
# Shape that survives characteristic removal but is neither path, cycle nor
# single node; reported as-is instead of being misclassified.
KIND_ANOMALOUS = "anomalous"


@dataclass(frozen=True)
class BoundarySpec:
    """Domain bounds whose sides `approximate_boundary_set` bands."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    periodic_u: bool = False
    periodic_v: bool = False

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ConfigurationError("degenerate domain bounds")


@dataclass(frozen=True)
class CharacteristicNodes:
    boundary_nodes: frozenset[int]
    singular_nodes: frozenset[int]

    @property
    def all_nodes(self) -> frozenset[int]:
        return self.boundary_nodes | self.singular_nodes


@dataclass(frozen=True)
class Segment:
    """One partition subset with the graph shape that produced it."""

    point_indices: tuple[int, ...]
    kind: str
    node_ids: tuple[int, ...]


@dataclass(frozen=True)
class PartitionResult:
    segments: tuple[Segment, ...]
    removed_boundary_points: frozenset[int]
    removed_singular_points: frozenset[int]

    def segment_kinds(self) -> list[str]:
        return [seg.kind for seg in self.segments]


@dataclass(frozen=True)
class CrossDomainMatch:
    """(segment id in domain 1, segment id in domain 2, shared record count)."""

    pairs: tuple[tuple[int, int, int], ...]


def approximate_boundary_set(points: np.ndarray, spec: BoundarySpec,
                             delta: float) -> np.ndarray:
    """Indices of points strictly inside the dilated boundary bands.

    The four domain sides are banded by the clustering radius `delta`; for a
    periodic axis the two bands are the two unrollings of the seam.
    """
    if not 0 < delta < np.inf:
        raise ConfigurationError(f"dilation radius must be positive and finite, got {delta}")
    half_u = 0.5 * (spec.u_max - spec.u_min)
    half_v = 0.5 * (spec.v_max - spec.v_min)
    if delta >= half_u or delta >= half_v:
        raise ConfigurationError(
            f"dilation radius {delta} covers the whole domain; nothing would survive"
        )
    pts = np.asarray(points, dtype=np.float64)
    u = pts[:, 0]
    v = pts[:, 1]
    mask = (
        (u < spec.u_min + delta)
        | (u > spec.u_max - delta)
        | (v < spec.v_min + delta)
        | (v > spec.v_max - delta)
    )
    return np.nonzero(mask)[0]


def classify_characteristic_nodes(
    graph: MapperGraph, boundary_indices: np.ndarray
) -> CharacteristicNodes:
    """Boundary nodes meet the boundary point set; singular nodes have degree > 2."""
    boundary = np.asarray(boundary_indices).ravel().astype(np.int64)
    boundary_nodes = frozenset()
    if boundary.size:
        owner, point = membership_table([n.points for n in graph.nodes],
                                        [n.id for n in graph.nodes])
        in_boundary = np.zeros(max(point.max(initial=-1), boundary.max()) + 1, dtype=bool)
        in_boundary[boundary] = True
        boundary_nodes = frozenset(owner[in_boundary[point]].tolist())
    degrees = graph.degrees()
    singular_nodes = frozenset(nid for nid, d in degrees.items() if d > 2)
    if singular_nodes:
        # Near curve crossings the sampled set has no positive reach, so the
        # clustering-radius admissibility condition cannot be verified there.
        log.warning(
            "%d singular node(s) detected; graph connectivity near them "
            "reflects the crossing region, not a regular curve",
            len(singular_nodes),
        )
    return CharacteristicNodes(boundary_nodes, singular_nodes)


def partition(graph: MapperGraph, characteristic: CharacteristicNodes) -> PartitionResult:
    """Remove characteristic nodes and classify the remaining components.

    Points shared between a removed node and a survivor stay with the
    survivor; only points exclusive to removed nodes land in the removed sets.
    Node ids are positions in `graph.nodes`.
    """
    removed_ids = characteristic.all_nodes
    adj = {nid: nbrs - removed_ids for nid, nbrs in graph.adjacency().items()
           if nid not in removed_ids}
    comps = components(adj)
    # Each node's component, -1 for a removed node, read per membership.
    label = [-1] * len(graph.nodes)
    for ci, comp in enumerate(comps):
        for nid in comp:
            label[nid] = ci
    member_label, point = membership_table([n.points for n in graph.nodes], label)
    survives = member_label >= 0
    width = int(point.max(initial=0)) + 1

    # One sort by (component, point) gives every segment's points ascending.
    keys = np.sort(member_label[survives] * width + point[survives])
    seg_label, seg_point = np.divmod(keys[run_starts(keys)], width)
    bounds = np.searchsorted(seg_label, np.arange(len(comps) + 1)).tolist()
    seg_point = seg_point.tolist()
    segments = [
        Segment(tuple(seg_point[bounds[ci]:bounds[ci + 1]]),
                _classify_component([len(adj[nid]) for nid in comp]), tuple(comp))
        for ci, comp in enumerate(comps)
    ]
    # Deterministic report order: by smallest point index, then node id.
    segments.sort(key=lambda s: (s.point_indices[0] if s.point_indices else -1, s.node_ids))

    surviving = np.zeros(width, dtype=bool)
    surviving[point[survives]] = True

    def removed_points(node_ids) -> frozenset[int]:
        if not node_ids:
            return frozenset()
        pts = np.concatenate([graph.nodes[nid].points for nid in node_ids])
        return frozenset(pts[~surviving[pts]].tolist())

    return PartitionResult(
        segments=tuple(segments),
        removed_boundary_points=removed_points(characteristic.boundary_nodes),
        removed_singular_points=removed_points(characteristic.singular_nodes),
    )


def _classify_component(degs: list[int]) -> str:
    n = len(degs)
    n_edges = sum(degs) // 2
    if n == 1 and n_edges == 0:
        return KIND_ISOLATED
    if max(degs) <= 2 and degs.count(1) == 2 and n_edges == n - 1:
        return KIND_OPEN
    if n >= 3 and all(d == 2 for d in degs) and n_edges == n:
        return KIND_CLOSED
    return KIND_ANOMALOUS


def match_across_domains(
    part1: PartitionResult, part2: PartitionResult, correspondences: np.ndarray
) -> CrossDomainMatch:
    """Pair segments across domains through the box-pair correspondence records.

    A pair (A, B) is emitted iff some record links a point of A to a point of
    B; the count is the number of such records. Removed points do not vote.
    """
    corr = np.asarray(correspondences)
    if corr.size == 0:
        log.warning("empty correspondence list; cross-domain match is empty")
        return CrossDomainMatch(())
    corr = corr.astype(np.int64, copy=False)
    seg1 = _segment_of(part1, corr[:, 0])
    seg2 = _segment_of(part2, corr[:, 1])
    voting = (seg1 >= 0) & (seg2 >= 0)
    width = len(part2.segments)
    keys, counts = np.unique(seg1[voting] * width + seg2[voting], return_counts=True)
    a, b = np.divmod(keys, width)
    return CrossDomainMatch(tuple(zip(a.tolist(), b.tolist(), counts.tolist())))


def _segment_of(part: PartitionResult, points: np.ndarray) -> np.ndarray:
    """Segment id of each point index, -1 for a point in no segment. The
    segments are disjoint: survivors sharing a point are adjacent."""
    owner, members = membership_table([seg.point_indices for seg in part.segments])
    ids = np.full(max(members.max(initial=-1), points.max()) + 1, -1)
    ids[members] = owner
    return ids[points]
