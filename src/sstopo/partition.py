"""Characteristic-node detection, segment partitioning, and cross-domain matching.

Boundary nodes are clusters that reach into the dilated domain boundary;
singular nodes have graph degree above two. Removing both leaves only paths,
cycles, and isolated nodes, which classify the point subsets as open curve
segments, closed curve segments, and isolated intersection points. Each
connected component of the surviving subgraph is classified from its node
degrees alone, its edge count being half its degree sum. A single surviving
node is an isolated point only if it has no neighbor in the whole graph;
one whose neighbors were all removed is an arc cut short, so open.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._kernels import freeze, run_starts
from .errors import ConfigurationError
from .mapper import MapperGraph, components, membership_table

log = logging.getLogger(__name__)

KIND_OPEN = "open"
KIND_CLOSED = "closed"
KIND_ISOLATED = "isolated"
# Shape that survives characteristic removal but is neither path, cycle nor
# single node; reported as-is instead of being misclassified.
KIND_ANOMALOUS = "anomalous"


@dataclass(frozen=True, eq=False)
class CharacteristicNodes:
    """Node positions, each set a read-only int64 copy, ascending."""

    boundary_nodes: np.ndarray
    singular_nodes: np.ndarray

    def __post_init__(self):
        freeze(self, np.int64, "boundary_nodes", "singular_nodes")


@dataclass(frozen=True, eq=False)
class Segment:
    """One partition subset with the graph shape that produced it: its point
    indices and node positions, each a read-only int64 copy, ascending."""

    point_indices: np.ndarray
    kind: str
    node_ids: np.ndarray

    def __post_init__(self):
        freeze(self, np.int64, "point_indices", "node_ids")


@dataclass(frozen=True, eq=False)
class PartitionResult:
    """Segments in order of least point; the removed point sets are
    read-only int64 copies, ascending."""

    segments: tuple[Segment, ...]
    removed_boundary_points: np.ndarray
    removed_singular_points: np.ndarray

    def __post_init__(self):
        freeze(self, np.int64, "removed_boundary_points", "removed_singular_points")

    def segment_kinds(self) -> list[str]:
        return [seg.kind for seg in self.segments]


@dataclass(frozen=True)
class CrossDomainMatch:
    """(segment id in domain 1, segment id in domain 2, shared record count)."""

    pairs: tuple[tuple[int, int, int], ...]


def approximate_boundary_set(points: np.ndarray, rect, delta: float) -> np.ndarray:
    """Indices of points strictly inside the dilated boundary bands.

    The four sides of the domain box `rect`, a `(u_min, u_max, v_min, v_max)`
    sequence, are banded by the clustering radius `delta`.
    """
    u_min, u_max, v_min, v_max = rect
    if not (np.isfinite(rect).all() and u_min < u_max and v_min < v_max):
        raise ConfigurationError("degenerate domain bounds")
    if not 0 < delta < np.inf:
        raise ConfigurationError(f"dilation radius must be positive and finite, got {delta}")
    if delta >= 0.5 * (u_max - u_min) or delta >= 0.5 * (v_max - v_min):
        raise ConfigurationError(
            f"dilation radius {delta} covers the whole domain; nothing would survive"
        )
    pts = np.asarray(points, dtype=np.float64)
    u = pts[:, 0]
    v = pts[:, 1]
    mask = (u < u_min + delta) | (u > u_max - delta) | (v < v_min + delta) | (v > v_max - delta)
    return np.nonzero(mask)[0]


def classify_characteristic_nodes(
    graph: MapperGraph, boundary_indices: np.ndarray
) -> CharacteristicNodes:
    """Boundary nodes meet the boundary point set; singular nodes have degree > 2."""
    boundary = np.asarray(boundary_indices).ravel().astype(np.int64)
    meets = np.zeros(len(graph.nodes), dtype=bool)
    if boundary.size:
        owner, point = membership_table([n.points for n in graph.nodes])
        in_boundary = np.zeros(max(point.max(initial=-1), boundary.max()) + 1, dtype=bool)
        in_boundary[boundary] = True
        meets[owner[in_boundary[point]]] = True
    singular_nodes = np.flatnonzero(graph.degrees() > 2)
    if singular_nodes.size:
        # Near curve crossings the sampled set has no positive reach, so the
        # clustering-radius admissibility condition cannot be verified there.
        log.warning(
            "%d singular node(s) detected; graph connectivity near them "
            "reflects the crossing region, not a regular curve",
            singular_nodes.size,
        )
    return CharacteristicNodes(np.flatnonzero(meets), singular_nodes)


def partition(graph: MapperGraph, characteristic: CharacteristicNodes) -> PartitionResult:
    """Remove characteristic nodes and classify the remaining components.

    Points shared between a removed node and a survivor stay with the
    survivor; only points exclusive to removed nodes land in the removed sets.
    A node is named by its position in `graph.nodes`. Survivors that share a
    point are adjacent, so the segments are disjoint, and none is empty: the
    least point alone orders them.
    """
    n_nodes = len(graph.nodes)
    keep = np.ones(n_nodes, dtype=bool)
    keep[characteristic.boundary_nodes] = False
    keep[characteristic.singular_nodes] = False
    comps = components(n_nodes, graph.edges, keep)
    kept_edges = graph.edges[keep[graph.edges].all(axis=1)]
    degree = np.bincount(kept_edges.ravel(), minlength=n_nodes)
    full_degree = graph.degrees()
    # Each node's component, -1 for a removed node, read per membership.
    label = np.full(n_nodes, -1, dtype=np.int64)
    for ci, comp in enumerate(comps):
        label[comp] = ci
    owner, point = membership_table([n.points for n in graph.nodes])
    member_label = label[owner]
    survives = member_label >= 0
    width = int(point.max(initial=0)) + 1

    # One sort by (component, point) gives every segment's points ascending.
    keys = np.sort(member_label[survives] * width + point[survives])
    seg_label, seg_point = np.divmod(keys[run_starts(keys)], width)
    bounds = np.searchsorted(seg_label, np.arange(len(comps) + 1))
    segments = tuple(
        Segment(seg_point[bounds[ci]:bounds[ci + 1]],
                _classify_component(degree[comps[ci]].tolist(),
                                    int(full_degree[comps[ci]].sum())),
                comps[ci])
        # A stable sort leaves a tie, possible only on a graph that lacks an
        # edge between two nodes sharing a point, in order of least node.
        for ci in np.argsort(seg_point[bounds[:-1]], kind="stable").tolist()
    )

    surviving = np.zeros(width, dtype=bool)
    surviving[point[survives]] = True

    def removed_points(node_ids) -> np.ndarray:
        in_class = np.zeros(n_nodes, dtype=bool)
        in_class[node_ids] = True
        marked = np.zeros(width, dtype=bool)
        marked[point[in_class[owner]]] = True
        return np.flatnonzero(marked & ~surviving)

    return PartitionResult(
        segments=segments,
        removed_boundary_points=removed_points(characteristic.boundary_nodes),
        removed_singular_points=removed_points(characteristic.singular_nodes),
    )


def _classify_component(degs: list[int], full_degree: int) -> str:
    """Kind from the survivor degrees and the whole graph's degree sum."""
    n = len(degs)
    n_edges = sum(degs) // 2
    if n == 1 and n_edges == 0:
        return KIND_OPEN if full_degree else KIND_ISOLATED
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
