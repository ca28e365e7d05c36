"""Characteristic-node detection, segment partitioning, and cross-domain matching.

Boundary nodes are clusters that reach into the dilated domain boundary;
singular nodes have graph degree above two. Removing both leaves paths,
cycles and single nodes: open curve segments, closed curve segments and
isolated intersection points. Removal cuts arcs where they meet the
boundary, so a component of the graph without its singular nodes that has
no node off the band is all ends, and is kept whole. Counts decide each
kind: a component with as many edges as nodes is closed; a single node with
no neighbour in the whole graph, outside the band, is isolated; the rest
are open.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._kernels import _join, freeze, run_starts
from .errors import ConfigurationError, check_open
from .mapper import MapperGraph, check_cloud, membership_table

log = logging.getLogger(__name__)

KIND_OPEN = "open"
KIND_CLOSED = "closed"
KIND_ISOLATED = "isolated"
# Indexed by the partition's kind code: 1 for a cycle, 2 for an isolated point.
_KINDS = (KIND_OPEN, KIND_CLOSED, KIND_ISOLATED)


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
    sequence, are banded by the clustering radius `delta`. A rect that is
    not four finite real numbers with u_min < u_max and v_min < v_max
    raises `ConfigurationError`, and a cloud `check_cloud` refuses
    `DegenerateCloudError`.
    """
    try:
        u_min, u_max, v_min, v_max = rect
    except (TypeError, ValueError):
        raise ConfigurationError(f"degenerate domain bounds: not four numbers, {rect!r}") from None
    for low, high in ((u_min, u_max), (v_min, v_max)):
        check_open(low, "degenerate domain bounds", -np.inf)
        check_open(high, "degenerate domain bounds", low)
    check_open(delta, "dilation radius must be positive and finite")
    if delta >= 0.5 * (u_max - u_min) or delta >= 0.5 * (v_max - v_min):
        raise ConfigurationError(
            f"dilation radius {delta} covers the whole domain; nothing would survive"
        )
    pts = check_cloud(points)
    u = pts[:, 0]
    v = pts[:, 1]
    mask = (u < u_min + delta) | (u > u_max - delta) | (v < v_min + delta) | (v > v_max - delta)
    return np.nonzero(mask)[0]


def classify_characteristic_nodes(
    graph: MapperGraph, boundary_indices: np.ndarray
) -> CharacteristicNodes:
    """Boundary nodes meet the boundary point set; the singular nodes are
    the graph's `singular_nodes`."""
    boundary = np.asarray(boundary_indices).ravel().astype(np.int64)
    meets = np.zeros(len(graph.nodes), dtype=bool)
    if boundary.size:
        owner, point = membership_table([n.points for n in graph.nodes])
        in_boundary = np.zeros(max(point.max(initial=-1), boundary.max()) + 1, dtype=bool)
        in_boundary[boundary] = True
        meets[owner[in_boundary[point]]] = True
    if graph.singular_nodes.size:
        # Near curve crossings the sampled set has no positive reach, so the
        # clustering-radius admissibility condition cannot be verified there.
        log.warning(
            "%d singular node(s) detected; graph connectivity near them "
            "reflects the crossing region, not a regular curve",
            graph.singular_nodes.size,
        )
    return CharacteristicNodes(np.flatnonzero(meets), graph.singular_nodes)


def partition(graph: MapperGraph, boundary_nodes: np.ndarray) -> PartitionResult:
    """Remove boundary and singular nodes and classify the remaining components.

    A node is named by its position in `graph.nodes`; `boundary_nodes` names
    those that meet the boundary band, and the singular nodes are the
    graph's `singular_nodes`.
    Points shared between a removed node and a survivor stay with the
    survivor. Survivors that share a point are adjacent, so the segments are
    disjoint, and none is empty: the least point alone orders them.
    """
    n_nodes = len(graph.nodes)
    degree = graph.degrees()
    singular = np.zeros(n_nodes, dtype=bool)
    singular[graph.singular_nodes] = True
    band = np.zeros(n_nodes, dtype=bool)
    band[np.asarray(boundary_nodes, dtype=np.int64)] = True
    # A component of the graph without its singular nodes that has no node
    # off the band is all arc ends, so it is kept whole.
    u, v = graph.edges.T
    both = ~singular[u] & ~singular[v]
    root = _join(np.arange(n_nodes), u[both], v[both])
    off_band = np.bincount(root[~singular & ~band], minlength=n_nodes) > 0
    keep = ~singular & ~(band & off_band[root])
    # Each survivor's label is its component's least node.
    both = keep[u] & keep[v]
    label = _join(np.arange(n_nodes), u[both], v[both])
    size = np.bincount(label[keep], minlength=n_nodes)
    n_edges = np.bincount(label[u[both]], minlength=n_nodes)
    # No survivor has degree above two, so a component is a cycle, a path or
    # a single node; a lone node that has neighbours or reaches the band is
    # an arc's end, not an isolated point.
    kind = (n_edges == size) + 2 * ((size == 1) & (degree == 0) & ~band)
    roots = np.flatnonzero(size)
    nodes = np.flatnonzero(keep)[np.argsort(label[keep], kind="stable")]
    owner, point = membership_table([n.points for n in graph.nodes])
    survives = keep[owner]
    width = int(point.max(initial=0)) + 1

    # One sort by (component, point) gives every segment's points ascending.
    keys = np.sort(label[owner[survives]] * width + point[survives])
    seg_label, seg_point = np.divmod(keys[run_starts(keys)], width)
    ends = np.append(roots, n_nodes)
    point_at = np.searchsorted(seg_label, ends)
    node_at = np.searchsorted(label[nodes], ends)
    segments = tuple(
        Segment(seg_point[point_at[ci]:point_at[ci + 1]], _KINDS[kind[roots[ci]]],
                nodes[node_at[ci]:node_at[ci + 1]])
        for ci in np.argsort(seg_point[point_at[:-1]]).tolist()
    )

    def covered(mask: np.ndarray) -> np.ndarray:
        marked = np.zeros(width, dtype=bool)
        marked[point[mask[owner]]] = True
        return marked

    surviving = covered(keep)
    return PartitionResult(
        segments=segments,
        removed_boundary_points=np.flatnonzero(covered(band) & ~surviving),
        removed_singular_points=np.flatnonzero(covered(singular) & ~surviving),
    )


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
