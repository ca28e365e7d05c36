"""Two-step Mapper graph construction.

Step one builds the initial graph with the principal-direction filter. Each
initial node gets its orthogonal interval count: the number of cover
intervals its point set would support under the orthogonal filter. The
nodes counted two or more are flagged, and each connected group of flagged
nodes is replaced by a Mapper subgraph built on the group's points under the
orthogonal filter. Subgraph nodes that touch the same outside neighbor are
merged, which is what prevents the spurious cross edges that independent
splitting of two adjacent nodes would otherwise introduce. All edges are
recomputed globally at the end by the shared-point rule. Last, every node
whose points all lie in a neighbor's is dropped: a strong collapse of the
nerve, which keeps its homotopy type and removes cover artefacts such as a
few noisy samples that form a leaf node of their own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ._kernels import run_starts
from .mapper import (
    LinearFilter,
    MapperGraph,
    MapperNode,
    MapperParams,
    build_mapper_graph,
    components,
    compute_l0,
    interval_count,
    make_pca_filter,
    membership_table,
    shared_counts,
)


@dataclass(frozen=True)
class TwoStepResult:
    """Both graphs and the refinement's decision.

    `counts[i]` is the orthogonal interval count of initial node i. `groups`
    are the connected groups of the nodes counted two or more, each sorted,
    in order of their least position; each group was rebuilt as one subgraph.
    `graph` holds no node whose point set lies in another node's.
    """

    initial_graph: MapperGraph
    graph: MapperGraph
    counts: tuple[int, ...]
    groups: tuple[tuple[int, ...], ...]
    perp_filter: LinearFilter
    seconds_initial: float
    seconds_refine: float


def orthogonal_filter(filt: LinearFilter) -> LinearFilter:
    """Same center, direction rotated +90 degrees."""
    d = filt.direction
    return LinearFilter(filt.center, np.array([-d[1], d[0]]))


def split_interval_count(
    node_points, cloud: np.ndarray, f_perp: LinearFilter, params: MapperParams
) -> int:
    """Orthogonal interval count of one node's point set, given as ascending
    indices. A one-point or coincident set gets 1 by the general rules: no
    close pair gives l0 = delta/theta_ov, a zero l0 gives one interval, and
    so does a zero filter span."""
    sub = np.asarray(cloud, dtype=np.float64)[node_points]
    l0 = compute_l0(sub, f_perp, params.delta, params.theta_ov, params.alpha)
    if l0 <= 0.0:
        return 1
    return interval_count(sub, f_perp, (1.0 + params.alpha) * l0, params.theta_ov)


def _sorted_union(arrays) -> np.ndarray:
    """Distinct members of int64 arrays, ascending."""
    merged = np.sort(np.concatenate(arrays))
    return merged[run_starts(merged)]


def run_two_step(cloud: np.ndarray, params: MapperParams) -> TwoStepResult:
    """Both phases with wall-clock timings for each."""
    cloud = np.asarray(cloud, dtype=np.float64)
    t0 = time.perf_counter()
    filt = make_pca_filter(cloud)
    initial = build_mapper_graph(cloud, filt, params)
    t1 = time.perf_counter()

    f_perp = orthogonal_filter(filt)
    counts = tuple(
        split_interval_count(n.points, cloud, f_perp, params) for n in initial.nodes
    )
    flagged = np.array(counts) >= 2
    groups = tuple(tuple(g.tolist())
                   for g in components(initial.node_count, initial.edges, flagged))
    final = _collapse(_refine(initial, groups, cloud, f_perp, params))
    t2 = time.perf_counter()

    return TwoStepResult(
        initial_graph=initial,
        graph=final,
        counts=counts,
        groups=groups,
        perp_filter=f_perp,
        seconds_initial=t1 - t0,
        seconds_refine=t2 - t1,
    )


def _refine(initial: MapperGraph, groups, cloud: np.ndarray, f_perp: LinearFilter,
            params: MapperParams) -> list[MapperNode]:
    """Replace each group of initial nodes by its orthogonal subgraph: the
    unflagged node objects in their order, then each group's new nodes. A
    group's outside neighbors are the far ends of the initial edges with
    exactly one end in the group."""
    nodes = initial.nodes
    flagged = {m for group in groups for m in group}
    out = [n for i, n in enumerate(nodes) if i not in flagged]
    for group in groups:
        ids_sorted = _sorted_union([nodes[m].points for m in group])
        # A flagged neighbor would be in the group, so these are all unflagged.
        ends = np.isin(initial.edges, group)
        neighbors = np.unique(initial.edges[~ends & ends[:, ::-1]])
        subgraph = build_mapper_graph(cloud[ids_sorted], f_perp, params)
        local_sets = [ids_sorted[node.points] for node in subgraph.nodes]

        # Nodes of the subgraph touching one same neighbor collapse together;
        # overlapping sets of touching nodes from different neighbors chain.
        owner, point = membership_table(local_sets)
        touch = [np.empty((0, 2), dtype=np.int64)]
        for nb in neighbors.tolist():
            in_nb = np.zeros(cloud.shape[0], dtype=bool)
            in_nb[nodes[nb].points] = True
            hits = owner[in_nb[point]]
            touching = hits[run_starts(hits)]
            touch.append(np.column_stack((touching[:-1], touching[1:])))
        for members in components(len(local_sets), np.concatenate(touch)):
            new_points = _sorted_union([local_sets[i] for i in members])
            new_intervals = {k for i in members for k in subgraph.nodes[i].intervals}
            out.append(MapperNode(new_points, tuple(sorted(new_intervals)), refined=True))
    return out


def _collapse(nodes: list[MapperNode]) -> MapperGraph:
    """The graph of `nodes` without every node whose point set lies in an
    adjacent node's set; of equal sets the earliest stays. The kept node
    objects are returned as they are, in order.

    Such a node is a dominated vertex of the nerve, so dropping it is a
    strong collapse and keeps the homotopy type (Barmak & Minian, DCG 2012).
    Containment, with equal sets ordered by position, is a partial order
    that does not depend on the other nodes, and two nested nonempty sets
    are always adjacent. So one pass drops exactly the nodes that are not
    maximal: each lies in a kept node, and no kept node lies in another, so
    a second pass would drop nothing. Node b lies in node a exactly when
    they share as many points as b has.
    """
    a, b, shared = shared_counts(nodes)
    sizes = np.array([n.points.size for n in nodes], dtype=np.int64)
    b_in_a = shared == sizes[b]
    a_in_b = ~b_in_a & (shared == sizes[a])
    kept = np.ones(len(nodes), dtype=bool)
    kept[b[b_in_a]] = False
    kept[a[a_in_b]] = False
    return MapperGraph(tuple(n for n, k in zip(nodes, kept.tolist()) if k))
