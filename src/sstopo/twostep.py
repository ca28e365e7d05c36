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

from .errors import DegenerateCloudError
from .mapper import (
    LinearFilter,
    MapperGraph,
    MapperNode,
    MapperParams,
    _edges_from_nodes,
    build_mapper_graph,
    centroid,
    components,
    compute_l0,
    interval_count,
    make_pca_filter,
    membership_table,
    run_starts,
    shared_counts,
)


@dataclass(frozen=True)
class TwoStepResult:
    """Both graphs and the refinement's decision.

    `counts[i]` is the orthogonal interval count of initial node i. `groups`
    are the connected groups of the nodes counted two or more, each sorted,
    in order of their least id; each group was rebuilt as one subgraph.
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
    indices; 1 for degenerate sets."""
    if len(node_points) < 2:
        return 1
    sub = np.asarray(cloud, dtype=np.float64)[node_points]
    l0 = compute_l0(sub, f_perp, params.delta, params.theta_ov, params.alpha)
    if l0 <= 0.0:
        return 1
    return interval_count(sub, f_perp, (1.0 + params.alpha) * l0, params.theta_ov)


def _sorted_union(arrays) -> np.ndarray:
    """Distinct members of int64 arrays, ascending."""
    merged = np.sort(np.concatenate(arrays))
    return merged[run_starts(merged)]


def _cloud_filter(cloud: np.ndarray) -> LinearFilter:
    """PCA filter, falling back to direction (1, 0) for degenerate clouds so
    single-point and coincident clouds still flow through the pipeline."""
    try:
        return make_pca_filter(cloud)
    except DegenerateCloudError:
        return LinearFilter(centroid(cloud), np.array([1.0, 0.0]))


def run_two_step(cloud: np.ndarray, params: MapperParams) -> TwoStepResult:
    """Both phases with wall-clock timings for each."""
    cloud = np.asarray(cloud, dtype=np.float64)
    t0 = time.perf_counter()
    filt = _cloud_filter(cloud)
    initial = build_mapper_graph(cloud, filt, params)
    t1 = time.perf_counter()

    f_perp = orthogonal_filter(filt)
    counts = tuple(
        split_interval_count(n.points, cloud, f_perp, params) for n in initial.nodes
    )
    adj = initial.adjacency()
    flagged = {n.id: adj[n.id] for n, s in zip(initial.nodes, counts) if s >= 2}
    groups = tuple(tuple(g) for g in components(flagged))
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
    nodes of the refined graph, numbered in order."""
    adj = initial.adjacency()
    by_id = initial.nodes
    flagged = {m for group in groups for m in group}
    # Unflagged nodes keep their order; each group's new nodes follow.
    out = [(n.points, n.intervals, n.refined) for n in by_id if n.id not in flagged]
    for group in groups:
        ids_sorted = _sorted_union([by_id[m].points for m in group])
        # A flagged neighbor would be in the group, so these are all unflagged.
        neighbors = set().union(*(adj[m] for m in group)) - set(group)
        subgraph = build_mapper_graph(cloud[ids_sorted], f_perp, params)
        local_sets = [ids_sorted[node.points] for node in subgraph.nodes]

        # Nodes of the subgraph touching one same neighbor collapse together;
        # overlapping sets of touching nodes from different neighbors chain.
        owner, point = membership_table(local_sets)
        touch: dict[int, set[int]] = {i: set() for i in range(len(local_sets))}
        for nb in neighbors:
            in_nb = np.zeros(cloud.shape[0], dtype=bool)
            in_nb[by_id[nb].points] = True
            hits = owner[in_nb[point]]
            touching = hits[run_starts(hits)].tolist()
            for a, b in zip(touching, touching[1:]):
                touch[a].add(b)
                touch[b].add(a)
        for members in components(touch):
            new_points = _sorted_union([local_sets[i] for i in members])
            new_intervals = {k for i in members for k in subgraph.nodes[i].intervals}
            out.append((new_points, tuple(sorted(new_intervals)), True))

    return [MapperNode(new_id, pts, intervals=intervals, refined=refined)
            for new_id, (pts, intervals, refined) in enumerate(out)]


def _collapse(nodes: list[MapperNode]) -> MapperGraph:
    """The graph of `nodes`, numbered in order, without every node whose
    point set lies in an adjacent node's set; of equal sets the lowest id
    stays. The rest are renumbered in order.

    Such a node is a dominated vertex of the nerve, so dropping it is a
    strong collapse and keeps the homotopy type (Barmak & Minian, DCG 2012).
    Containment, with equal sets ordered by id, is a partial order that does
    not depend on the other nodes, and two nested nonempty sets are always
    adjacent. So one pass drops exactly the nodes that are not maximal: each
    lies in a kept node, and no kept node lies in another, so a second pass
    would drop nothing. Node b lies in node a exactly when they share as
    many points as b has, so one pass over the memberships gives both the
    edges and the dropped nodes.
    """
    a, b, shared = shared_counts(nodes)
    sizes = np.array([n.points.size for n in nodes], dtype=np.int64)
    b_in_a = shared == sizes[b]
    a_in_b = ~b_in_a & (shared == sizes[a])
    dropped = set(b[b_in_a].tolist()) | set(a[a_in_b].tolist())
    if not dropped:
        return MapperGraph(nodes=tuple(nodes), edges=frozenset(zip(a.tolist(), b.tolist())))
    kept = [MapperNode(k, n.points, intervals=n.intervals, refined=n.refined)
            for k, n in enumerate(n for n in nodes if n.id not in dropped)]
    return MapperGraph(nodes=tuple(kept), edges=_edges_from_nodes(kept))
