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
    _clusters,
    build_cover,
    check_cloud,
    components,
    compute_l0,
    eval_filter,
    interval_count,
    make_pca_filter,
    membership_table,
    witness_interval_counts,
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
    node_points, cloud: np.ndarray, filt: LinearFilter, params: MapperParams
) -> int:
    """Interval count under any filter of one point set of `cloud`, given as
    ascending indices, from the exact l0. A one-point or coincident set gets
    1 by the general rules: no close pair gives l0 = delta/theta_ov, a zero
    l0 gives one interval, and so does a zero filter span. `_counts` calls it
    for each set, the initial graph's whole cloud included, that its grouped
    pass of lower bounds leaves undecided."""
    sub = np.asarray(cloud, dtype=np.float64)[node_points]
    l0 = compute_l0(sub, filt, params.delta, params.theta_ov)
    if l0 <= 0.0:
        return 1
    return interval_count(sub, filt, (1.0 + params.alpha) * l0, params.theta_ov)


def _counts(point_sets, cloud: np.ndarray, filt: LinearFilter, params: MapperParams,
            values: np.ndarray) -> np.ndarray:
    """`split_interval_count` of each point set, from one grouped pass of
    lower bounds and one exact call per set that the pass leaves undecided.
    `values` are the filter's values at every point of `cloud`."""
    counts = witness_interval_counts(cloud, point_sets, filt, params, values)
    for i in np.flatnonzero(counts == 0).tolist():
        counts[i] = split_interval_count(point_sets[i], cloud, filt, params)
    return counts


def _covers(cloud: np.ndarray, point_sets, counts: np.ndarray, values: np.ndarray,
            params: MapperParams):
    """For each point set of `cloud` (ascending index arrays, none empty),
    the clusters of its cover of `counts` intervals under the filter whose
    values at the points of `cloud` are `values`, and their interval
    numbers. Cover bounds are closed: a value on a shared endpoint lies in
    both intervals. Every (set, interval) preimage is clustered in one
    grouped pass, one group id each, so the clusters come set by set and
    interval by interval, each interval's in order of least point."""
    preimages = []
    for ids, count in zip(point_sets, counts.tolist()):
        v = values[ids]
        for a, b in build_cover(float(v.min()), float(v.max()), count, params.theta_ov):
            preimages.append(ids[(v >= a) & (v <= b)])
    cover_of = np.repeat(np.arange(len(preimages)), [p.size for p in preimages])
    clusters, first = _clusters(cloud, np.concatenate(preimages), params.delta, cover_of)
    # Covers are numbered set by set: set s's interval k is cover starts[s] + k.
    cover_of = cover_of[first]
    starts = np.cumsum(counts) - counts
    cuts = np.searchsorted(cover_of, np.append(starts, len(preimages))).tolist()
    return [(clusters[lo:hi], (cover_of[lo:hi] - start).tolist())
            for lo, hi, start in zip(cuts, cuts[1:], starts.tolist())]


def build_mapper_graph(cloud: np.ndarray, filt: LinearFilter, params: MapperParams) -> MapperGraph:
    """The Mapper graph of the whole cloud under `filt`, the one-set case of
    `_covers`. Raises `DegenerateCloudError` on a cloud `check_cloud`
    refuses and `EmptyInputError` on an empty one."""
    cloud = check_cloud(cloud)
    values = eval_filter(filt, cloud)
    whole = [np.arange(len(cloud))]
    [(clusters, intervals)] = _covers(cloud, whole, _counts(whole, cloud, filt, params, values),
                                      values, params)
    return MapperGraph(tuple(MapperNode(cluster, intervals=(interval,))
                             for cluster, interval in zip(clusters, intervals)))


def _sorted_union(arrays) -> np.ndarray:
    """Distinct members of int64 arrays, ascending."""
    merged = np.sort(np.concatenate(arrays))
    return merged[run_starts(merged)]


def run_two_step(cloud: np.ndarray, params: MapperParams) -> TwoStepResult:
    """Both phases with wall-clock timings for each. Raises
    `DegenerateCloudError` on a cloud `check_cloud` refuses."""
    cloud = check_cloud(cloud)
    t0 = time.perf_counter()
    filt = make_pca_filter(cloud)
    initial = build_mapper_graph(cloud, filt, params)
    t1 = time.perf_counter()

    f_perp = orthogonal_filter(filt)
    values = eval_filter(f_perp, cloud)
    counts = _counts([n.points for n in initial.nodes], cloud, f_perp, params, values)
    groups = tuple(tuple(g.tolist())
                   for g in components(initial.node_count, initial.edges, counts >= 2))
    final = _collapse(_refine(initial, groups, counts, cloud, f_perp, values, params))
    t2 = time.perf_counter()

    return TwoStepResult(
        initial_graph=initial,
        graph=final,
        counts=tuple(counts.tolist()),
        groups=groups,
        perp_filter=f_perp,
        seconds_initial=t1 - t0,
        seconds_refine=t2 - t1,
    )


def _refine(initial: MapperGraph, groups, counts: np.ndarray, cloud: np.ndarray,
            f_perp: LinearFilter, values: np.ndarray, params: MapperParams) -> list[MapperNode]:
    """Replace each group of initial nodes by its orthogonal subgraph's
    nodes: the unflagged node objects in their order, then each group's new
    nodes. A group's outside neighbors are the far ends of the initial edges
    with exactly one end in the group. `counts` are the initial nodes'
    orthogonal interval counts and `values` the values of `f_perp` at the
    points of `cloud`.

    One `_covers` call rebuilds the unions of all the groups. A one-node
    group's union is its node's point set, so it keeps that node's count;
    the larger unions are counted in one `_counts` call."""
    nodes = initial.nodes
    flagged = {m for group in groups for m in group}
    out = [n for i, n in enumerate(nodes) if i not in flagged]
    if not groups:
        return out
    unions = [_sorted_union([nodes[m].points for m in group]) for group in groups]
    union_counts = np.array([counts[group[0]] for group in groups])
    larger = [k for k, group in enumerate(groups) if len(group) > 1]
    if larger:
        union_counts[larger] = _counts([unions[k] for k in larger], cloud, f_perp, params, values)
    for group, (local_sets, intervals) in zip(groups, _covers(cloud, unions, union_counts,
                                                              values, params)):
        # A flagged neighbor would be in the group, so these are all unflagged.
        ends = np.isin(initial.edges, group)
        neighbors = np.unique(initial.edges[~ends & ends[:, ::-1]])

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
            new_intervals = {intervals[i] for i in members}
            out.append(MapperNode(new_points, tuple(sorted(new_intervals)), refined=True))
    return out


def _collapse(nodes: list[MapperNode]) -> MapperGraph:
    """The graph of `nodes` without every node whose point set lies in an
    adjacent node's set; of equal sets the earliest stays. The kept node
    objects are returned as they are, in order, and when no node is dropped
    the graph of all of them, built first, is returned as it is.

    Such a node is a dominated vertex of the nerve, so dropping it is a
    strong collapse and keeps the homotopy type (Barmak & Minian, DCG 2012).
    Containment, with equal sets ordered by position, is a partial order
    that does not depend on the other nodes, and two nested nonempty sets
    are always adjacent. So one pass drops exactly the nodes that are not
    maximal: each lies in a kept node, and no kept node lies in another, so
    a second pass would drop nothing. Node b lies in node a exactly when
    they share as many points as b has.
    """
    graph = MapperGraph(tuple(nodes))
    a, b = graph.edges.T
    sizes = np.array([n.points.size for n in nodes], dtype=np.int64)
    b_in_a = graph.shared == sizes[b]
    a_in_b = ~b_in_a & (graph.shared == sizes[a])
    kept = np.ones(len(nodes), dtype=bool)
    kept[b[b_in_a]] = False
    kept[a[a_in_b]] = False
    if kept.all():
        return graph
    return MapperGraph(tuple(n for n, k in zip(nodes, kept.tolist()) if k))
