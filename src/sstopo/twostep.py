"""Two-step Mapper graph construction.

Step one builds the initial graph with the principal-direction filter. Nodes
whose point sets would support two or more cover intervals under the
orthogonal filter are collected, adjacent ones merged, and each merged node
is replaced by a Mapper subgraph built under the orthogonal filter. Nodes of
a subgraph that touch the same outside neighbor are merged first, which is
what prevents the spurious cross edges that independent splitting of two
adjacent nodes would otherwise introduce. All edges are recomputed globally
at the end by the shared-point rule.
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
    compute_l0,
    interval_count,
    make_pca_filter,
)


@dataclass(frozen=True)
class SplitPlan:
    """Nodes slated for orthogonal refinement, after adjacency merging.

    `interval_counts[node]` is the orthogonal interval count that flagged the
    node; for a merged node it is the max over its members, so every entry is
    >= 2. No two nodes in `split_set` are adjacent in the working graph.
    """

    split_set: tuple[int, ...]
    interval_counts: dict[int, int]


@dataclass(frozen=True)
class TwoStepResult:
    initial_graph: MapperGraph
    graph: MapperGraph
    plan: SplitPlan
    filter: LinearFilter
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
    """Orthogonal interval count of one node's point set; 1 for degenerate sets."""
    ids = sorted(node_points)
    if len(ids) < 2:
        return 1
    sub = np.asarray(cloud, dtype=np.float64)[ids]
    l0 = compute_l0(sub, f_perp, params.delta, params.theta_ov)
    if l0 <= 0.0:
        return 1
    return interval_count(sub, f_perp, (1.0 + params.alpha) * l0, params.theta_ov)


def _cloud_filter(cloud: np.ndarray) -> LinearFilter:
    """PCA filter, falling back to direction (1, 0) for degenerate clouds so
    single-point and coincident clouds still flow through the pipeline."""
    try:
        return make_pca_filter(cloud)
    except DegenerateCloudError:
        return LinearFilter(centroid(cloud), np.array([1.0, 0.0]))


def plan_splits(
    graph: MapperGraph, cloud: np.ndarray, f_perp: LinearFilter, params: MapperParams
) -> SplitPlan:
    """Flag nodes with orthogonal interval count >= 2 and merge adjacent ones.

    Reported ids are the smallest member id of each merge group; counts reflect
    the group max. The refinement itself splits exactly these groups.
    """
    return _plan(*_split_groups(graph, cloud, f_perp, params))


def _split_groups(
    graph: MapperGraph, cloud: np.ndarray, f_perp: LinearFilter, params: MapperParams
) -> tuple[list[set[int]], dict[int, int]]:
    """Merge groups of the flagged nodes, plus every node's interval count."""
    counts = {
        n.id: split_interval_count(n.points, cloud, f_perp, params) for n in graph.nodes
    }
    flagged = sorted(nid for nid, s in counts.items() if s >= 2)
    return _merge_adjacent(graph, flagged), counts


def _plan(groups: list[set[int]], counts: dict[int, int]) -> SplitPlan:
    return SplitPlan(
        tuple(sorted(min(g) for g in groups)),
        {min(g): max(counts[m] for m in g) for g in groups},
    )


def _merge_adjacent(graph: MapperGraph, flagged: list[int]) -> list[set[int]]:
    """Connected components of the subgraph induced by the flagged nodes."""
    flagged_set = set(flagged)
    adj = graph.adjacency()
    seen: set[int] = set()
    groups: list[set[int]] = []
    for nid in flagged:
        if nid in seen:
            continue
        group = {nid}
        stack = [nid]
        seen.add(nid)
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt in flagged_set and nxt not in seen:
                    seen.add(nxt)
                    group.add(nxt)
                    stack.append(nxt)
        groups.append(group)
    return groups


def run_two_step(cloud: np.ndarray, params: MapperParams) -> TwoStepResult:
    """Both phases with wall-clock timings for each."""
    cloud = np.asarray(cloud, dtype=np.float64)
    t0 = time.perf_counter()
    filt = _cloud_filter(cloud)
    initial = build_mapper_graph(cloud, filt, params)
    t1 = time.perf_counter()

    f_perp = orthogonal_filter(filt)
    final, plan = _refine(initial, cloud, f_perp, params)
    t2 = time.perf_counter()

    return TwoStepResult(
        initial_graph=initial,
        graph=final,
        plan=plan,
        filter=filt,
        perp_filter=f_perp,
        seconds_initial=t1 - t0,
        seconds_refine=t2 - t1,
    )


def two_step_mapper(cloud: np.ndarray, params: MapperParams) -> MapperGraph:
    return run_two_step(cloud, params).graph


def _refine(
    initial: MapperGraph, cloud: np.ndarray, f_perp: LinearFilter, params: MapperParams
) -> tuple[MapperGraph, SplitPlan]:
    # Working copies keyed by node id; dict order keeps the result deterministic.
    points: dict[int, frozenset[int]] = {n.id: n.points for n in initial.nodes}
    intervals: dict[int, tuple[int, ...]] = {n.id: n.intervals for n in initial.nodes}
    refined: dict[int, bool] = {n.id: n.refined for n in initial.nodes}
    edges: set[tuple[int, int]] = set(initial.edges)

    groups, counts = _split_groups(initial, cloud, f_perp, params)
    plan = _plan(groups, counts)

    for group in groups:
        if len(group) < 2:
            continue
        keep = min(group)
        drop = sorted(group - {keep})
        merged_points = frozenset().union(*(points[m] for m in group))
        merged_intervals = tuple(sorted({k for m in group for k in intervals[m]}))
        points[keep] = merged_points
        intervals[keep] = merged_intervals
        rewired = set()
        for a, b in edges:
            a = keep if a in drop else a
            b = keep if b in drop else b
            if a != b:
                rewired.add((min(a, b), max(a, b)))
        edges = rewired
        for m in drop:
            del points[m], intervals[m], refined[m]

    adjacency: dict[int, set[int]] = {nid: set() for nid in points}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    next_id = max(points) + 1 if points else 0
    for vid in plan.split_set:
        ids_sorted = sorted(points[vid])
        sub = cloud[ids_sorted]
        subgraph = build_mapper_graph(sub, f_perp, params)
        local_sets = [
            frozenset(ids_sorted[i] for i in node.points) for node in subgraph.nodes
        ]
        local_intervals = [node.intervals for node in subgraph.nodes]

        # Nodes of the subgraph touching one same neighbor collapse together;
        # overlapping merge groups from different neighbors union transitively.
        parent = list(range(len(local_sets)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for nb in sorted(adjacency[vid]):
            nb_points = points[nb]
            touching = [i for i, s in enumerate(local_sets) if s & nb_points]
            for a, b in zip(touching, touching[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

        merged: dict[int, list[int]] = {}
        for i in range(len(local_sets)):
            merged.setdefault(find(i), []).append(i)

        for root in sorted(merged):
            members = merged[root]
            new_points = frozenset().union(*(local_sets[i] for i in members))
            new_intervals = tuple(sorted({k for i in members for k in local_intervals[i]}))
            points[next_id] = new_points
            intervals[next_id] = new_intervals
            refined[next_id] = True
            next_id += 1
        del points[vid], intervals[vid], refined[vid]

    nodes = tuple(
        MapperNode(new_id, pts, intervals=intervals[old_id], refined=refined[old_id])
        for new_id, (old_id, pts) in enumerate(points.items())
    )
    return MapperGraph(nodes=nodes, edges=_edges_from_nodes(list(nodes))), plan
