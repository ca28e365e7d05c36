"""Mapper machinery for planar point clouds.

Linear-projection filters from PCA, theory-guided parameter computation
(clustering radius, base interval length, interval count), uniform
overlapping covers, delta-neighborhood clustering, and graph construction.
The clustering radius delta is chosen so that four times the certified
sample-to-curve Hausdorff bound never exceeds it, which is what makes the
graph's topology trustworthy away from singular points.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._kernels import neighbor_components, neighbor_sup_abs_diff
from .errors import ConfigurationError, DegenerateCloudError, EmptyInputError

log = logging.getLogger(__name__)

# Eigenvalue gap below which a cloud counts as isotropic and the principal
# direction falls back to (1, 0) for determinism.
EIGEN_TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LinearFilter:
    """Projection filter f(x) = <x - center, direction>, with unit direction."""

    center: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        object.__setattr__(self, "direction", np.asarray(self.direction, dtype=np.float64))
        if abs(float(np.linalg.norm(self.direction)) - 1.0) > 1e-12:
            raise ValueError("filter direction must be a unit vector")

    def __call__(self, x: np.ndarray) -> np.ndarray | float:
        return eval_filter(self, x)


@dataclass(frozen=True, eq=False)
class Cover:
    """Ordered equal-length overlapping intervals spanning a filter's range."""

    intervals: np.ndarray  # (S, 2)
    length: float
    overlap_ratio: float

    @property
    def size(self) -> int:
        return self.intervals.shape[0]

    def membership(self, values: np.ndarray) -> list[np.ndarray]:
        """Indices of values inside each interval (closed bounds, so points on
        a shared endpoint belong to both)."""
        values = np.asarray(values)
        return [
            np.nonzero((values >= a) & (values <= b))[0]
            for a, b in self.intervals
        ]


@dataclass(frozen=True)
class MapperParams:
    """Knobs of the graph construction; validated on creation."""

    delta: float
    theta_ov: float = 0.2
    alpha: float = 0.001

    def __post_init__(self):
        if not self.delta > 0:
            raise ConfigurationError(f"delta must be positive, got {self.delta}")
        if not 0.0 < self.theta_ov < 0.5:
            raise ConfigurationError(
                f"theta_ov must lie strictly between 0 and 0.5, got {self.theta_ov}"
            )
        if not self.alpha > 0:
            raise ConfigurationError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class MapperNode:
    """One cluster: a set of point indices plus the interval(s) it came from."""

    id: int
    points: frozenset[int]
    intervals: tuple[int, ...] = ()
    refined: bool = False

    def sorted_points(self) -> tuple[int, ...]:
        return tuple(sorted(self.points))


@dataclass(frozen=True)
class MapperGraph:
    """Undirected unweighted graph over clusters; edge iff point sets intersect."""

    nodes: tuple[MapperNode, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degrees(self) -> dict[int, int]:
        return {nid: len(nb) for nid, nb in self.adjacency().items()}

    def connected_components(self) -> list[list[int]]:
        return components(self.adjacency())

    def point_union(self) -> frozenset[int]:
        out: set[int] = set()
        for n in self.nodes:
            out |= n.points
        return frozenset(out)

    def node_by_id(self, node_id: int) -> MapperNode:
        return self.nodes[node_id]


def _edges_from_nodes(nodes: list[MapperNode]) -> frozenset[tuple[int, int]]:
    """Edge iff two nodes share a point: the (point, node) memberships are
    sorted by point and then node, so the nodes of each point form a run."""
    sizes = [len(node.points) for node in nodes]
    point = np.fromiter(chain.from_iterable(node.points for node in nodes),
                        dtype=np.int64, count=sum(sizes))
    owner = np.repeat(np.array([node.id for node in nodes], dtype=np.int64), sizes)
    order = np.lexsort((owner, point))
    point, owner = point[order], owner[order]
    width = int(owner.max(initial=0)) + 1
    keys = [np.empty(0, dtype=np.int64)]
    # Pair each membership with the one d places later in its run.
    for d in range(1, len(nodes)):
        same = point[d:] == point[:-d]
        if not same.any():
            break
        keys.append(owner[:-d][same] * width + owner[d:][same])
    lo, hi = np.divmod(np.unique(np.concatenate(keys)), width)
    return frozenset(zip(lo.tolist(), hi.tolist()))


def components(adj: dict[int, set[int]]) -> list[list[int]]:
    """Connected components of an adjacency map, skipping neighbours that are
    not keys. Each component is sorted; components come in the order of their
    first key."""
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in adj:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            cur = stack.pop()
            comp.append(cur)
            for nxt in adj[cur]:
                if nxt in adj and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        comps.append(sorted(comp))
    return comps


def centroid(cloud: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the points."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] == 0:
        raise EmptyInputError("centroid of an empty cloud")
    return cloud.mean(axis=0)


def principal_direction(cloud: np.ndarray) -> np.ndarray:
    """Leading eigenvector of the 2x2 covariance of the centered cloud.

    Unit length, sign canonicalized (first nonzero component positive).
    An isotropic cloud (eigenvalue gap < EIGEN_TIE_TOL) yields (1, 0).
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] < 2:
        raise DegenerateCloudError("need at least two points for a principal direction")
    centered = cloud - cloud.mean(axis=0)
    if not np.any(centered):
        raise DegenerateCloudError("all points identical; principal direction undefined")
    cov = centered.T @ centered / cloud.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[1] - eigvals[0] < EIGEN_TIE_TOL:
        return np.array([1.0, 0.0])
    w = eigvecs[:, 1]
    if w[0] < 0 or (w[0] == 0 and w[1] < 0):
        w = -w
    return w / np.linalg.norm(w)


def make_pca_filter(cloud: np.ndarray) -> LinearFilter:
    return LinearFilter(centroid(cloud), principal_direction(cloud))


def eval_filter(filt: LinearFilter, x: np.ndarray) -> np.ndarray | float:
    """Projection of x (a point or an (n, 2) array) onto the filter direction.

    1-Lipschitz: |f(x) - f(y)| <= ||x - y||.
    """
    x = np.asarray(x, dtype=np.float64)
    out = (x - filt.center) @ filt.direction
    return float(out) if out.ndim == 0 else out


def default_delta(cell_diag: float) -> float:
    """Clustering radius from the subdivision cell size: twice the cell diagonal.

    Equals four times the certified half-diagonal Hausdorff bound, the
    smallest radius the correctness condition permits.
    """
    if cell_diag <= 0:
        raise ConfigurationError(f"cell diagonal must be positive, got {cell_diag}")
    return 2.0 * cell_diag


def compute_l0(cloud: np.ndarray, filt: LinearFilter, delta: float, theta_ov: float) -> float:
    """Base interval length: sup of |f(xi)-f(xj)| over pairs closer than delta,
    divided by theta_ov. Falls back to the Lipschitz bound delta/theta_ov when
    no pair qualifies."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] < 2:
        raise DegenerateCloudError("need at least two points to compute l0")
    values = eval_filter(filt, cloud)
    sup, found = neighbor_sup_abs_diff(cloud, values, delta)
    if not found:
        return delta / theta_ov
    return sup / theta_ov


def interval_count(cloud: np.ndarray, filt: LinearFilter, l_prime: float, theta_ov: float) -> int:
    """Number of cover intervals for the given working length, clamped to >= 1."""
    if l_prime <= 0:
        raise ConfigurationError(f"l_prime must be positive, got {l_prime}")
    values = eval_filter(filt, np.asarray(cloud, dtype=np.float64))
    span = float(np.max(values) - np.min(values))
    s = int(np.floor((span - theta_ov * l_prime) / ((1.0 - theta_ov) * l_prime)))
    return max(s, 1)


def build_cover(f_min: float, f_max: float, count: int, theta_ov: float) -> Cover:
    """`count` equal-length intervals over [f_min, f_max] with adjacent overlap
    theta_ov * length. Endpoints of the first/last interval are pinned to the
    range exactly so coverage survives floating point."""
    if count < 1:
        raise ConfigurationError(f"interval count must be >= 1, got {count}")
    if f_max < f_min:
        raise ConfigurationError("f_max below f_min")
    span = f_max - f_min
    length = span / (count - (count - 1) * theta_ov)
    starts = f_min + np.arange(count) * (1.0 - theta_ov) * length
    intervals = np.column_stack([starts, starts + length])
    intervals[0, 0] = f_min
    intervals[-1, 1] = f_max
    return Cover(intervals=intervals, length=float(length), overlap_ratio=float(theta_ov))


def cluster_preimage(indices: np.ndarray, cloud: np.ndarray, delta: float) -> list[np.ndarray]:
    """Partition the given point indices into connected components of the
    strict-<delta neighborhood graph. Clusters are ordered by first member."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return []
    cloud = np.asarray(cloud, dtype=np.float64)
    labels = neighbor_components(cloud[indices], delta)
    clusters: list[np.ndarray] = []
    for lab in range(int(labels.max()) + 1):
        clusters.append(np.sort(indices[labels == lab]))
    return clusters


def build_mapper_graph(cloud: np.ndarray, filt: LinearFilter, params: MapperParams) -> MapperGraph:
    """Cover construction, preimage clustering, and graph assembly in one pass."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] == 0:
        raise EmptyInputError("cannot build a Mapper graph from an empty cloud")
    if cloud.shape[0] == 1:
        node = MapperNode(0, frozenset([0]), intervals=(0,))
        return MapperGraph(nodes=(node,), edges=frozenset())

    values = eval_filter(filt, cloud)
    l0 = compute_l0(cloud, filt, params.delta, params.theta_ov)
    if l0 <= 0.0:
        count = 1
    else:
        count = interval_count(cloud, filt, (1.0 + params.alpha) * l0, params.theta_ov)
    # A point lies in at most two intervals, so resolution beyond 2n+1
    # intervals only adds empty preimages; degenerate clouds (far-apart tight
    # clumps) would otherwise request absurd counts.
    cap = 2 * cloud.shape[0] + 1
    if count > cap:
        log.warning("interval count %d capped at %d; cloud is far from a "
                    "densely sampled curve", count, cap)
        count = cap
    cover = build_cover(float(values.min()), float(values.max()), count, params.theta_ov)

    nodes: list[MapperNode] = []
    for k, members in enumerate(cover.membership(values)):
        for cluster in cluster_preimage(members, cloud, params.delta):
            nodes.append(
                MapperNode(len(nodes), frozenset(cluster.tolist()), intervals=(k,))
            )
    return MapperGraph(nodes=tuple(nodes), edges=_edges_from_nodes(nodes))
