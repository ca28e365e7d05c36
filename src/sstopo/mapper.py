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
from dataclasses import dataclass, field

import numpy as np

from ._kernels import (_join, freeze, id_order, neighbor_components, neighbor_sup_abs_diff,
                       run_starts, witness_sup)
from .errors import ConfigurationError, EmptyInputError

log = logging.getLogger(__name__)

# Eigenvalue gap below which a cloud has no dominant axis and the principal
# direction falls back to (1, 0) for determinism. One point or coincident
# points have zero covariance, a tie, so they get (1, 0) too.
EIGEN_TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LinearFilter:
    """Projection filter f(x) = <x - center, direction>, with unit direction.
    Both are held as read-only float64 copies, so the norm checked here is
    the one `_sup_cap` relies on."""

    center: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        freeze(self, np.float64, "center", "direction")
        if abs(float(np.linalg.norm(self.direction)) - 1.0) > 1e-12:
            raise ConfigurationError("filter direction must be a unit vector")


@dataclass(frozen=True)
class MapperParams:
    """Knobs of the graph construction; validated on creation."""

    delta: float
    theta_ov: float = 0.2
    alpha: float = 0.001

    def __post_init__(self):
        if not 0 < self.delta < np.inf:
            raise ConfigurationError(f"delta must be positive and finite, got {self.delta}")
        check_cover_params(self.theta_ov, self.alpha)


def check_cover_params(theta_ov: float, alpha: float) -> None:
    """Refuse an overlap ratio outside (0, 0.5) and an alpha that is not
    positive and finite; the one statement of these rules for every record
    that holds them."""
    if not 0.0 < theta_ov < 0.5:
        raise ConfigurationError(f"theta_ov must lie strictly between 0 and 0.5, got {theta_ov}")
    if not 0 < alpha < np.inf:
        raise ConfigurationError(f"alpha must be positive and finite, got {alpha}")


@dataclass(frozen=True, eq=False)
class MapperNode:
    """One cluster: its point indices plus the interval(s) it came from.
    A node is named by its position in its graph's `nodes`.

    `points` is held as a read-only int64 copy; the caller passes the
    indices strictly increasing."""

    points: np.ndarray
    intervals: tuple[int, ...] = ()
    refined: bool = False

    def __post_init__(self):
        freeze(self, np.int64, "points")


@dataclass(frozen=True, eq=False)
class MapperGraph:
    """Undirected unweighted graph over clusters; edge iff point sets intersect.
    A node is named by its position in `nodes`. `edges` is derived from the
    nodes: a read-only (m, 2) int64 array of the position pairs a < b that
    share a point, its rows strictly increasing by (a, b)."""

    nodes: tuple[MapperNode, ...]
    edges: np.ndarray = field(init=False)

    def __post_init__(self):
        lo, hi, _ = shared_counts(self.nodes)
        object.__setattr__(self, "edges", np.column_stack((lo, hi)))
        freeze(self, np.int64, "edges")

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=len(self.nodes))

    def connected_components(self) -> list[np.ndarray]:
        return components(len(self.nodes), self.edges)


def membership_table(point_sets) -> tuple[np.ndarray, np.ndarray]:
    """One (owner, point) row per member of each set, set by set: `owner` is
    the set's position."""
    sizes = [len(s) for s in point_sets]
    owner = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    point = np.concatenate([np.empty(0, dtype=np.int64), *point_sets]).astype(np.int64,
                                                                              copy=False)
    return owner, point


def shared_counts(nodes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, shared) for each pair of node positions a < b whose point sets
    meet, ordered by (a, b), with the number of points they share. The
    memberships sorted by point and then owner put the nodes of each point in
    a run."""
    owner, point = membership_table([n.points for n in nodes])
    order = np.lexsort((owner, point))
    point, owner = point[order], owner[order]
    width = len(nodes)
    keys = [np.empty(0, dtype=np.int64)]
    # Pair each membership with the one d places later in its run.
    for d in range(1, len(nodes)):
        same = np.flatnonzero(point[d:] == point[:-d])
        if not same.size:
            break
        keys.append(owner[same] * width + owner[same + d])
    keys = np.sort(np.concatenate(keys))
    starts = np.flatnonzero(run_starts(keys))
    lo, hi = np.divmod(keys[starts], width)
    return lo, hi, np.diff(np.append(starts, keys.size))


def components(n: int, edges: np.ndarray, keep=None) -> list[np.ndarray]:
    """Connected components of the graph on nodes 0..n-1 with the (m, 2)
    edge rows `edges`, among the nodes where the mask `keep` holds (all by
    default). Each comes ascending, in order of least node: `_join` roots a
    set at its least node, so a stable sort by root gives that order."""
    u, v = edges.T
    nodes = np.arange(n)
    if keep is not None:
        both = keep[u] & keep[v]
        u, v, nodes = u[both], v[both], nodes[keep]
    root = _join(np.arange(n), u, v)[nodes]
    order = np.argsort(root, kind="stable")
    starts = np.flatnonzero(run_starts(root[order]))
    # np.split of an empty array gives one empty piece; no nodes, no component.
    return np.split(nodes[order], starts[1:]) if nodes.size else []


def centroid(cloud: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the points."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] == 0:
        raise EmptyInputError("centroid of an empty cloud")
    return cloud.mean(axis=0)


def principal_direction(cloud: np.ndarray) -> np.ndarray:
    """Leading eigenvector of the 2x2 covariance of the centered cloud.

    Unit length, sign canonicalized (first nonzero component positive).
    A cloud with no dominant axis (eigenvalue gap < EIGEN_TIE_TOL), one
    point or coincident points included, yields (1, 0). An empty cloud
    raises `EmptyInputError`.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    centered = cloud - centroid(cloud)
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
    delta = 2.0 * float(cell_diag)
    if not 0 < delta < np.inf:
        raise ConfigurationError(f"cell diagonal must be positive and its double finite, "
                                 f"got {cell_diag}")
    return delta


def compute_l0(cloud: np.ndarray, filt: LinearFilter, delta: float, theta_ov: float,
               alpha: float | None = None) -> float:
    """Base interval length: sup of |f(xi)-f(xj)| over pairs closer than delta,
    divided by theta_ov. Falls back to the Lipschitz bound delta/theta_ov when
    no pair qualifies, as for a one-point cloud. An empty cloud raises
    `EmptyInputError`.

    With ``alpha``, the result is only as exact as the interval count at
    l' = (1 + alpha) * l0 needs: it may be any l0 that gives the count the
    exact one gives. When `_witness_counts` decides the count, the result is
    its lower bound over theta_ov and no grid is built; otherwise the exact
    supremum is taken.
    """
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] == 0:
        raise EmptyInputError("cannot compute l0 for an empty cloud")
    if alpha is not None:
        lo, _, decided = _witness_counts(cloud, np.zeros(len(cloud), dtype=np.int64), filt,
                                         delta, theta_ov, alpha)
        if decided[0]:
            return float(lo[0]) / theta_ov
    sup, found = neighbor_sup_abs_diff(cloud, eval_filter(filt, cloud), delta)
    if not found:
        return delta / theta_ov
    return sup / theta_ov


def _witness_counts(xy: np.ndarray, owner: np.ndarray, filt: LinearFilter, delta: float,
                    theta_ov: float, alpha: float):
    """For the point sets 0..m-1 of the rows xy, the set of each row given by
    `owner`, ascending, with no set empty: the supremum's witness lo (the
    best close pair among each point and its next few in its set across the
    filter direction), the interval count at lo, and whether lo decides the
    count.

    The count at a supremum s is the callers' arithmetic, l0 = s / theta_ov
    and l' = (1 + alpha) * l0. It does not increase as s grows, lo never
    exceeds the exact supremum, and that never exceeds `_sup_cap`'s cap. So
    the count is decided, and equal at lo and at the exact supremum, when
    lo > 0 and the count at lo is the count at the cap.
    """
    values = eval_filter(filt, xy)
    starts = np.flatnonzero(run_starts(owner))
    span = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
    lo = witness_sup(xy, values, delta, owner,
                     xy @ np.array([-filt.direction[1], filt.direction[0]]))
    with np.errstate(over="ignore"):
        at_lo = _count(span, (1.0 + alpha) * (lo / theta_ov), theta_ov)
        at_cap = _count(span, (1.0 + alpha) * (_sup_cap(xy, filt, delta, starts) / theta_ov),
                        theta_ov)
    return lo, at_lo, (lo > 0.0) & (at_lo == at_cap)


def witness_interval_counts(cloud: np.ndarray, point_sets, filt: LinearFilter,
                            params: MapperParams) -> np.ndarray:
    """The interval count under `filt` of each point set of `cloud`, given as
    ascending indices, none empty, where one grouped witness pass decides it,
    and 0 where it does not. A decided count is the one `interval_count`
    takes from `compute_l0(..., params.alpha)`'s l0, 2n + 1 cap and warning
    included; an undecided set needs the exact supremum."""
    owner, point = membership_table(point_sets)
    sizes = np.bincount(owner, minlength=len(point_sets))
    if not sizes.all():
        raise EmptyInputError("cannot count cover intervals for an empty point set")
    _, count, decided = _witness_counts(np.asarray(cloud, dtype=np.float64).take(point, 0),
                                        owner, filt, params.delta, params.theta_ov,
                                        params.alpha)
    out = np.zeros(len(point_sets), dtype=np.int64)
    out[decided] = _capped(count[decided], sizes[decided])
    return out


def _sup_cap(xy: np.ndarray, filt: LinearFilter, delta: float, starts) -> np.ndarray:
    """An upper bound, for each point set xy[starts[k]:starts[k+1]], on every
    |f(xi)-f(xj)| that the supremum kernel computes for a pair of the set it
    finds closer than delta.

    With u = 2**-53 the unit roundoff and M = max |xi - c|_1 over the set:
    - the kernel's test dx*dx + dy*dy < delta*delta rounds six times, so
      the pair's true distance is below delta * (1 + 4u);
    - the filter direction's norm is within 1e-12 of 1 (`LinearFilter`
      checks it, and its computed norm is off by at most 2u), so the true
      |f(xi) - f(xj)| is below delta * (1 + 4u) * (1 + 1e-12 + 2u);
    - each computed value rounds x - c, the two products and their sum, so
      it is off by at most 3.01u * M, and the subtraction of two values
      adds one relative u: in all, below delta * (1 + 1e-12 + 8u) + 6.1u * M.
    delta * 2**-30 is over 900 times 1e-12 + 8u, and 2**-40 * M is 8192u * M,
    so the cap holds with room for its own four roundings. Below the normal
    range a rounding is off by at most 2**-1075 absolutely instead; those
    errors stretch a distance by at most 2**-536, and 2**-500 covers them.
    """
    offset = np.abs(xy - filt.center)
    m = np.maximum.reduceat(offset[:, 0] + offset[:, 1], starts)
    return delta * (1.0 + 2.0**-30) + 2.0**-40 * m + 2.0**-500


def _count(span, l_prime, theta_ov: float) -> np.ndarray:
    """Cover intervals over each filter range `span` at working length
    l_prime, clamped to >= 1; floats, so that counts compare without
    overflow. An infinite l_prime, as a huge alpha gives, takes the formula's
    limit: one. A quotient that overflows reads inf without a warning, and so
    does one over a zero l_prime, which only a witness of 0 gives and no
    caller keeps."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        count = np.floor((span - theta_ov * l_prime) / ((1.0 - theta_ov) * l_prime))
    return np.where(l_prime == np.inf, 1.0, np.maximum(count, 1.0))


def _capped(count: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Counts capped at 2n + 1 for sets of n points. A point lies in at
    most two intervals, so more only adds empty preimages; far-apart tight
    clumps would otherwise request absurd counts, or an infinite one when
    span / l_prime overflows."""
    cap = 2 * sizes + 1
    over = count > cap
    for wanted, allowed in zip(count[over].tolist(), cap[over].tolist()):
        log.warning("interval count %g capped at %d; cloud is far from a "
                    "densely sampled curve", wanted, allowed)
    return np.where(over, cap, count).astype(np.int64)


def interval_count(cloud: np.ndarray, filt: LinearFilter, l_prime: float, theta_ov: float) -> int:
    """Number of cover intervals for the given working length, clamped to
    [1, 2n + 1] for n points (`_count`, `_capped`)."""
    if not l_prime > 0:
        raise ConfigurationError(f"l_prime must be positive, got {l_prime}")
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] == 0:
        raise EmptyInputError("cannot count cover intervals for an empty cloud")
    values = eval_filter(filt, cloud)
    count = _count(np.array([np.max(values) - np.min(values)]), l_prime, theta_ov)
    return int(_capped(count, np.array([cloud.shape[0]]))[0])


def build_cover(f_min: float, f_max: float, count: int, theta_ov: float) -> np.ndarray:
    """The (count, 2) intervals [a, b]: `count` equal-length intervals over
    [f_min, f_max] with adjacent overlap theta_ov * length. Endpoints of the
    first/last interval are pinned to the range exactly so coverage survives
    floating point."""
    if count < 1:
        raise ConfigurationError(f"interval count must be >= 1, got {count}")
    if f_max < f_min:
        raise ConfigurationError("f_max below f_min")
    span = f_max - f_min
    if not np.isfinite(span):
        raise ConfigurationError(f"cover range [{f_min}, {f_max}] must have a finite span")
    length = span / (count - (count - 1) * theta_ov)
    starts = f_min + np.arange(count) * (1.0 - theta_ov) * length
    intervals = np.column_stack([starts, starts + length])
    intervals[0, 0] = f_min
    intervals[-1, 1] = f_max
    return intervals


def _clusters(cloud, indices: np.ndarray, delta: float, groups=None):
    """Components of the strict-<delta graph on cloud[indices], joining only
    points of one group: the sorted indices of each, in order of their first
    position in `indices`, and that position."""
    labels = neighbor_components(np.asarray(cloud, dtype=np.float64).take(indices, 0), delta,
                                 groups)
    order = id_order(labels)
    starts = np.flatnonzero(np.diff(labels[order], prepend=-1))
    members = np.split(indices[order], starts[1:])
    return [np.sort(m) for m in members], order[starts]


def _preimages(values: np.ndarray, count: int, theta_ov: float) -> list[np.ndarray]:
    """The positions of `values` in each interval of the cover of their range
    by `count` intervals. Bounds are closed, so a value on a shared endpoint
    lies in both intervals."""
    cover = build_cover(float(values.min()), float(values.max()), count, theta_ov)
    return [np.flatnonzero((values >= a) & (values <= b)) for a, b in cover]


def build_mapper_graph(cloud: np.ndarray, filt: LinearFilter, params: MapperParams) -> MapperGraph:
    """Cover construction, preimage clustering, and graph assembly in one pass.

    The preimages of all intervals are clustered in one grouped neighbor
    pass. Nodes come interval by interval, each interval's clusters ordered
    by their least point index."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] == 0:
        raise EmptyInputError("cannot build a Mapper graph from an empty cloud")
    values = eval_filter(filt, cloud)
    l0 = compute_l0(cloud, filt, params.delta, params.theta_ov, params.alpha)
    if l0 <= 0.0:
        count = 1
    else:
        count = interval_count(cloud, filt, (1.0 + params.alpha) * l0, params.theta_ov)
    # One group per interval. The memberships are concatenated in interval
    # order, so the clusters, which follow first positions, come interval by
    # interval.
    members = _preimages(values, count, params.theta_ov)
    indices = np.concatenate(members)
    groups = np.repeat(np.arange(len(members)), [m.size for m in members])
    clusters, first = _clusters(cloud, indices, params.delta, groups)
    return MapperGraph(tuple(MapperNode(cluster, intervals=(interval,))
                             for cluster, interval in zip(clusters, groups[first].tolist())))
