"""Mapper machinery for planar point clouds.

Linear-projection filters from PCA, theory-guided parameter computation
(clustering radius, base interval length, interval count), uniform
overlapping covers, delta-neighborhood clustering, and the node and graph
records; `twostep` builds the graphs from them.
The clustering radius delta is chosen so that four times the certified
sample-to-curve Hausdorff bound never exceeds it, which is what makes the
graph's topology trustworthy away from singular points.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from ._kernels import (_join, extreme_sup, freeze, id_order, neighbor_components,
                       neighbor_sup_abs_diff, run_starts, witness_sup)
from .errors import ConfigurationError, DegenerateCloudError, EmptyInputError, check_open

log = logging.getLogger(__name__)

# Eigenvalue gap below which a cloud has no dominant axis and the principal
# direction falls back to (1, 0) for determinism. One point or coincident
# points have zero covariance, a tie, so they get (1, 0) too.
EIGEN_TIE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class LinearFilter:
    """Projection filter f(x) = <x - center, direction>, with unit direction.
    Both are held as read-only float64 copies, so the norm checked here is
    the one `_sup_cap` relies on. A center or direction that is not a
    2-vector, a center that is not finite, and a direction whose norm is not
    within 1e-12 of 1, NaN included, raise `ConfigurationError`."""

    center: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        freeze(self, np.float64, "center", "direction")
        if self.center.shape != (2,) or self.direction.shape != (2,):
            raise ConfigurationError(f"filter center and direction must be 2-vectors, got shapes "
                                     f"{self.center.shape} and {self.direction.shape}")
        if not np.isfinite(self.center).all():
            raise ConfigurationError("filter center must be finite")
        # Written so that a NaN norm fails.
        if not abs(float(np.linalg.norm(self.direction)) - 1.0) <= 1e-12:
            raise ConfigurationError("filter direction must be a unit vector")


@dataclass(frozen=True)
class MapperParams:
    """Knobs of the graph construction; validated on creation."""

    delta: float
    theta_ov: float = 0.2
    alpha: float = 0.001

    def __post_init__(self):
        check_open(self.delta, "delta must be positive and finite")
        check_cover_params(self.theta_ov, self.alpha)


def check_cover_params(theta_ov: float, alpha: float) -> None:
    """Refuse an overlap ratio outside (0, 0.5) and an alpha that is not
    positive and finite; the one statement of these rules for every record
    that holds them."""
    check_theta(theta_ov)
    check_open(alpha, "alpha must be positive and finite")


def check_theta(theta_ov: float) -> None:
    """Refuse an overlap ratio outside (0, 0.5)."""
    check_open(theta_ov, "theta_ov must lie strictly between 0 and 0.5", high=0.5)


def check_cloud(points) -> np.ndarray:
    """`points` as a float64 array, refused with `DegenerateCloudError`
    unless it is an `(n, 2)` array of real numbers, empty or not: not
    ragged, no strings or bools, finite coordinates, each of magnitude at
    most m with 8 n m^2 finite."""
    try:
        points = np.asarray(points)
    except ValueError:
        raise DegenerateCloudError("a cloud is an (n, 2) array, got a ragged nesting") from None
    if points.dtype.kind not in "iuf":
        raise DegenerateCloudError(f"cloud coordinates must be real numbers, got {points.dtype}")
    points = points.astype(np.float64, copy=False)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DegenerateCloudError(f"a cloud is an (n, 2) array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise DegenerateCloudError("cloud coordinates must be finite")
    # With every |coordinate| at most m, 8 n m^2 bounds the PCA filter's sums:
    # of the coordinates, and of their squared offsets from the mean.
    m = float(max(points.max(initial=0.0), -points.min(initial=0.0)))
    if not np.isfinite(8.0 * len(points) * m * m):
        raise DegenerateCloudError("cloud coordinates too large: the PCA filter's sums overflow")
    return points


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
    A node is named by its position in `nodes`. `edges`, `shared` and
    `singular_nodes` are derived from the nodes, each a read-only int64
    array: `edges` is the (m, 2) array of the position pairs a < b that share
    a point, its rows strictly increasing by (a, b), `shared[k]` the number
    of points edge k's nodes share, and `singular_nodes` the ascending
    positions of the nodes of degree above two."""

    nodes: tuple[MapperNode, ...]
    edges: np.ndarray = field(init=False)
    shared: np.ndarray = field(init=False)
    singular_nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        lo, hi, shared = shared_counts(self.nodes)
        object.__setattr__(self, "edges", np.column_stack((lo, hi)))
        object.__setattr__(self, "shared", shared)
        object.__setattr__(self, "singular_nodes", np.flatnonzero(self.degrees() > 2))
        freeze(self, np.int64, "edges", "shared", "singular_nodes")

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
    meet, ordered by (a, b), with the number of points they share. Only the
    memberships of points in two or more nodes can pair; a count per point id
    finds them when the ids span few more values than there are memberships,
    and otherwise every membership is kept. Sorted by point and then owner,
    they put the nodes of each point in a run; the rows come owner by owner,
    so a stable sort by point gives that order. Each node's points ascend,
    and numpy's stable sort merges such runs faster than `id_order`
    radix-sorts them."""
    owner, point = membership_table([n.points for n in nodes])
    if point.size and int(point.max()) - int(point.min()) < 4 * point.size + 1024:
        index = point - point.min()
        shared = np.flatnonzero(np.bincount(index).take(index) > 1)
        owner, point = owner.take(shared), point.take(shared)
    order = np.argsort(point, kind="stable")
    point, owner = point.take(order), owner.take(order)
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
    """Arithmetic mean of the points of a cloud `check_cloud` accepts. An
    empty cloud raises `EmptyInputError`."""
    return _mean(check_cloud(cloud))


def _mean(cloud: np.ndarray) -> np.ndarray:
    if cloud.shape[0] == 0:
        raise EmptyInputError("centroid of an empty cloud")
    return cloud.mean(axis=0)


def principal_direction(cloud: np.ndarray) -> np.ndarray:
    """Leading eigenvector of the 2x2 covariance of the centered cloud, for
    a cloud `check_cloud` accepts.

    Unit length, sign canonicalized (first nonzero component positive).
    A cloud with no dominant axis (eigenvalue gap < EIGEN_TIE_TOL), one
    point or coincident points included, yields (1, 0). An empty cloud
    raises `EmptyInputError`.
    """
    cloud = check_cloud(cloud)
    return _leading_axis(cloud, _mean(cloud))


def _leading_axis(cloud: np.ndarray, center: np.ndarray) -> np.ndarray:
    centered = _offsets(cloud, center)
    cov = centered.T @ centered / cloud.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    if eigvals[1] - eigvals[0] < EIGEN_TIE_TOL:
        return np.array([1.0, 0.0])
    w = eigvecs[:, 1]
    if w[0] < 0 or (w[0] == 0 and w[1] < 0):
        w = -w
    return w / np.linalg.norm(w)


def make_pca_filter(cloud: np.ndarray) -> LinearFilter:
    """The filter along `principal_direction` through `centroid`, for a
    cloud `check_cloud` accepts."""
    cloud = check_cloud(cloud)
    center = _mean(cloud)
    return LinearFilter(center, _leading_axis(cloud, center))


def _offsets(x: np.ndarray, center: np.ndarray) -> np.ndarray:
    """x - center for a point or an (n, 2) array, as a new C-contiguous
    array. Column by column it has the broadcast's bits, and numpy runs it in
    less than half the broadcast's time over (n, 2) rows."""
    out = np.empty(x.shape)
    np.subtract(x[..., 0], center[0], out=out[..., 0])
    np.subtract(x[..., 1], center[1], out=out[..., 1])
    return out


def eval_filter(filt: LinearFilter, x: np.ndarray) -> np.ndarray | float:
    """Projection of x (a point or an (n, 2) array) onto the filter direction.
    Any other shape raises `DegenerateCloudError`; the values are not
    checked, since this runs on every cloud the Mapper counts.

    1-Lipschitz: |f(x) - f(y)| <= ||x - y||.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 2 or x.shape[-1:] != (2,):
        raise DegenerateCloudError(f"a filter takes a point or an (n, 2) array, got shape "
                                   f"{x.shape}")
    out = _offsets(x, filt.center) @ filt.direction
    return float(out) if out.ndim == 0 else out


def default_delta(cell_diag: float) -> float:
    """Clustering radius from the subdivision cell size: twice the cell diagonal.

    Equals four times the certified half-diagonal Hausdorff bound, the
    smallest radius the correctness condition permits.
    """
    check_open(cell_diag, "cell diagonal must be positive and its double finite",
               high=np.finfo(np.float64).max / 2)
    return 2.0 * float(cell_diag)


def compute_l0(cloud: np.ndarray, filt: LinearFilter, delta: float, theta_ov: float) -> float:
    """Base interval length: sup of |f(xi)-f(xj)| over pairs closer than delta,
    divided by theta_ov. Falls back to the Lipschitz bound delta/theta_ov when
    no pair qualifies, as for a one-point cloud. An empty cloud raises
    `EmptyInputError`."""
    cloud = np.asarray(cloud, dtype=np.float64)
    if cloud.shape[0] == 0:
        raise EmptyInputError("cannot compute l0 for an empty cloud")
    sup, found = neighbor_sup_abs_diff(cloud, eval_filter(filt, cloud), delta)
    if not found:
        return delta / theta_ov
    return sup / theta_ov


def witness_interval_counts(cloud: np.ndarray, point_sets, filt: LinearFilter,
                            params: MapperParams, values: np.ndarray) -> np.ndarray:
    """The interval count under `filt` of each point set of `cloud`, given as
    ascending indices, none empty, where one grouped pass of lower bounds
    decides it, and 0 where it needs the exact supremum. A decided count is
    the exact one, 2n + 1 cap and warning included. `values` are the
    filter's values at every point of `cloud`, which the caller evaluates
    once for all its passes.

    The count at a supremum s, from l0 = s / theta_ov and l' = (1 + alpha) *
    l0, does not increase as s grows. A set's lower bound lo never exceeds
    its exact supremum, nor that `_sup_cap`'s cap. So the count is decided,
    and equal at lo and at the exact supremum, when lo > 0 and the count at
    lo is the count at the cap. The first lo is the best close pair between
    a point and the set's extreme points along the filter, which sorts
    nothing. Only the sets it leaves undecided go on to the witness: the
    best close pair among each point and its next few in its set across the
    filter direction."""
    owner, point = membership_table(point_sets)
    sizes = np.bincount(owner, minlength=len(point_sets))
    if not sizes.all():
        raise EmptyInputError("cannot count cover intervals for an empty point set")
    cloud = np.asarray(cloud, dtype=np.float64)
    values = values.take(point)
    xy = cloud.take(point, 0)
    starts = np.flatnonzero(run_starts(owner))
    span = np.maximum.reduceat(values, starts) - np.minimum.reduceat(values, starts)
    theta, grow = params.theta_ov, 1.0 + params.alpha

    def count_at(sup):
        with np.errstate(over="ignore"):
            return _count(span, grow * (sup / theta), theta)

    at_cap = count_at(_sup_cap(xy, filt, params.delta, starts))
    lo = extreme_sup(xy, values, params.delta, owner)
    at_lo = count_at(lo)
    undecided = (lo <= 0.0) | (at_lo != at_cap)
    if undecided.any():
        rows = np.flatnonzero(undecided[owner])
        sub = xy.take(rows, 0)
        witness = witness_sup(sub, values.take(rows), params.delta, owner.take(rows),
                              sub @ np.array([-filt.direction[1], filt.direction[0]]))
        rest = np.flatnonzero(undecided)
        lo[rest] = np.maximum(lo[rest], witness[rest])
        at_lo = count_at(lo)
    decided = (lo > 0.0) & (at_lo == at_cap)
    out = np.zeros(len(point_sets), dtype=np.int64)
    out[decided] = _capped(at_lo[decided], sizes[decided])
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
    offset = _offsets(xy, filt.center)
    np.abs(offset, out=offset)
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
    floating point. A count that is not an integer (a bool included), a
    range bound or theta_ov that is not a real number raises
    `ConfigurationError`."""
    if isinstance(count, bool) or not isinstance(count, Integral) or count < 1:
        raise ConfigurationError(f"interval count must be >= 1 and an integer, got {count!r}")
    check_theta(theta_ov)
    finite = f"cover range [{f_min}, {f_max}] must have a finite span"
    for bound in (f_min, f_max):
        check_open(bound, finite, -np.inf)
    if f_max < f_min:
        raise ConfigurationError("f_max below f_min")
    span = f_max - f_min
    check_open(span, finite, -np.inf)
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
