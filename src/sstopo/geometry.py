"""Tensor-product B-spline surfaces and patch restriction. A parameter
rectangle is a `(u_min, u_max, v_min, v_max)` sequence, as `param_range` gives.

Surfaces are immutable after construction and all operations are pure, so
callers may evaluate/split concurrently without coordination. Evaluation,
patch restriction and the subdivision's splits all work by knot insertion,
through one axis-generic split of a batch of nets along either parameter
direction; the control net of a restricted patch encloses the patch by the
convex-hull property, which is what makes the subdivision bounding boxes
conservative.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import _kernels
from .errors import ParameterRangeError


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Nondecreasing knot sequence with its polynomial degree.

    ``periodic`` marks an unclamped vector backing a closed direction; the
    valid parameter range is [knots[degree], knots[-degree-1]] either way.
    """

    knots: np.ndarray
    degree: int
    periodic: bool = False

    def __post_init__(self):
        _kernels.freeze(self, np.float64, "knots", shape=(-1,))
        if self.degree < 0:
            raise ParameterRangeError("degree must be nonnegative")
        if self.knots.size < self.degree + 2:
            raise ParameterRangeError("knot vector too short for degree")
        if not np.isfinite(self.knots).all():
            raise ParameterRangeError("knots must be finite")
        # Below 2**480 in magnitude, every parameter width is below 2**481,
        # so halving sums, cell diagonals, delta and cell and domain areas
        # (below 2**962) stay finite. So do the PCA sums of a domain's cloud:
        # n centered squares, each below 2**962, and a cloud of n points
        # takes 16n bytes, so n < 2**60.
        if np.abs(self.knots).max() >= 2.0**480:
            raise ParameterRangeError("knots must be below 2**480 in magnitude")
        if np.any(np.diff(self.knots) < 0):
            raise ParameterRangeError("knots must be nondecreasing")
        if not self.start < self.end:
            raise ParameterRangeError("valid parameter range is empty")

    @property
    def count(self) -> int:
        """Number of basis functions / control rows this vector supports."""
        return self.knots.size - self.degree - 1

    @property
    def start(self) -> float:
        return float(self.knots[self.degree])

    @property
    def end(self) -> float:
        return float(self.knots[self.knots.size - self.degree - 1])


def uniform_clamped_knots(degree: int, count: int, start: float = 0.0, end: float = 1.0) -> KnotVector:
    """Clamped knot vector with uniformly spaced interior knots for `count` control rows."""
    if count < degree + 1:
        raise ParameterRangeError("count must be at least degree+1")
    interior = np.linspace(start, end, count - degree + 1)[1:-1]
    knots = np.concatenate([np.full(degree + 1, start), interior, np.full(degree + 1, end)])
    return KnotVector(knots, degree)


def uniform_periodic_knots(degree: int, count: int, start: float = 0.0, end: float = 1.0) -> KnotVector:
    """Unclamped uniform vector whose valid range is exactly [start, end].

    `count` is the number of control rows including the `degree` wrapped
    duplicates a closed direction carries.
    """
    n_seg = count - degree
    if n_seg < 1:
        raise ParameterRangeError("count must exceed degree")
    h = (end - start) / n_seg
    idx = np.arange(count + degree + 1, dtype=np.float64) - degree
    return KnotVector(start + idx * h, degree, periodic=True)


@dataclass(frozen=True, eq=False)
class BSplineSurface:
    knots_u: KnotVector
    knots_v: KnotVector
    control_points: np.ndarray  # (count_u, count_v, 3)

    def __post_init__(self):
        _kernels.freeze(self, np.float64, "control_points")
        cp = self.control_points
        if cp.ndim != 3 or cp.shape[2] != 3:
            raise ParameterRangeError("control_points must have shape (count_u, count_v, 3)")
        if cp.shape[0] != self.knots_u.count or cp.shape[1] != self.knots_v.count:
            raise ParameterRangeError("control grid does not match knot counts")
        if not np.isfinite(cp).all():
            raise ParameterRangeError("control points must be finite")
        # Insertion blends rows convexly, so sub-nets stay within a few roundings
        # of this bound, and a box padded by 1e-12 of it stays below 2**1024.
        if np.abs(cp).max() >= 2.0**1023:
            raise ParameterRangeError("control points must be below 2**1023 in magnitude")

    @property
    def degree_u(self) -> int:
        return self.knots_u.degree

    @property
    def degree_v(self) -> int:
        return self.knots_v.degree

    @property
    def param_range(self) -> tuple[float, float, float, float]:
        return (self.knots_u.start, self.knots_u.end, self.knots_v.start, self.knots_v.end)


def evaluate(surface: BSplineSurface, u: float, v: float) -> np.ndarray:
    """Surface point at (u, v), by knot insertion to full multiplicity: the
    net is split at u, the left half's last row is the control row of the
    v-curve at u, and splitting that at v leaves the point as its last
    control point. De Boor's recursion gives equal values; where it blends
    with a weight of 0 or 1 that the insertion skips, a zero may differ in
    sign. Exact at clamped corners."""
    u0, u1, v0, v1 = surface.param_range
    if not (u0 <= u <= u1 and v0 <= v <= v1):
        raise ParameterRangeError(f"({u}, {v}) outside parameter range {surface.param_range}")
    [(_, (_, column), _)] = _split_net(surface.knots_u.knots[None], surface.control_points[None],
                                       surface.degree_u, [float(u)])
    [(_, (_, point), _)] = _split_net(surface.knots_v.knots[None], column[:, -1],
                                      surface.degree_v, [float(v)])
    # A copy: where no knot is inserted the point is a view of the read-only
    # control net.
    return np.array(point[0, -1])


def _split_net(knots: np.ndarray, nets: np.ndarray, degree: int, t: np.ndarray,
               axis: int = 0):
    """Split G control nets along net axis `axis`, net g at t[g].

    `knots` is (G, L) and `nets` is (G, ...) with the split direction at
    `1 + axis`. Returns one `(rows, (left_knots, left_nets), (right_knots,
    right_nets))` per group of rows whose two sides have one shape, `rows`
    indexing the inputs. t is inserted `degree` minus its multiplicity
    times, and its last index after that fixes where the sides part, so the
    rows are grouped by that pair. The rows of a group share one span, that
    last index less the insertions, which `insert_knot` is given. A batch
    that is one group, as every batch of a subdivision past its first
    levels is, goes to `insert_knot` whole.
    """
    t = np.asarray(t, dtype=np.float64)
    nets = np.moveaxis(nets, 1 + axis, 1)
    tail = nets.shape[2:]
    flat = nets.reshape(nets.shape[:2] + (-1,))

    def side(knots_rows, flat_rows):
        rows = flat_rows.reshape(flat_rows.shape[:2] + tail)
        return knots_rows, np.moveaxis(rows, 1, 1 + axis)

    def halves(rows, kn, fl, k):
        # The sides of nets with t inserted to full multiplicity after knot k.
        ts = t[rows, None]
        return (rows,
                side(np.concatenate([kn[:, : k + 1], ts], axis=1), fl[:, : k - degree + 1]),
                side(np.concatenate([np.repeat(ts, degree + 1, axis=1), kn[:, k + 1 :]], axis=1),
                     fl[:, k - degree :]))

    tc = t[:, None]
    times = np.maximum(degree - np.count_nonzero(knots == tc, axis=1), 0)
    last = np.count_nonzero(knots <= tc, axis=1) - 1 + times
    # last < L + degree + 1, so the key orders the groups by times, then last.
    key = times * (knots.shape[1] + degree + 1) + last
    groups = ([np.arange(t.size)] if (key == key[0]).all()
              else [np.flatnonzero(key == g) for g in np.unique(key).tolist()])
    out = []
    for rows in groups:
        n_times, k = int(times[rows[0]]), int(last[rows[0]])
        kn, fl = (knots, flat) if rows.size == t.size else (knots[rows], flat[rows])
        if n_times:
            span = min(k - n_times, flat.shape[1] - 1)
            kn, fl = _kernels.insert_knot(kn, fl, degree, t[rows], span, n_times)
        out.append(halves(rows, kn, fl, k))
    return out


def _trim_axis(knots: np.ndarray, net: np.ndarray, degree: int, lo: float, hi: float,
               axis: int):
    """Restrict along `axis` to [lo, hi] by knot insertion; output is clamped."""
    start = knots[degree]
    end = knots[knots.size - degree - 1]
    if not (lo == start and np.count_nonzero(knots == lo) >= degree + 1):
        [(_, _, (knots, net))] = _split_net(knots[None], net[None], degree, [lo], axis)
        knots, net = knots[0], net[0]
    if not (hi == end and np.count_nonzero(knots == hi) >= degree + 1):
        [(_, (knots, net), _)] = _split_net(knots[None], net[None], degree, [hi], axis)
        knots, net = knots[0], net[0]
    return knots, net


def restrict(surface: BSplineSurface, rect) -> BSplineSurface:
    """The sub-surface identical to `surface` on `rect`, with clamped knots.
    A degenerate rect or one outside `param_range` raises ParameterRangeError."""
    rect = tuple(map(float, rect))
    u_min, u_max, v_min, v_max = rect
    if not (u_min < u_max and v_min < v_max):
        raise ParameterRangeError(f"degenerate rectangle {rect}")
    u0, u1, v0, v1 = surface.param_range
    if u_min < u0 or u_max > u1 or v_min < v0 or v_max > v1:
        raise ParameterRangeError(f"{rect} outside parameter range {surface.param_range}")
    ku, net = _trim_axis(surface.knots_u.knots, surface.control_points, surface.degree_u,
                         u_min, u_max, 0)
    kv, net = _trim_axis(surface.knots_v.knots, net, surface.degree_v, v_min, v_max, 1)
    return BSplineSurface(KnotVector(ku, surface.degree_u), KnotVector(kv, surface.degree_v), net)


# ---------------------------------------------------------------------------
# Surface file format (JSON; see cli module for the full schema)
# ---------------------------------------------------------------------------


def surface_to_dict(surface: BSplineSurface) -> dict:
    return {
        "degree_u": surface.degree_u,
        "degree_v": surface.degree_v,
        "knots_u": surface.knots_u.knots.tolist(),
        "knots_v": surface.knots_v.knots.tolist(),
        "control_points": surface.control_points.tolist(),
        "periodic_u": surface.knots_u.periodic,
        "periodic_v": surface.knots_v.periodic,
    }


def surface_from_dict(data: dict) -> BSplineSurface:
    """The surface a `surface_to_dict` record describes.

    A record that is not a dict, lacks a required key, has a degree that is
    not an integer, knots or control points that are not arrays of numbers,
    or a periodic flag that is not a bool raises ParameterRangeError naming
    the key.
    """
    if not isinstance(data, dict):
        raise ParameterRangeError(f"a surface must be a JSON object, got {type(data).__name__}")
    for key in ("degree_u", "degree_v", "knots_u", "knots_v", "control_points"):
        if key not in data:
            raise ParameterRangeError(f"surface has no {key!r}")
    for key in ("degree_u", "degree_v"):
        if not isinstance(data[key], Integral) or isinstance(data[key], bool):
            raise ParameterRangeError(f"{key} must be an integer, got {data[key]!r}")
    for key in ("periodic_u", "periodic_v"):
        if not isinstance(data.get(key, False), (bool, np.bool_)):
            raise ParameterRangeError(f"{key} must be true or false, got {data[key]!r}")
    arrays = {}
    for key in ("knots_u", "knots_v", "control_points"):
        try:
            arrays[key] = np.asarray(data[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParameterRangeError(f"{key} must be an array of numbers: {exc}") from None
    ku = KnotVector(arrays["knots_u"], int(data["degree_u"]), bool(data.get("periodic_u", False)))
    kv = KnotVector(arrays["knots_v"], int(data["degree_v"]), bool(data.get("periodic_v", False)))
    return BSplineSurface(ku, kv, arrays["control_points"])


def save_surface(path, surface: BSplineSurface) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(surface_to_dict(surface), fh, indent=2)


def load_surface(path) -> BSplineSurface:
    with open(path, "r", encoding="utf-8") as fh:
        return surface_from_dict(json.load(fh))
