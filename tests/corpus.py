"""Shared test fixtures: surface builders, cloud builders, and independent oracles.

The oracles here deliberately avoid the library's evaluation paths: surface
points come from naive basis-function summation over all control points,
clustering from an all-pairs union-find, and eigenvectors from the closed-form
2x2 solution.
"""

from __future__ import annotations

import numpy as np

from sstopo import (
    BSplineSurface,
    KnotVector,
    uniform_clamped_knots,
    uniform_periodic_knots,
)
from sstopo.synthetic import Circle, SegmentCurve, SyntheticSpec, generate_synthetic


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def basis_value(knots: np.ndarray, degree: int, i: int, t: float, end: float) -> float:
    """Cox-de Boor recursion for one basis function, closed at the domain end."""
    if degree == 0:
        if knots[i] <= t < knots[i + 1]:
            return 1.0
        if t == end and knots[i] < knots[i + 1] and knots[i + 1] == end:
            return 1.0
        return 0.0
    out = 0.0
    d1 = knots[i + degree] - knots[i]
    if d1 > 0:
        out += (t - knots[i]) / d1 * basis_value(knots, degree - 1, i, t, end)
    d2 = knots[i + degree + 1] - knots[i + 1]
    if d2 > 0:
        out += (knots[i + degree + 1] - t) / d2 * basis_value(knots, degree - 1, i + 1, t, end)
    return out


def oracle_surface_point(surface: BSplineSurface, u: float, v: float) -> np.ndarray:
    """Full basis summation over every control point."""
    ku = surface.knots_u.knots
    kv = surface.knots_v.knots
    pu = surface.degree_u
    pv = surface.degree_v
    u_end = surface.knots_u.end
    v_end = surface.knots_v.end
    nu, nv, _ = surface.control_points.shape
    bu = np.array([basis_value(ku, pu, i, u, u_end) for i in range(nu)])
    bv = np.array([basis_value(kv, pv, j, v, v_end) for j in range(nv)])
    return np.einsum("i,j,ijk->k", bu, bv, surface.control_points)


def brute_force_clusters(indices, cloud: np.ndarray, delta: float) -> list[np.ndarray]:
    """All-pairs union-find clustering, canonicalized like the one-group case
    of `mapper._clusters`: each cluster sorted, the clusters in order of their
    first member's position in `indices`.

    Distances come from an explicit hypot matrix (not the squared comparison
    the library uses), so the arithmetic path differs too.
    """
    indices = np.asarray(indices, dtype=np.int64)
    pts = np.asarray(cloud, dtype=np.float64)[indices]
    n = len(indices)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    dist = np.hypot(
        pts[:, 0, None] - pts[None, :, 0], pts[:, 1, None] - pts[None, :, 1]
    )
    for i, j in zip(*np.nonzero(np.triu(dist < delta, k=1))):
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    order: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    for i in range(n):
        r = find(i)
        if r not in order:
            order[r] = len(order)
        groups.setdefault(r, []).append(int(indices[i]))
    out = [None] * len(order)
    for r, members in groups.items():
        out[order[r]] = np.sort(np.array(members, dtype=np.int64))
    return out


def closed_form_leading_eigenvector(cloud: np.ndarray) -> np.ndarray:
    """Leading eigenvector of the 2x2 covariance via the half-angle formula."""
    c = cloud.mean(axis=0)
    x = cloud - c
    a = float(np.mean(x[:, 0] ** 2))
    b = float(np.mean(x[:, 1] ** 2))
    cc = float(np.mean(x[:, 0] * x[:, 1]))
    theta = 0.5 * np.arctan2(2 * cc, a - b)
    return np.array([np.cos(theta), np.sin(theta)])


def distance_to_curve(p: np.ndarray, curve) -> float:
    if isinstance(curve, Circle):
        return abs(float(np.hypot(*(p - np.asarray(curve.center)))) - curve.radius)
    if isinstance(curve, SegmentCurve):
        a = np.asarray(curve.start, dtype=float)
        b = np.asarray(curve.end, dtype=float)
        ab = b - a
        t = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
        return float(np.linalg.norm(p - (a + t * ab)))
    raise TypeError(f"no distance oracle for {type(curve)!r}")


def point_set(node) -> frozenset[int]:
    """A Mapper node's points as a set of ints, for set-based references."""
    return frozenset(node.points.tolist())


def edge_set(edges) -> set[tuple[int, int]]:
    """A graph's edge rows as a set of int pairs, for set-based references."""
    return set(map(tuple, np.asarray(edges).tolist()))


def assert_id_array(ids) -> None:
    """An id set's invariant: a read-only 1-D int64 array, strictly increasing."""
    assert ids.dtype == np.int64 and ids.ndim == 1
    assert not ids.flags.writeable
    assert (np.diff(ids) > 0).all()


def assert_edge_record(edges) -> None:
    """The edge record's invariant: a read-only (m, 2) int64 array of pairs
    a < b whose rows strictly increase by (a, b)."""
    assert edges.dtype == np.int64 and edges.ndim == 2 and edges.shape[1] == 2
    assert not edges.flags.writeable
    rows = edges.tolist()
    assert all(a < b for a, b in rows)
    assert all(r < s for r, s in zip(rows, rows[1:]))


def assert_analytic(doc, kinds) -> None:
    """Both domains read `kinds`, and the match is a bijection between the
    two domains' segments that pairs equal kinds."""
    assert not doc.no_intersection
    for dom in doc.domains:
        assert sorted(dom.partition.segment_kinds()) == sorted(kinds)
    kinds1, kinds2 = (dom.partition.segment_kinds() for dom in doc.domains)
    pairs = [(a, b) for a, b, _ in doc.match.pairs]
    assert sorted(a for a, _ in pairs) == list(range(len(kinds)))
    assert sorted(b for _, b in pairs) == list(range(len(kinds)))
    assert all(kinds1[a] == kinds2[b] for a, b in pairs)


def assert_edges_match_intersections(graph) -> None:
    """Exhaustive edge <=> nonempty-cluster-intersection check, on a graph
    whose edge record holds its invariant."""
    assert_edge_record(graph.edges)
    sets = [point_set(n) for n in graph.nodes]
    edges = edge_set(graph.edges)
    for a in range(len(sets)):
        for b in range(a + 1, len(sets)):
            shared = bool(sets[a] & sets[b])
            assert shared == ((a, b) in edges), (
                f"edge rule violated for nodes {a}, {b}: shared={shared}"
            )


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------


def bilinear_corner_patch() -> BSplineSurface:
    """Corners (0,0,0), (1,0,0), (0,1,0), (1,1,1)."""
    kv = uniform_clamped_knots(1, 2)
    ctrl = np.array([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 1]]], dtype=float)
    return BSplineSurface(kv, kv, ctrl)


def plane_patch(z: float = 0.0, shift: tuple[float, float, float] = (0, 0, 0)) -> BSplineSurface:
    kv = uniform_clamped_knots(1, 2)
    dx, dy, dz = shift
    ctrl = np.array(
        [[[0 + dx, 0 + dy, z + dz], [0 + dx, 1 + dy, z + dz]],
         [[1 + dx, 0 + dy, z + dz], [1 + dx, 1 + dy, z + dz]]],
        dtype=float,
    )
    return BSplineSurface(kv, kv, ctrl)


def vertical_plane_x(x: float = 0.5) -> BSplineSurface:
    """Plane x = const spanned in (y, z) over y in [0,1], z in [-1,1]."""
    kv = uniform_clamped_knots(1, 2)
    ctrl = np.array(
        [[[x, 0, -1], [x, 0, 1]], [[x, 1, -1], [x, 1, 1]]], dtype=float
    )
    return BSplineSurface(kv, kv, ctrl)


def saddle_patch() -> BSplineSurface:
    """Graph of z = (u - 1/2)(v - 1/2): crosses z=0 in a plus shape."""
    kv = uniform_clamped_knots(1, 2)
    ctrl = np.array(
        [[[0, 0, 0.25], [0, 1, -0.25]], [[1, 0, -0.25], [1, 1, 0.25]]], dtype=float
    )
    return BSplineSurface(kv, kv, ctrl)


def paraboloid_patch() -> BSplineSurface:
    """Graph of z = (u - 1/2)^2 + (v - 1/2)^2: tangent to z=0 at one point."""
    kv = uniform_clamped_knots(2, 3)
    xg = np.array([0.0, 0.5, 1.0])
    f = np.array([0.25, -0.25, 0.25])
    grid = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            grid[i, j] = (xg[i], xg[j], f[i] + f[j])
    return BSplineSurface(kv, kv, grid)


def wrinkle_patch() -> BSplineSurface:
    """Graph of z = (u - 1/3)(u - 2/3)(v - 1/2): crosses z=0 in three lines
    meeting at two crossing points."""
    xg = np.array([0.0, 0.5, 1.0])
    yg = np.array([0.0, 1.0])
    q = np.array([2.0 / 9.0, -5.0 / 18.0, 2.0 / 9.0])
    r = np.array([-0.5, 0.5])
    grid = np.zeros((3, 2, 3))
    for i in range(3):
        for j in range(2):
            grid[i, j] = (xg[i], yg[j], q[i] * r[j])
    return BSplineSurface(uniform_clamped_knots(2, 3), uniform_clamped_knots(1, 2), grid)


def cylinder_patch(axis: str = "y", radius: float = 1.0, half_len: float = 2.0,
                   n_ctrl: int = 16) -> BSplineSurface:
    """Circular cylinder approximated by a periodic cubic profile.

    The angular seam sits at the profile apex (max z) and the control radius
    is calibrated so the spline passes through (0, 0, +-radius) exactly.
    """
    degree = 3
    count = n_ctrl + degree
    kv_u = uniform_periodic_knots(degree, count)
    kv_v = uniform_clamped_knots(1, 2)
    r_ctrl = 3.0 * radius / (2.0 + np.cos(2.0 * np.pi / n_ctrl))
    ang = np.pi / 2 + 2.0 * np.pi * (np.arange(count) - 1) / n_ctrl
    cx = r_ctrl * np.cos(ang)
    cz = r_ctrl * np.sin(ang)
    grid = np.zeros((count, 2, 3))
    for j, w in enumerate((-half_len, half_len)):
        if axis == "y":
            grid[:, j, 0] = cx
            grid[:, j, 1] = w
        elif axis == "x":
            grid[:, j, 0] = w
            grid[:, j, 1] = cx
        else:
            raise ValueError("axis must be 'x' or 'y'")
        grid[:, j, 2] = cz
    return BSplineSurface(kv_u, kv_v, grid)


def knotted_cubic_patch(rng: np.random.Generator) -> BSplineSurface:
    """Clamped cubic patch with uneven interior knots along u, some dyadic.

    Halving its u range puts the split point on a knot in some patches and
    between knots in others, and leaves patches of one level with different
    knot counts and with their knots in different spans.
    """
    ku = KnotVector(np.array([0.0, 0.0, 0.0, 0.0, 0.25, 0.3, 0.6, 0.9, 1.0, 1.0, 1.0, 1.0]), 3)
    kv = uniform_clamped_knots(3, 4)
    grid = np.zeros((ku.count, kv.count, 3))
    for i in range(ku.count):
        for j in range(kv.count):
            grid[i, j] = (
                i / (ku.count - 1) + 0.05 * rng.standard_normal(),
                j / (kv.count - 1) + 0.05 * rng.standard_normal(),
                0.4 * rng.standard_normal(),
            )
    return BSplineSurface(ku, kv, grid)


def random_cubic_patch(rng: np.random.Generator) -> BSplineSurface:
    """Clamped cubic patch with jittered control grid, for sampling oracles."""
    nu = int(rng.integers(4, 7))
    nv = int(rng.integers(4, 7))
    ku = uniform_clamped_knots(3, nu)
    kv = uniform_clamped_knots(3, nv)
    grid = np.zeros((nu, nv, 3))
    for i in range(nu):
        for j in range(nv):
            grid[i, j] = (
                i / (nu - 1) + 0.15 * rng.standard_normal(),
                j / (nv - 1) + 0.15 * rng.standard_normal(),
                0.4 * rng.standard_normal(),
            )
    return BSplineSurface(ku, kv, grid)


# ---------------------------------------------------------------------------
# Clouds
# ---------------------------------------------------------------------------

STEP = 0.02
NOISE = 0.01


def noisy_circle_cloud(seed: int = 7):
    spec = SyntheticSpec(curves=(Circle((0.0, 0.0), 1.0),), step=STEP, noise=NOISE, seed=seed)
    return generate_synthetic(spec)


def three_curves_spec(seed: int = 3) -> SyntheticSpec:
    """Two long horizontal segments plus a middle segment orthogonal to the
    cloud's principal direction; all three pairwise farther apart than delta."""
    return SyntheticSpec(
        curves=(
            SegmentCurve((0.0, 0.0), (4.0, 0.0)),
            SegmentCurve((0.0, 1.2), (4.0, 1.2)),
            SegmentCurve((2.0, 0.15), (2.0, 1.05)),
        ),
        step=STEP,
        noise=NOISE,
        seed=seed,
    )


def three_curves_cloud(seed: int = 3):
    return generate_synthetic(three_curves_spec(seed))


def plus_cloud():
    spec = SyntheticSpec(
        curves=(SegmentCurve((0.5, 0.0), (0.5, 1.0)), SegmentCurve((0.0, 0.5), (1.0, 0.5))),
        step=STEP,
        noise=0.0,
        seed=1,
    )
    return generate_synthetic(spec)


def performance_cloud(target: int = 6000, seed: int = 11):
    """A multi-curve cloud of roughly `target` points at a proportionally
    finer sampling step, with noise drawn from `seed`."""
    curves = (
        Circle((0.0, 0.0), 1.0),
        Circle((2.2, 0.0), 0.8),
        SegmentCurve((-1.5, -1.6), (3.5, -1.6)),
        SegmentCurve((-1.5, 1.6), (3.5, 1.6)),
        SegmentCurve((1.1, -1.2), (1.1, 1.2)),
    )
    total_len = sum(c.length for c in curves)
    step = total_len / target
    spec = SyntheticSpec(curves=curves, step=step, noise=NOISE, seed=seed)
    pts, labels = generate_synthetic(spec)
    return pts, labels, step
