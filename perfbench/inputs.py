"""Seeded benchmark inputs: surface pairs placed in random frames, and planar
curve clouds.

The surfaces are the acceptance-suite shapes, rebuilt here so that the
benchmark's inputs do not move when the test fixtures do. A frame is applied
to the control points or to the cloud's points; the program never sees the
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sstopo import BSplineSurface, uniform_clamped_knots, uniform_periodic_knots
from sstopo.synthetic import Circle, SegmentCurve, SyntheticSpec, generate_synthetic

CLOUD_NOISE = 0.01
# The acceptance corpus's noise realizations (tests/corpus.py), on which the
# program's output is known to be correct.
PERFORMANCE_NOISE_SEED = 11
THREE_CURVE_NOISE_SEED = 3


# ---------------------------------------------------------------------------
# Surfaces in their reference frame
# ---------------------------------------------------------------------------


def _bilinear(corners) -> BSplineSurface:
    kv = uniform_clamped_knots(1, 2)
    return BSplineSurface(kv, kv, np.array(corners, dtype=float))


def plane() -> BSplineSurface:
    """z = 0 over [0, 1]^2."""
    return _bilinear([[[0, 0, 0], [0, 1, 0]], [[1, 0, 0], [1, 1, 0]]])


def saddle() -> BSplineSurface:
    """z = (u - 1/2)(v - 1/2): meets z = 0 in a plus shape (one crossing)."""
    return _bilinear([[[0, 0, 0.25], [0, 1, -0.25]], [[1, 0, -0.25], [1, 1, 0.25]]])


def paraboloid() -> BSplineSurface:
    """z = (u - 1/2)^2 + (v - 1/2)^2: tangent to z = 0 at one point."""
    xg = np.array([0.0, 0.5, 1.0])
    f = np.array([0.25, -0.25, 0.25])
    grid = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            grid[i, j] = (xg[i], xg[j], f[i] + f[j])
    kv = uniform_clamped_knots(2, 3)
    return BSplineSurface(kv, kv, grid)


def wrinkle() -> BSplineSurface:
    """z = (u - 1/3)(u - 2/3)(v - 1/2): three lines meeting z = 0 at two
    crossing points."""
    q = np.array([2.0 / 9.0, -5.0 / 18.0, 2.0 / 9.0])
    r = np.array([-0.5, 0.5])
    grid = np.zeros((3, 2, 3))
    for i, x in enumerate((0.0, 0.5, 1.0)):
        for j, y in enumerate((0.0, 1.0)):
            grid[i, j] = (x, y, q[i] * r[j])
    return BSplineSurface(uniform_clamped_knots(2, 3), uniform_clamped_knots(1, 2), grid)


def cylinder(axis: str, radius: float = 1.0, half_len: float = 2.0,
             n_ctrl: int = 16) -> BSplineSurface:
    """Periodic cubic cylinder along the x or y axis; the control radius is
    calibrated so the spline passes through (0, 0, +-radius)."""
    degree = 3
    count = n_ctrl + degree
    r_ctrl = 3.0 * radius / (2.0 + np.cos(2.0 * np.pi / n_ctrl))
    ang = np.pi / 2 + 2.0 * np.pi * (np.arange(count) - 1) / n_ctrl
    grid = np.zeros((count, 2, 3))
    along = 1 if axis == "y" else 0
    for j, w in enumerate((-half_len, half_len)):
        grid[:, j, 1 - along] = r_ctrl * np.cos(ang)
        grid[:, j, along] = w
        grid[:, j, 2] = r_ctrl * np.sin(ang)
    return BSplineSurface(uniform_periodic_knots(degree, count),
                          uniform_clamped_knots(1, 2), grid)


# pair name -> (builder of surface 1, builder of surface 2)
PAIRS = {
    "saddle": (plane, saddle),
    "wrinkle": (plane, wrinkle),
    "cylinders": (lambda: cylinder("y"), lambda: cylinder("x")),
    "paraboloid": (plane, paraboloid),
}


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------


def signed_axis_frame(rng: np.random.Generator, dim: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """A signed permutation of the axes plus an integer translation.

    Axis-aligned box pruning commutes with this motion exactly, so every
    frame yields the same parameter-domain point clouds. In the plane, the
    PCA filter and the cover, which is symmetric about its midpoint, commute
    with it too, so every frame yields the same Mapper graph.
    """
    m = np.zeros((dim, dim))
    m[np.arange(dim), rng.permutation(dim)] = rng.choice([-1.0, 1.0], size=dim)
    return m, rng.integers(-4, 5, size=dim).astype(float)


def rotation_frame(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A rotation drawn uniformly from SO(3) plus a translation in [-2, 2]^3."""
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    m = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    return m, rng.uniform(-2.0, 2.0, size=3)


def moved(surface: BSplineSurface, frame: tuple[np.ndarray, np.ndarray]) -> BSplineSurface:
    m, t = frame
    return BSplineSurface(surface.knots_u, surface.knots_v,
                          surface.control_points @ m.T + t)


def placed_pair(name: str, frame) -> tuple[BSplineSurface, BSplineSurface]:
    """Both surfaces of a pair under one rigid motion."""
    make1, make2 = PAIRS[name]
    return moved(make1(), frame), moved(make2(), frame)


# ---------------------------------------------------------------------------
# Clouds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Cloud:
    points: np.ndarray
    step: float


def performance_cloud(target: int, seed: int) -> Cloud:
    """Two circles and three segments (five components), sampled at the step
    that gives about `target` points."""
    curves = (
        Circle((0.0, 0.0), 1.0),
        Circle((2.2, 0.0), 0.8),
        SegmentCurve((-1.5, -1.6), (3.5, -1.6)),
        SegmentCurve((-1.5, 1.6), (3.5, 1.6)),
        SegmentCurve((1.1, -1.2), (1.1, 1.2)),
    )
    step = sum(c.length for c in curves) / target
    pts, _ = generate_synthetic(SyntheticSpec(curves, step, CLOUD_NOISE, seed))
    return Cloud(pts, step)


def placed_cloud(cloud: Cloud, frame: tuple[np.ndarray, np.ndarray]) -> Cloud:
    m, t = frame
    return Cloud(cloud.points @ m.T + t, cloud.step)


def three_curve_cloud(seed: int, step: float = 0.02) -> Cloud:
    """Two long parallel segments plus a short one across the principal
    direction: the initial graph merges it, the orthogonal refinement splits
    it back out."""
    curves = (
        SegmentCurve((0.0, 0.0), (4.0, 0.0)),
        SegmentCurve((0.0, 1.2), (4.0, 1.2)),
        SegmentCurve((2.0, 0.15), (2.0, 1.05)),
    )
    pts, _ = generate_synthetic(SyntheticSpec(curves, step, CLOUD_NOISE, seed))
    return Cloud(pts, step)
