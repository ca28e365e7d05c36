"""Seeded synthetic planar clouds: arc-length sampling of curves plus noise.

Curves are sampled with a fixed arc-length step; each sample gets a radial
offset with uniform magnitude in [0, noise] and uniform angle. Ground-truth
curve labels are emitted alongside the points so tests can assert component
counts against the generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EmptyInputError

_END_TOL = 1e-12


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float
    phase: float = 0.0

    closed = True

    @property
    def length(self) -> float:
        return 2.0 * np.pi * self.radius

    def point_at(self, s: float) -> np.ndarray:
        a = self.phase + s / self.radius
        return np.array(
            [self.center[0] + self.radius * np.cos(a), self.center[1] + self.radius * np.sin(a)]
        )


@dataclass(frozen=True)
class SegmentCurve:
    start: tuple[float, float]
    end: tuple[float, float]

    closed = False

    @property
    def length(self) -> float:
        return float(np.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1]))

    def point_at(self, s: float) -> np.ndarray:
        t = s / self.length
        return np.array(
            [
                self.start[0] + t * (self.end[0] - self.start[0]),
                self.start[1] + t * (self.end[1] - self.start[1]),
            ]
        )


@dataclass(frozen=True)
class Arc:
    center: tuple[float, float]
    radius: float
    angle_start: float
    angle_end: float

    closed = False

    @property
    def length(self) -> float:
        return abs(self.angle_end - self.angle_start) * self.radius

    def point_at(self, s: float) -> np.ndarray:
        sign = 1.0 if self.angle_end >= self.angle_start else -1.0
        a = self.angle_start + sign * s / self.radius
        return np.array(
            [self.center[0] + self.radius * np.cos(a), self.center[1] + self.radius * np.sin(a)]
        )


@dataclass(frozen=True)
class SyntheticSpec:
    curves: tuple
    step: float = 0.02
    noise: float = 0.01
    seed: int = 0


def recommended_delta(step: float, noise: float) -> float:
    """Clustering radius for sampled curves: four times (noise + step/2)."""
    return 4.0 * (noise + 0.5 * step)


def _arc_length_samples(length: float, step: float, closed: bool) -> np.ndarray:
    # floor with a relative nudge so exact multiples are not lost to roundoff
    n = int(np.floor(length / step + 1e-9))
    if closed:
        return np.arange(max(n, 1)) * step
    s = np.arange(n + 1) * step
    s[-1] = min(s[-1], length)
    if s[-1] < length - _END_TOL * max(1.0, length):
        s = np.append(s, length)
    return s


def generate_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (seeded) sampling; returns (points (n, 2), labels (n,))."""
    if not spec.step > 0:
        raise ConfigurationError(f"arc-length step must be positive, got {spec.step}")
    if not spec.noise >= 0:
        raise ConfigurationError(f"noise bound must be nonnegative, got {spec.noise}")
    if not spec.curves:
        raise EmptyInputError("no curves to sample")

    rng = np.random.default_rng(spec.seed)
    chunks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for ci, curve in enumerate(spec.curves):
        s = _arc_length_samples(curve.length, spec.step, curve.closed)
        pts = np.array([curve.point_at(float(si)) for si in s])
        if spec.noise > 0:
            mag = rng.uniform(0.0, spec.noise, size=len(s))
            ang = rng.uniform(0.0, 2.0 * np.pi, size=len(s))
            pts = pts + np.column_stack([mag * np.cos(ang), mag * np.sin(ang)])
        chunks.append(pts)
        labels.append(np.full(len(s), ci, dtype=np.int64))
    return np.concatenate(chunks), np.concatenate(labels)


def curve_from_dict(data: dict):
    kind = data.get("kind")
    if kind == "circle":
        return Circle(tuple(data["center"]), float(data["radius"]), float(data.get("phase", 0.0)))
    if kind == "segment":
        return SegmentCurve(tuple(data["start"]), tuple(data["end"]))
    if kind == "arc":
        return Arc(
            tuple(data["center"]),
            float(data["radius"]),
            float(data["angle_start"]),
            float(data["angle_end"]),
        )
    raise ConfigurationError(f"unknown curve kind {kind!r}")


def spec_from_dict(data: dict, seed_override: int | None = None) -> SyntheticSpec:
    curves = tuple(curve_from_dict(c) for c in data.get("curves", []))
    seed = int(data.get("seed", 0)) if seed_override is None else seed_override
    return SyntheticSpec(
        curves=curves,
        step=float(data.get("step", 0.02)),
        noise=float(data.get("noise", 0.01)),
        seed=seed,
    )


def save_cloud(path, points: np.ndarray, labels: np.ndarray | None = None) -> None:
    """One `x y` pair per line, optional third label column."""
    points = np.asarray(points)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (x, y) in enumerate(points):
            if labels is None:
                fh.write(f"{float(x)!r} {float(y)!r}\n")
            else:
                fh.write(f"{float(x)!r} {float(y)!r} {int(labels[i])}\n")


def load_cloud(path) -> tuple[np.ndarray, np.ndarray | None]:
    xs: list[list[float]] = []
    labs: list[int] = []
    has_labels = False
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            xs.append([float(parts[0]), float(parts[1])])
            if len(parts) > 2:
                has_labels = True
                labs.append(int(parts[2]))
    points = np.array(xs, dtype=np.float64) if xs else np.empty((0, 2))
    labels = np.array(labs, dtype=np.int64) if has_labels else None
    return points, labels
