"""Seeded synthetic planar clouds: arc-length sampling of curves plus noise.

Curves are sampled with a fixed arc-length step; each sample gets a radial
offset with uniform magnitude in [0, noise] and uniform angle. Ground-truth
curve labels are emitted alongside the points so tests can assert component
counts against the generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import ConfigurationError, DegenerateCloudError, EmptyInputError, check_open

_END_TOL = 1e-12


def _finite(what: str, value) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if not math.isfinite(out):
        raise ConfigurationError(f"{what} must be a finite number, got {value!r}")
    return out


def _point(what: str, value) -> tuple[float, float]:
    try:
        x, y = value
    except (TypeError, ValueError):
        raise ConfigurationError(f"{what} must be an (x, y) pair, got {value!r}") from None
    return _finite(what, x), _finite(what, y)


def _radius(value) -> float:
    radius = _finite("radius", value)
    if not radius > 0:
        raise ConfigurationError(f"radius must be positive, got {value!r}")
    return radius


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float
    phase: float = 0.0

    closed = True

    def __post_init__(self):
        object.__setattr__(self, "center", _point("circle center", self.center))
        object.__setattr__(self, "radius", _radius(self.radius))
        object.__setattr__(self, "phase", _finite("circle phase", self.phase))

    @property
    def length(self) -> float:
        return 2.0 * np.pi * self.radius

    def point_at(self, s: float | np.ndarray) -> np.ndarray:
        """The point at arc length `s`, or an `(n, 2)` array for `n` arc lengths."""
        a = self.phase + s / self.radius
        return np.stack([self.center[0] + self.radius * np.cos(a),
                         self.center[1] + self.radius * np.sin(a)], axis=-1)


@dataclass(frozen=True)
class SegmentCurve:
    start: tuple[float, float]
    end: tuple[float, float]

    closed = False

    def __post_init__(self):
        object.__setattr__(self, "start", _point("segment start", self.start))
        object.__setattr__(self, "end", _point("segment end", self.end))
        if self.start == self.end:
            raise ConfigurationError(f"segment start and end coincide at {self.start}")

    @property
    def length(self) -> float:
        return float(np.hypot(self.end[0] - self.start[0], self.end[1] - self.start[1]))

    def point_at(self, s: float | np.ndarray) -> np.ndarray:
        """The point at arc length `s`, or an `(n, 2)` array for `n` arc lengths."""
        t = s / self.length
        return np.stack([self.start[0] + t * (self.end[0] - self.start[0]),
                         self.start[1] + t * (self.end[1] - self.start[1])], axis=-1)


@dataclass(frozen=True)
class Arc:
    center: tuple[float, float]
    radius: float
    angle_start: float
    angle_end: float

    closed = False

    def __post_init__(self):
        object.__setattr__(self, "center", _point("arc center", self.center))
        object.__setattr__(self, "radius", _radius(self.radius))
        for name in ("angle_start", "angle_end"):
            object.__setattr__(self, name, _finite(f"arc {name}", getattr(self, name)))
        if self.angle_start == self.angle_end:
            raise ConfigurationError(f"arc angles are equal ({self.angle_start})")

    @property
    def length(self) -> float:
        return abs(self.angle_end - self.angle_start) * self.radius

    def point_at(self, s: float | np.ndarray) -> np.ndarray:
        """The point at arc length `s`, or an `(n, 2)` array for `n` arc lengths."""
        sign = 1.0 if self.angle_end >= self.angle_start else -1.0
        a = self.angle_start + sign * s / self.radius
        return np.stack([self.center[0] + self.radius * np.cos(a),
                         self.center[1] + self.radius * np.sin(a)], axis=-1)


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
    count = length / step + 1e-9
    if not np.isfinite(count):
        raise ConfigurationError(f"a curve of length {length} has no finite sample count at "
                                 f"step {step}")
    n = int(np.floor(count))
    if closed:
        return np.arange(max(n, 1)) * step
    s = np.arange(n + 1) * step
    s[-1] = min(s[-1], length)
    if s[-1] < length - _END_TOL * max(1.0, length):
        s = np.append(s, length)
    return s


def generate_synthetic(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (seeded) sampling; returns (points (n, 2), labels (n,)).
    A step or noise bound that is not a real number, a step that is not
    positive and finite, a noise bound that is negative or infinite, and a
    curve too long for a finite sample count raise `ConfigurationError`."""
    check_open(spec.step, "arc-length step must be positive and finite")
    if spec.noise != 0:
        check_open(spec.noise, "noise bound must be nonnegative and finite")
    if not spec.curves:
        raise EmptyInputError("no curves to sample")

    rng = np.random.default_rng(spec.seed)
    chunks: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    for ci, curve in enumerate(spec.curves):
        s = _arc_length_samples(curve.length, spec.step, curve.closed)
        pts = curve.point_at(s)
        if spec.noise > 0:
            mag = rng.uniform(0.0, spec.noise, size=len(s))
            ang = rng.uniform(0.0, 2.0 * np.pi, size=len(s))
            pts = pts + np.column_stack([mag * np.cos(ang), mag * np.sin(ang)])
        chunks.append(pts)
        labels.append(np.full(len(s), ci, dtype=np.int64))
    return np.concatenate(chunks), np.concatenate(labels)


def curve_from_dict(data: dict):
    if not isinstance(data, dict):
        raise ConfigurationError(f"a curve must be a JSON object, got {data!r}")
    kind = data.get("kind")
    try:
        if kind == "circle":
            return Circle(data["center"], data["radius"], data.get("phase", Circle.phase))
        if kind == "segment":
            return SegmentCurve(data["start"], data["end"])
        if kind == "arc":
            return Arc(data["center"], data["radius"], data["angle_start"], data["angle_end"])
    except KeyError as exc:
        raise ConfigurationError(f"{kind} curve is missing field {exc}") from None
    raise ConfigurationError(f"unknown curve kind {kind!r}")


def spec_from_dict(data: dict, seed_override: int | None = None) -> SyntheticSpec:
    if not isinstance(data, dict):
        raise ConfigurationError(f"a synthetic spec must be a JSON object, got {data!r}")
    curves = data.get("curves", [])
    if not isinstance(curves, (list, tuple)):
        raise ConfigurationError(f"'curves' must be a list of objects, got {curves!r}")
    seed = data.get("seed", SyntheticSpec.seed) if seed_override is None else seed_override
    if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")
    return SyntheticSpec(
        curves=tuple(curve_from_dict(c) for c in curves),
        step=_finite("step", data.get("step", SyntheticSpec.step)),
        noise=_finite("noise", data.get("noise", SyntheticSpec.noise)),
        seed=int(seed),
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
    """Read `x y` lines, or `x y label` lines; blank lines are skipped.

    Raises `DegenerateCloudError` naming the line when a value does not parse,
    or when a line's field count differs from the first line's.
    """
    xs: list[list[float]] = []
    labs: list[int] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            width = width or len(parts)
            if len(parts) != width or width not in (2, 3):
                raise DegenerateCloudError(
                    f"{path}, line {lineno}: {len(parts)} field(s); every line must "
                    "be 'x y', or every line 'x y label'"
                )
            try:
                xs.append([float(parts[0]), float(parts[1])])
                if width == 3:
                    labs.append(int(parts[2]))
            except ValueError as exc:
                raise DegenerateCloudError(f"{path}, line {lineno}: {exc}") from None
    points = np.array(xs, dtype=np.float64) if xs else np.empty((0, 2))
    labels = np.array(labs, dtype=np.int64) if width == 3 else None
    return points, labels
