"""Recursive box-pair subdivision of two surfaces into intersection point sets.

Each active pair carries the restricted control nets of both patches, so a
split is one knot insertion rather than a re-restriction from the root. A
patch is split at most once: its two children are cached on it and shared by
every pair that holds it, and the pair's box test compares plain floats.
Terminal pairs contribute the rect centroids to the two parameter-domain
point clouds plus one correspondence record; output is deduplicated and
lexicographically sorted, so results are identical regardless of the order
in which pairs are processed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EmptyInputError
from .geometry import BSplineSurface, ParamRect, _split_net, restrict, split_rect

log = logging.getLogger(__name__)

# Quantization bin for collapsing near-identical centroids (parameter units).
DEDUP_QUANTUM = 1e-12

# Fraction of a domain covered by terminal cells above which the surfaces
# are reported as overlapping rather than crossing.
OVERLAP_WARN_RATIO = 0.5


@dataclass(frozen=True)
class BoxPair:
    """A candidate pair of parameter rectangles whose patch boxes intersect."""

    rect1: ParamRect
    rect2: ParamRect


@dataclass(frozen=True, eq=False)
class IntersectionPointSets:
    """The two parameter-domain point clouds with their pairing records."""

    points1: np.ndarray  # (n1, 2) lexicographically sorted, deduplicated
    points2: np.ndarray  # (n2, 2)
    correspondences: np.ndarray  # (m, 2) index pairs into points1/points2
    epsilon: float
    cell_diag1: float
    cell_diag2: float
    overlap_suspected: bool = False
    terminal_pairs: tuple[BoxPair, ...] | None = field(default=None, repr=False)

    @property
    def is_empty(self) -> bool:
        return self.points1.shape[0] == 0


class _Patch:
    """Clamped restriction of one surface over a rect, with its 3D bounds.

    Boxes are padded by a relative epsilon: the control-net hull bounds the
    exact patch, but the net itself carries ulp-level insertion roundoff, and
    tangential contacts (boxes touching exactly) must never be lost to it.
    """

    __slots__ = ("rect", "knots_u", "knots_v", "degree_u", "degree_v", "net",
                 "box_min", "box_max", "diag", "_children")

    def __init__(self, rect, knots_u, knots_v, degree_u, degree_v, net):
        self.rect = rect
        self.knots_u = knots_u
        self.knots_v = knots_v
        self.degree_u = degree_u
        self.degree_v = degree_v
        self.net = net
        flat = net.reshape(-1, 3)
        pad = 1e-12 * (1.0 + float(np.abs(flat).max()))
        self.box_min = (flat.min(axis=0) - pad).tolist()
        self.box_max = (flat.max(axis=0) + pad).tolist()
        self.diag = rect.diagonal
        self._children = None

    @classmethod
    def from_surface(cls, surface: BSplineSurface, surface_id: int) -> "_Patch":
        root = restrict(surface, surface.full_rect(surface_id))
        return cls(
            surface.full_rect(surface_id),
            root.knots_u.knots,
            root.knots_v.knots,
            root.degree_u,
            root.degree_v,
            root.control_points,
        )

    def split(self) -> tuple["_Patch", "_Patch"]:
        """The two halves of this patch, computed on the first call only."""
        if self._children is None:
            self._children = self._split()
        return self._children

    def _split(self) -> tuple["_Patch", "_Patch"]:
        r = self.rect
        ra, rb = split_rect(r)
        if ra.u_max != r.u_max:  # split_rect halved u
            (ka, na), (kb, nb) = _split_net(self.knots_u, self.net, self.degree_u, ra.u_max)
            return (
                _Patch(ra, ka, self.knots_v, self.degree_u, self.degree_v, na),
                _Patch(rb, kb, self.knots_v, self.degree_u, self.degree_v, nb),
            )
        net_t = np.ascontiguousarray(self.net.transpose(1, 0, 2))
        (ka, na), (kb, nb) = _split_net(self.knots_v, net_t, self.degree_v, ra.v_max)
        return (
            _Patch(ra, self.knots_u, ka, self.degree_u, self.degree_v,
                   na.transpose(1, 0, 2)),
            _Patch(rb, self.knots_u, kb, self.degree_u, self.degree_v,
                   nb.transpose(1, 0, 2)),
        )

    def boxes_intersect(self, other: "_Patch") -> bool:
        lo, hi = self.box_min, self.box_max
        olo, ohi = other.box_min, other.box_max
        return (lo[0] <= ohi[0] and lo[1] <= ohi[1] and lo[2] <= ohi[2]
                and olo[0] <= hi[0] and olo[1] <= hi[1] and olo[2] <= hi[2])


def _quantize(value: float) -> int:
    return int(round(value / DEDUP_QUANTUM))


def intersect_surfaces(
    surface1: BSplineSurface,
    surface2: BSplineSurface,
    epsilon: float,
    *,
    collect_pairs: bool = False,
) -> IntersectionPointSets:
    """Isolate the intersection region of two surfaces down to `epsilon`.

    Starting from the full parameter rectangles, the pair member with the
    larger parameter diagonal is bisected while either diagonal exceeds
    `epsilon`; child pairs survive only if their patch boxes intersect
    (closed-box test, so tangential contact is kept). Terminal pairs yield
    the rect centroids in each domain and one correspondence record.
    """
    if not epsilon > 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")

    root1 = _Patch.from_surface(surface1, 1)
    root2 = _Patch.from_surface(surface2, 2)

    raw1: list[tuple[float, float]] = []
    raw2: list[tuple[float, float]] = []
    raw_pairs: list[tuple[int, int]] = []
    terminal: list[BoxPair] = []
    cell_diag1 = 0.0
    cell_diag2 = 0.0
    seen_rect1: dict[tuple[int, int], float] = {}

    domain_area = root1.rect.area
    stack: list[tuple[_Patch, _Patch]] = []
    if root1.boxes_intersect(root2):
        stack.append((root1, root2))
    # Each patch holds its cached children, so a live root would keep the
    # whole visited tree reachable until the function returns.
    del root1, root2

    while stack:
        p1, p2 = stack.pop()
        if p1.diag <= epsilon and p2.diag <= epsilon:
            c1 = p1.rect.centroid
            c2 = p2.rect.centroid
            raw_pairs.append((len(raw1), len(raw2)))
            raw1.append(c1)
            raw2.append(c2)
            cell_diag1 = max(cell_diag1, p1.diag)
            cell_diag2 = max(cell_diag2, p2.diag)
            seen_rect1[(_quantize(c1[0]), _quantize(c1[1]))] = p1.rect.area
            if collect_pairs:
                terminal.append(BoxPair(p1.rect, p2.rect))
            continue
        if p1.diag >= p2.diag:
            for child in p1.split():
                if child.boxes_intersect(p2):
                    stack.append((child, p2))
        else:
            for child in p2.split():
                if p1.boxes_intersect(child):
                    stack.append((p1, child))

    points1, index1 = _dedup_sorted(raw1)
    points2, index2 = _dedup_sorted(raw2)
    pairs = sorted({(index1[i], index2[j]) for i, j in raw_pairs})
    correspondences = (
        np.array(pairs, dtype=np.int64) if pairs else np.empty((0, 2), dtype=np.int64)
    )

    overlap = False
    if raw1:
        covered = sum(seen_rect1.values())
        if covered > OVERLAP_WARN_RATIO * domain_area:
            overlap = True
            log.warning(
                "terminal cells cover %.0f%% of domain 1; surfaces likely overlap "
                "in a 2D region, topology output is not meaningful there",
                100.0 * covered / domain_area,
            )

    return IntersectionPointSets(
        points1=points1,
        points2=points2,
        correspondences=correspondences,
        epsilon=float(epsilon),
        cell_diag1=cell_diag1,
        cell_diag2=cell_diag2,
        overlap_suspected=overlap,
        terminal_pairs=tuple(terminal) if collect_pairs else None,
    )


def _dedup_sorted(raw: list[tuple[float, float]]) -> tuple[np.ndarray, list[int]]:
    """Collapse near-duplicate points and sort lexicographically.

    Returns the (n, 2) array plus, for each raw record, its index into it.
    Quantized-key order equals lexicographic point order, so one sort does both.
    """
    if not raw:
        return np.empty((0, 2), dtype=np.float64), []
    keys = [(_quantize(u), _quantize(v)) for u, v in raw]
    survivors: dict[tuple[int, int], tuple[float, float]] = {}
    for key, pt in zip(keys, raw):
        survivors.setdefault(key, pt)
    ordered = sorted(survivors)
    index_of = {key: i for i, key in enumerate(ordered)}
    pts = np.array([survivors[k] for k in ordered], dtype=np.float64)
    return pts, [index_of[k] for k in keys]


def hausdorff_bound(sets: IntersectionPointSets) -> tuple[float, float]:
    """Certified point-to-intersection Hausdorff bound per domain.

    Half the largest terminal-cell diagonal: every true intersection point in
    a terminal cell lies within this distance of the cell's centroid sample.
    """
    if sets.is_empty:
        raise EmptyInputError("no intersection points; Hausdorff bound undefined")
    return (0.5 * sets.cell_diag1, 0.5 * sets.cell_diag2)


def dump_box_pairs(path, pairs: tuple[BoxPair, ...]) -> None:
    """Write terminal box pairs to a JSON file for debugging."""
    records = [
        {
            "rect1": [p.rect1.u_min, p.rect1.u_max, p.rect1.v_min, p.rect1.v_max],
            "rect2": [p.rect2.u_min, p.rect2.u_max, p.rect2.v_min, p.rect2.v_max],
        }
        for p in pairs
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
