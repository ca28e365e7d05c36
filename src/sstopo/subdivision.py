"""Level-synchronous box-pair subdivision of two surfaces into intersection
point sets.

Each surface's patches live in a `_PatchStore` and are addressed by integer
id. A patch holds its clamped knots and restricted control net until it is
split; a split is one knot insertion along the halved axis, happens at most
once per patch, and frees the parent's net. Its two halves get consecutive
ids, which every pair that holds the parent then shares.

The active pairs of one level are two id arrays. Each level drops the pairs
whose padded boxes do not overlap (one vectorised closed-box test), ends the
pairs whose two parameter diagonals are both within epsilon, and halves the
member with the larger diagonal of every other pair. A patch in an ended
pair is never split, since splitting needs a diagonal above epsilon, so it
is a leaf of its surface's split tree: the point clouds are the rect
centroids of the distinct ended patches, sorted lexicographically, and the
correspondences are the distinct id pairs. Results therefore do not depend
on the order in which pairs are visited.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, EmptyInputError
from .geometry import BSplineSurface, ParamRect, _split_net, restrict, split_rect

log = logging.getLogger(__name__)

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


def _boxes(nets: list[np.ndarray]) -> np.ndarray:
    """Padded axis-aligned boxes of control nets, one row `[lo | hi]` per net.

    The pad is relative: the control-net hull bounds the exact patch, but the
    net itself carries ulp-level insertion roundoff, and tangential contacts
    (boxes touching exactly) must never be lost to it. `max(-lo, hi)` is the
    net's largest absolute coordinate, since negation is exact.
    """
    flat = np.concatenate([net.reshape(-1, 3) for net in nets])
    starts = np.cumsum([0] + [net.size // 3 for net in nets[:-1]])
    lo = np.minimum.reduceat(flat, starts)
    hi = np.maximum.reduceat(flat, starts)
    pad = 1e-12 * (1.0 + np.maximum(-lo, hi).max(axis=1, keepdims=True))
    return np.hstack([lo - pad, hi + pad])


def _overlap(box1: np.ndarray, box2: np.ndarray) -> np.ndarray:
    """Row-wise closed-box test of two `_boxes` arrays: touching boxes overlap."""
    k = box1.shape[1] // 2
    return ((box1[:, :k] <= box2[:, k:]) & (box2[:, :k] <= box1[:, k:])).all(axis=1)


class _PatchStore:
    """The patches of one surface's split tree, addressed by integer id.

    Patch `i` covers `rects[i]` and has parameter diagonal `diag[i]` and box
    `box[i]`. Until it is split it holds its clamped knots and control net;
    once split, its halves are `child[i]` and `child[i] + 1`.
    """

    def __init__(self, surface: BSplineSurface, surface_id: int):
        rect = surface.full_rect(surface_id)
        root = restrict(surface, rect)
        self.degrees = (root.degree_u, root.degree_v)
        self.rects = [rect]
        self.knots = [(root.knots_u.knots, root.knots_v.knots)]
        self.nets = [root.control_points]
        self.diag = np.array([rect.diagonal])
        self.box = _boxes(self.nets)
        self.child = np.full(1, -1)

    def split(self, ids: np.ndarray) -> np.ndarray:
        """First-half id of each patch in `ids`, halving those not yet split."""
        todo = np.unique(ids[self.child[ids] < 0])
        if todo.size:
            self.child[todo] = len(self.rects) + 2 * np.arange(todo.size)
            rects, knots, nets = [], [], []
            for i in todo.tolist():
                rect = self.rects[i]
                halves = split_rect(rect)
                axis = 0 if halves[0].u_max != rect.u_max else 1
                t = (halves[0].u_max, halves[0].v_max)[axis]
                (ka, na), (kb, nb) = _split_net(self.knots[i][axis], self.nets[i],
                                                self.degrees[axis], t, axis)
                other = self.knots[i][1 - axis]
                rects += halves
                knots += [(ka, other), (kb, other)] if axis == 0 else [(other, ka), (other, kb)]
                nets += (na, nb)
                self.knots[i] = self.nets[i] = None
            widths = np.array([(r.width_u, r.width_v) for r in rects])
            self.rects += rects
            self.knots += knots
            self.nets += nets
            self.diag = np.concatenate([self.diag, np.hypot(widths[:, 0], widths[:, 1])])
            self.box = np.concatenate([self.box, _boxes(nets)])
            self.child = np.concatenate([self.child, np.full(len(nets), -1)])
        return self.child[ids]

    def leaves(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct patches of `ids`: their ids, their rect centroids sorted
        lexicographically, and the centroid row of each entry of `ids`."""
        distinct, inverse = np.unique(ids, return_inverse=True)
        centroids = np.array([self.rects[i].centroid for i in distinct.tolist()],
                             dtype=np.float64).reshape(-1, 2)
        order = np.lexsort((centroids[:, 1], centroids[:, 0]))
        row = np.empty_like(order)
        row[order] = np.arange(order.size)
        return distinct, centroids[order], row[inverse]


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

    store1 = _PatchStore(surface1, 1)
    store2 = _PatchStore(surface2, 2)
    a = b = np.zeros(1, dtype=np.int64)
    ended1: list[np.ndarray] = []
    ended2: list[np.ndarray] = []
    while a.size:
        keep = _overlap(store1.box[a], store2.box[b])
        a, b = a[keep], b[keep]
        d1, d2 = store1.diag[a], store2.diag[b]
        done = (d1 <= epsilon) & (d2 <= epsilon)
        ended1.append(a[done])
        ended2.append(b[done])
        first = (d1 >= d2)[~done]
        a, b = a[~done], b[~done]
        halves1 = store1.split(a[first])
        halves2 = store2.split(b[~first])
        a, b = (np.concatenate([halves1, halves1 + 1, a[~first], a[~first]]),
                np.concatenate([b[first], b[first], halves2, halves2 + 1]))

    ends1, ends2 = np.concatenate(ended1), np.concatenate(ended2)
    leaves1, points1, rows1 = store1.leaves(ends1)
    _, points2, rows2 = store2.leaves(ends2)
    correspondences = np.unique(np.stack([rows1, rows2], axis=1), axis=0)

    overlap = False
    if ends1.size:
        covered = sum(store1.rects[i].area for i in leaves1.tolist())
        domain_area = store1.rects[0].area
        if covered > OVERLAP_WARN_RATIO * domain_area:
            overlap = True
            log.warning(
                "terminal cells cover %.0f%% of domain 1; surfaces likely overlap "
                "in a 2D region, topology output is not meaningful there",
                100.0 * covered / domain_area,
            )

    terminal = None
    if collect_pairs:
        terminal = tuple(BoxPair(store1.rects[i], store2.rects[j])
                         for i, j in zip(ends1.tolist(), ends2.tolist()))
    return IntersectionPointSets(
        points1=points1,
        points2=points2,
        correspondences=correspondences,
        epsilon=float(epsilon),
        cell_diag1=float(store1.diag[ends1].max()) if ends1.size else 0.0,
        cell_diag2=float(store2.diag[ends2].max()) if ends2.size else 0.0,
        overlap_suspected=overlap,
        terminal_pairs=terminal,
    )


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
