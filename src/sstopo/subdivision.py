"""Level-synchronous box-pair subdivision of two surfaces into intersection
point sets.

Each surface's patches live in a `_PatchStore` and are addressed by integer
id; their rects are rows of one array. A patch holds its clamped knots and
restricted control net until it is split; a split halves the rect's longer
side, happens at most once per patch, and its two halves get consecutive
ids, which every pair that holds the parent then shares. A level's splits
run as a few batched knot insertions, one per group of patches with the
same split axis and net shape, and the nets they make are kept as arrays,
one block per batch, freed once every patch in the block is split.

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

from .errors import ConfigurationError, EmptyInputError, ParameterRangeError
from .geometry import BSplineSurface, ParamRect, _split_net, restrict

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


def _boxes(nets) -> np.ndarray:
    """Padded axis-aligned boxes of same-shape control nets `(m, ..., 3)`,
    one row `[lo | hi]` per net.

    The pad is relative: the control-net hull bounds the exact patch, but the
    net itself carries ulp-level insertion roundoff, and tangential contacts
    (boxes touching exactly) must never be lost to it. `max(-lo, hi)` is the
    net's largest absolute coordinate, since negation is exact.
    """
    flat = np.reshape(nets, (len(nets), -1, 3))
    lo = flat.min(axis=1)
    hi = flat.max(axis=1)
    pad = 1e-12 * (1.0 + np.maximum(-lo, hi).max(axis=1, keepdims=True))
    return np.hstack([lo - pad, hi + pad])


def _overlap(box1: np.ndarray, box2: np.ndarray) -> np.ndarray:
    """Row-wise closed-box test of two `_boxes` arrays: touching boxes overlap."""
    k = box1.shape[1] // 2
    return ((box1[:, :k] <= box2[:, k:]) & (box2[:, :k] <= box1[:, k:])).all(axis=1)


class _PatchStore:
    """The patches of one surface's split tree, addressed by integer id.

    Patch `i` covers the rect `rects[i] = [u_min, u_max, v_min, v_max]` and
    has parameter diagonal `diag[i]` and box `box[i]`. Until it is split it
    holds clamped knots and a control net: row `row[i]` of block
    `blocks[block[i]]`, a `(knots_u, knots_v, nets)` triple of arrays for
    patches of one net shape made by one batched split. Once split, its
    halves are `child[i]` and `child[i] + 1`; a block is freed when all its
    patches are split.
    """

    def __init__(self, surface: BSplineSurface, surface_id: int):
        rect = surface.full_rect(surface_id)
        root = restrict(surface, rect)
        self.surface_id = surface_id
        self.degrees = (root.degree_u, root.degree_v)
        self.rects = np.array([[rect.u_min, rect.u_max, rect.v_min, rect.v_max]])
        self.diag = np.array([rect.diagonal])
        self.child = np.full(1, -1)
        self.blocks = [(root.knots_u.knots[None], root.knots_v.knots[None],
                        root.control_points[None])]
        self.unsplit = [1]
        self.shapes = {root.control_points.shape: 0}  # net shape -> shape id
        self.block_shape = [0]
        self.block = np.zeros(1, dtype=np.int64)
        self.row = np.zeros(1, dtype=np.int64)
        self.box = _boxes(root.control_points[None])

    def rect(self, i: int) -> ParamRect:
        return ParamRect(*self.rects[i].tolist(), self.surface_id)

    def _gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked `(knots_u, knots_v, nets)` of patches `ids`, given in block order."""
        runs = np.split(ids, np.flatnonzero(np.diff(self.block[ids])) + 1)
        parts = [[a[self.row[run]] for a in self.blocks[self.block[run[0]]]] for run in runs]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    def split(self, ids: np.ndarray) -> np.ndarray:
        """First-half id of each patch in `ids`, halving those not yet split.

        Each patch is halved by `split_rect`'s rule. The patches are split in
        groups of one axis and one net shape (which fixes the knot counts),
        one batched `_split_net` call per group.
        """
        todo = np.unique(ids[self.child[ids] < 0])
        if todo.size:
            m = todo.size
            self.child[todo] = len(self.rects) + 2 * np.arange(m)
            rects = self.rects[todo]
            along_v = rects[:, 1] - rects[:, 0] < rects[:, 3] - rects[:, 2]
            lo = np.where(along_v, rects[:, 2], rects[:, 0])
            hi = np.where(along_v, rects[:, 3], rects[:, 1])
            mid = 0.5 * (lo + hi)
            proper = (lo < mid) & (mid < hi)
            if not proper.all():
                raise ParameterRangeError(
                    f"halving {rects[~proper][0].tolist()} gives a degenerate rectangle")
            halves = np.repeat(rects, 2, axis=0)
            halves[2 * np.arange(m), 1 + 2 * along_v] = mid
            halves[2 * np.arange(m) + 1, 2 * along_v] = mid

            block = np.empty(2 * m, dtype=np.int64)
            row = np.empty(2 * m, dtype=np.int64)
            box = np.empty((2 * m, 6))
            # One group per (net shape, split axis); a group may draw its
            # patches from several blocks.
            src = self.block[todo]
            key = 2 * np.asarray(self.block_shape)[src] + along_v
            for k in np.unique(key).tolist():
                axis = k % 2
                members = np.flatnonzero(key == k)
                members = members[np.argsort(src[members], kind="stable")]
                knots_u, knots_v, nets = self._gather(todo[members])
                other = (knots_v, knots_u)[axis]
                for rows, *sides in _split_net((knots_u, knots_v)[axis], nets,
                                               self.degrees[axis], mid[members], axis):
                    at = 2 * members[rows]
                    for side, (knots, half) in enumerate(sides):
                        self.blocks.append((knots, other[rows], half) if axis == 0
                                           else (other[rows], knots, half))
                        self.unsplit.append(rows.size)
                        shape = self.shapes.setdefault(half.shape[1:], len(self.shapes))
                        self.block_shape.append(shape)
                        block[at + side] = len(self.blocks) - 1
                        row[at + side] = np.arange(rows.size)
                        box[at + side] = _boxes(half)
            for b, count in zip(*np.unique(src, return_counts=True)):
                self.unsplit[b] -= count
                if not self.unsplit[b]:
                    self.blocks[b] = None
            self.rects = np.concatenate([self.rects, halves])
            self.diag = np.concatenate([self.diag, np.hypot(halves[:, 1] - halves[:, 0],
                                                            halves[:, 3] - halves[:, 2])])
            self.child = np.concatenate([self.child, np.full(2 * m, -1)])
            self.block = np.concatenate([self.block, block])
            self.row = np.concatenate([self.row, row])
            self.box = np.concatenate([self.box, box])
        return self.child[ids]

    def leaves(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct patches of `ids`: their ids, their rect centroids sorted
        lexicographically, and the centroid row of each entry of `ids`."""
        distinct, inverse = np.unique(ids, return_inverse=True)
        r = self.rects[distinct]
        centroids = np.stack([0.5 * (r[:, 0] + r[:, 1]), 0.5 * (r[:, 2] + r[:, 3])], axis=1)
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
    # The distinct row pairs, sorted: rows1 * n2 + rows2 sorts as the pair does.
    n2 = points2.shape[0]
    correspondences = np.stack(np.divmod(np.unique(rows1 * n2 + rows2), n2), axis=1)

    overlap = False
    if ends1.size:
        r = store1.rects
        covered = sum(((r[leaves1, 1] - r[leaves1, 0]) * (r[leaves1, 3] - r[leaves1, 2])).tolist())
        domain_area = store1.rect(0).area
        if covered > OVERLAP_WARN_RATIO * domain_area:
            overlap = True
            log.warning(
                "terminal cells cover %.0f%% of domain 1; surfaces likely overlap "
                "in a 2D region, topology output is not meaningful there",
                100.0 * covered / domain_area,
            )

    terminal = None
    if collect_pairs:
        terminal = tuple(BoxPair(store1.rect(i), store2.rect(j))
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
