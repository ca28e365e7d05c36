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
is a leaf of its surface's split tree: the terminal cells of a domain are
the rects of its distinct ended patches, sorted lexicographically by
centroid, the point cloud is those centroids, and the correspondences are
the distinct id pairs. Results therefore do not depend on the order in which
pairs are visited.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from ._kernels import run_starts
from .errors import ConfigurationError, EmptyInputError, ParameterRangeError
from .geometry import BSplineSurface, _split_net, restrict

log = logging.getLogger(__name__)

# Fraction of a domain covered by terminal cells above which the surfaces
# are reported as overlapping rather than crossing.
OVERLAP_WARN_RATIO = 0.5


@dataclass(frozen=True, eq=False)
class IntersectionPointSets:
    """The two parameter-domain point clouds with their pairing records.

    Row `i` of `cells1` is the terminal cell `[u_min, u_max, v_min, v_max]`
    whose centroid is `points1[i]`, and likewise for domain 2; a
    correspondence row `(i, j)` pairs cell `cells1[i]` with `cells2[j]`.
    The largest cell diagonals `cell_diag1/2` are read from the cells.
    """

    points1: np.ndarray  # (n1, 2) lexicographically sorted, deduplicated
    points2: np.ndarray  # (n2, 2)
    cells1: np.ndarray  # (n1, 4)
    cells2: np.ndarray  # (n2, 4)
    correspondences: np.ndarray  # (m, 2) index pairs into points1/points2
    epsilon: float
    overlap_suspected: bool = False

    @property
    def is_empty(self) -> bool:
        return self.points1.shape[0] == 0

    @property
    def cell_diag1(self) -> float:
        return _largest_diagonal(self.cells1)

    @property
    def cell_diag2(self) -> float:
        return _largest_diagonal(self.cells2)


def _diagonals(rects: np.ndarray) -> np.ndarray:
    """Parameter diagonal of each `[u_min, u_max, v_min, v_max]` row."""
    return np.hypot(rects[:, 1] - rects[:, 0], rects[:, 3] - rects[:, 2])


def _largest_diagonal(rects: np.ndarray) -> float:
    """The largest of `_diagonals(rects)`; 0.0 for no rows."""
    return float(_diagonals(rects).max()) if len(rects) else 0.0


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

    def __init__(self, surface: BSplineSurface):
        root = restrict(surface, surface.param_range)
        self.degrees = (root.degree_u, root.degree_v)
        self.rects = np.array([surface.param_range])
        self.diag = _diagonals(self.rects)
        self.child = np.full(1, -1)
        self.blocks = [(root.knots_u.knots[None], root.knots_v.knots[None],
                        root.control_points[None])]
        self.unsplit = [1]
        self.shapes = {root.control_points.shape: 0}  # net shape -> shape id
        self.block_shape = [0]
        self.block = np.zeros(1, dtype=np.int64)
        self.row = np.zeros(1, dtype=np.int64)
        self.box = _boxes(root.control_points[None])

    def _gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked `(knots_u, knots_v, nets)` of patches `ids`, given in block order."""
        runs = np.split(ids, np.flatnonzero(np.diff(self.block[ids])) + 1)
        parts = [[a[self.row[run]] for a in self.blocks[self.block[run[0]]]] for run in runs]
        return tuple(np.concatenate(arrays) for arrays in zip(*parts))

    def split(self, ids: np.ndarray) -> np.ndarray:
        """First-half id of each patch in `ids`, halving those not yet split.

        This is the one statement of the halving rule: a patch is halved
        across its longer parameter side, u on a tie, at `0.5*(lo + hi)`,
        and the two halves tile its rect exactly. The patches are split in
        groups of one axis and one net shape (which fixes the knot counts),
        one batched `_split_net` call per group.
        """
        todo = np.sort(ids[self.child[ids] < 0])
        todo = todo[run_starts(todo)]
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
            keys = np.sort(key)
            for k in keys[run_starts(keys)].tolist():
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
            drawn = np.sort(src)
            at = np.flatnonzero(run_starts(drawn))
            for b, count in zip(drawn[at].tolist(), np.diff(at, append=drawn.size).tolist()):
                self.unsplit[b] -= count
                if not self.unsplit[b]:
                    self.blocks[b] = None
            self.rects = np.concatenate([self.rects, halves])
            self.diag = np.concatenate([self.diag, _diagonals(halves)])
            self.child = np.concatenate([self.child, np.full(2 * m, -1)])
            self.block = np.concatenate([self.block, block])
            self.row = np.concatenate([self.row, row])
            self.box = np.concatenate([self.box, box])
        return self.child[ids]

    def leaves(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct patches of `ids`: their rects and rect centroids, both
        sorted lexicographically by centroid, and the row of each entry of
        `ids`."""
        distinct, inverse = np.unique(ids, return_inverse=True)
        r = self.rects[distinct]
        centroids = np.stack([0.5 * (r[:, 0] + r[:, 1]), 0.5 * (r[:, 2] + r[:, 3])], axis=1)
        order = np.lexsort((centroids[:, 1], centroids[:, 0]))
        row = np.empty_like(order)
        row[order] = np.arange(order.size)
        return r[order], centroids[order], row[inverse]


def intersect_surfaces(
    surface1: BSplineSurface,
    surface2: BSplineSurface,
    epsilon: float,
) -> IntersectionPointSets:
    """Isolate the intersection region of two surfaces down to `epsilon`.

    Starting from the full parameter rectangles, the pair member with the
    larger parameter diagonal is bisected while either diagonal exceeds
    `epsilon`; child pairs survive only if their patch boxes intersect
    (closed-box test, so tangential contact is kept). Terminal pairs yield
    the terminal cells and their centroids in each domain and one
    correspondence record.
    """
    if not 0 < epsilon < np.inf:
        raise ConfigurationError(f"epsilon must be positive and finite, got {epsilon}")

    store1 = _PatchStore(surface1)
    store2 = _PatchStore(surface2)
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
    cells1, points1, rows1 = store1.leaves(ends1)
    cells2, points2, rows2 = store2.leaves(ends2)
    # The distinct row pairs, sorted: rows1 * n2 + rows2 sorts as the pair does.
    n2 = points2.shape[0]
    correspondences = np.stack(np.divmod(np.unique(rows1 * n2 + rows2), n2), axis=1)

    overlap = False
    if ends1.size:
        covered = sum(((cells1[:, 1] - cells1[:, 0]) * (cells1[:, 3] - cells1[:, 2])).tolist())
        u_min, u_max, v_min, v_max = store1.rects[0].tolist()
        domain_area = (u_max - u_min) * (v_max - v_min)
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
        cells1=cells1,
        cells2=cells2,
        correspondences=correspondences,
        epsilon=float(epsilon),
        overlap_suspected=overlap,
    )


def hausdorff_bound(sets: IntersectionPointSets) -> tuple[float, float]:
    """Certified point-to-intersection Hausdorff bound per domain.

    Half the largest terminal-cell diagonal: every true intersection point in
    a terminal cell lies within this distance of the cell's centroid sample.
    """
    if sets.is_empty:
        raise EmptyInputError("no intersection points; Hausdorff bound undefined")
    return (0.5 * sets.cell_diag1, 0.5 * sets.cell_diag2)


def dump_box_pairs(path, sets: IntersectionPointSets) -> None:
    """Write the terminal cell pair of each correspondence row to a JSON file
    for debugging, in correspondence order."""
    records = [
        {"rect1": sets.cells1[i].tolist(), "rect2": sets.cells2[j].tolist()}
        for i, j in sets.correspondences.tolist()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
