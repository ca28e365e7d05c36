"""Level-synchronous box-pair subdivision of two surfaces into intersection
point sets.

Each surface's patches live in a `_PatchStore` and are addressed by integer
id; their rects are rows of one array. A patch holds its clamped knots and
restricted control net until it is split; a split halves the rect's longer
side, happens at most once per patch, and its two halves get consecutive
ids, which every pair that holds the parent then shares. A level's splits
run as a few batched knot insertions, one per group of patches with the
same split axis and net shape, and the nets they make are kept as arrays,
one block per batch, for the whole run. Once the first few levels have cut
the patches between their knots, each group is one knot insertion call, and
both halves' boxes come from one call. The boxes are stored column by
column, so that the per-level box test runs along long rows.

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
from dataclasses import dataclass, field

import numpy as np

from ._kernels import freeze, run_starts
from .errors import EmptyInputError, ParameterRangeError, check_open
from .geometry import BSplineSurface, _split_net, restrict

log = logging.getLogger(__name__)

# Fraction of a domain covered by terminal cells above which the surfaces
# are reported as overlapping rather than crossing.
OVERLAP_WARN_RATIO = 0.5


@dataclass(frozen=True, eq=False)
class IntersectionPointSets:
    """The two parameter-domain point clouds with their pairing records.

    Row `i` of `cells1` is the terminal cell `[u_min, u_max, v_min, v_max]`
    and `points1[i]` is its centroid, and likewise for domain 2; a
    correspondence row `(i, j)` pairs cell `cells1[i]` with `cells2[j]`.
    The points and the largest cell diagonals `cell_diag1/2` are read from
    the cells. Every array is held as a read-only copy.
    """

    cells1: np.ndarray  # (n1, 4) sorted lexicographically by centroid
    cells2: np.ndarray  # (n2, 4)
    correspondences: np.ndarray  # (m, 2) index pairs into cells1/cells2
    epsilon: float
    overlap_suspected: bool = False
    points1: np.ndarray = field(init=False)  # (n1, 2) centroids of cells1
    points2: np.ndarray = field(init=False)  # (n2, 2)

    def __post_init__(self):
        freeze(self, np.float64, "cells1", "cells2")
        object.__setattr__(self, "points1", _centroids(self.cells1))
        object.__setattr__(self, "points2", _centroids(self.cells2))
        freeze(self, np.float64, "points1", "points2")
        freeze(self, np.int64, "correspondences")

    @property
    def is_empty(self) -> bool:
        return self.cells1.shape[0] == 0

    @property
    def cell_diag1(self) -> float:
        return _largest_diagonal(self.cells1)

    @property
    def cell_diag2(self) -> float:
        return _largest_diagonal(self.cells2)


def _centroids(rects: np.ndarray) -> np.ndarray:
    """Centroid `(u, v)` of each `[u_min, u_max, v_min, v_max]` row."""
    return 0.5 * (rects[:, 0::2] + rects[:, 1::2])


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

    The work runs on a (point, coordinate, net) copy and the result is the
    transpose of a (6, m) array: numpy is several times faster along a long
    axis than along the short ones of a net. A min or max is exact, and a
    signed zero it picks changes no box bit, so the layout is free.
    """
    flat = np.reshape(nets, (len(nets), -1, 3))
    cols = np.ascontiguousarray(flat.transpose(1, 2, 0))
    lo = cols.min(axis=0)
    hi = cols.max(axis=0)
    pad = 1e-12 * (1.0 + np.maximum(-lo, hi).max(axis=0))
    return np.concatenate([lo - pad, hi + pad]).T


def _overlap(box1: np.ndarray, box2: np.ndarray) -> np.ndarray:
    """Row-wise closed-box test of two `_boxes` arrays: touching boxes overlap.
    Arrays stored column by column, as the transpose of a `(6, m)` array,
    are tested fastest."""
    k = box1.shape[1] // 2
    near = (box1[:, :k] <= box2[:, k:]) & (box2[:, :k] <= box1[:, k:])
    # One `&` per axis: numpy's `all(axis=1)` over three columns is slower.
    out = near[:, 0]
    for axis in range(1, k):
        out = out & near[:, axis]
    return out


class _PatchStore:
    """The patches of one surface's split tree, addressed by integer id.

    Patch `i` covers the rect `rects[i] = [u_min, u_max, v_min, v_max]` and
    has parameter diagonal `diag[i]` and box `box[:, i]`, a `(6, n)` array
    holding the transpose of `_boxes` rows. Until it is split it
    holds clamped knots and a control net: row `row[i]` of block
    `blocks[block[i]]`, a `(knots_u, knots_v, nets)` triple of arrays for
    patches of one net shape made by one batched split. Once split, its
    halves are `child[i]` and `child[i] + 1`; a block is kept for the whole run.

    Each per-patch array holds its patches along its last axis, with spare
    room that doubles when a split needs more, so a level copies no earlier
    patch; these names read the `size` live ones.
    """

    _ARRAYS = ("_rects", "_diag", "_child", "_block", "_row", "_box")

    def __init__(self, surface: BSplineSurface):
        root = restrict(surface, surface.param_range)
        self.degrees = (root.degree_u, root.degree_v)
        self.size = 1
        self._rects = np.array([surface.param_range]).T
        self._diag = _diagonals(self._rects.T)
        self._child = np.full(1, -1)
        self.blocks = [(root.knots_u.knots[None], root.knots_v.knots[None],
                        root.control_points[None])]
        self.shapes = {root.control_points.shape: 0}  # net shape -> shape id
        self.block_shape = [0]
        self._block = np.zeros(1, dtype=np.int64)
        self._row = np.zeros(1, dtype=np.int64)
        self._box = _boxes(root.control_points[None]).T

    rects = property(lambda self: self._rects[:, : self.size].T)
    diag = property(lambda self: self._diag[: self.size])
    child = property(lambda self: self._child[: self.size])
    block = property(lambda self: self._block[: self.size])
    row = property(lambda self: self._row[: self.size])
    box = property(lambda self: self._box[:, : self.size])

    def _grow(self, m: int) -> slice:
        """The ids of `m` new patches, doubling the capacity if they do not fit."""
        n = self.size
        if n + m > self._child.size:
            capacity = max(n + m, 2 * self._child.size)
            for name in self._ARRAYS:
                old = getattr(self, name)
                new = np.empty(old.shape[:-1] + (capacity,), dtype=old.dtype)
                new[..., :n] = old[..., :n]
                setattr(self, name, new)
        self.size = n + m
        return slice(n, n + m)

    def _gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked `(knots_u, knots_v, nets)` of patches `ids`, given in block order."""
        blocks, rows = self.block[ids], self.row[ids]
        cuts = np.flatnonzero(run_starts(blocks)).tolist() + [ids.size]
        parts = [[a.take(rows[i:j], axis=0) for a in self.blocks[blocks[i]]]
                 for i, j in zip(cuts, cuts[1:])]
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
            rects = self._rects.take(todo, axis=1).T
            along_v = rects[:, 1] - rects[:, 0] < rects[:, 3] - rects[:, 2]
            lo = np.where(along_v, rects[:, 2], rects[:, 0])
            hi = np.where(along_v, rects[:, 3], rects[:, 1])
            mid = 0.5 * (lo + hi)
            proper = (lo < mid) & (mid < hi)
            if not proper.all():
                raise ParameterRangeError(
                    f"halving {rects[~proper][0].tolist()} gives a degenerate rectangle")
            new = self._grow(2 * m)
            self._child[todo] = new.start + 2 * np.arange(m)
            self._child[new] = -1
            halves = self._rects[:, new].T
            halves[:] = np.repeat(rects, 2, axis=0)
            halves[2 * np.arange(m), 1 + 2 * along_v] = mid
            halves[2 * np.arange(m) + 1, 2 * along_v] = mid
            self._diag[new] = _diagonals(halves)

            block, row, box = self._block[new], self._row[new], self._box[:, new]
            # One group per (net shape, split axis), its members in block
            # order; a group may draw its patches from several blocks.
            src = self.block[todo]
            key = 2 * np.asarray(self.block_shape)[src] + along_v
            order = np.lexsort((src, key))
            cuts = np.flatnonzero(run_starts(key[order])).tolist() + [m]
            for i, j in zip(cuts, cuts[1:]):
                members = order[i:j]
                axis = int(key[members[0]]) % 2
                knots_u, knots_v, nets = self._gather(todo[members])
                other = (knots_v, knots_u)[axis]
                for rows, *sides in _split_net((knots_u, knots_v)[axis], nets,
                                               self.degrees[axis], mid[members], axis):
                    at = 2 * members[rows]
                    (_, left), (_, right) = sides
                    if left.shape == right.shape:
                        boxes = _boxes(np.concatenate([left, right])).T
                        box[:, at], box[:, at + 1] = boxes[:, : rows.size], boxes[:, rows.size :]
                    else:
                        box[:, at], box[:, at + 1] = _boxes(left).T, _boxes(right).T
                    # Both halves keep the knots across the split axis; the
                    # blocks are only read, so they share one copy.
                    kept = other.take(rows, axis=0)
                    for side, (knots, half) in enumerate(sides):
                        self.blocks.append((knots, kept, half) if axis == 0
                                           else (kept, knots, half))
                        shape = self.shapes.setdefault(half.shape[1:], len(self.shapes))
                        self.block_shape.append(shape)
                        block[at + side] = len(self.blocks) - 1
                        row[at + side] = np.arange(rows.size)
        return self.child[ids]

    def leaves(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct patches of `ids`: their rects, sorted lexicographically
        by centroid, and the row of each entry of `ids`."""
        distinct, inverse = np.unique(ids, return_inverse=True)
        r = self._rects.take(distinct, axis=1).T
        centroids = _centroids(r)
        order = np.lexsort((centroids[:, 1], centroids[:, 0]))
        row = np.empty_like(order)
        row[order] = np.arange(order.size)
        return r[order], row[inverse]


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
    check_open(epsilon, "epsilon must be positive and finite")

    store1 = _PatchStore(surface1)
    store2 = _PatchStore(surface2)
    a = b = np.zeros(1, dtype=np.int64)
    ended1: list[np.ndarray] = []
    ended2: list[np.ndarray] = []
    while a.size:
        # `take` keeps the gathered columns contiguous; `box[:, a]` need not.
        keep = _overlap(store1.box.take(a, axis=1).T, store2.box.take(b, axis=1).T)
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
    cells1, rows1 = store1.leaves(ends1)
    cells2, rows2 = store2.leaves(ends2)
    # The distinct row pairs, sorted: rows1 * n2 + rows2 sorts as the pair does.
    n2 = cells2.shape[0]
    correspondences = np.stack(np.divmod(np.unique(rows1 * n2 + rows2), n2), axis=1)

    covered = sum(((cells1[:, 1] - cells1[:, 0]) * (cells1[:, 3] - cells1[:, 2])).tolist())
    u_min, u_max, v_min, v_max = store1.rects[0].tolist()
    domain_area = (u_max - u_min) * (v_max - v_min)
    overlap = covered > OVERLAP_WARN_RATIO * domain_area
    if overlap:
        log.warning(
            "terminal cells cover %.0f%% of domain 1; surfaces likely overlap "
            "in a 2D region, topology output is not meaningful there",
            100.0 * covered / domain_area,
        )

    return IntersectionPointSets(
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
    # json.dumps runs CPython's C encoder; json.dump to a file does not.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(records))
