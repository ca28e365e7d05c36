"""Hot numeric kernels: B-spline evaluation, knot insertion and the
strict-<delta neighbor queries.

The spline kernels work on whole control rows: de Boor's recursion and
Boehm's knot insertion each blend a run of adjacent rows per step.

The neighbor queries never list every close pair. As in grid DBSCAN
(Gunawan 2013; de Berg, Gunawan & Roeloffzen 2017), they bucket the points
into square cells a little wider than delta/2 (delta/4 for the supremum) and
bound each pair of nearby cells by their points' bounding boxes: the
per-axis gap bounds every point distance between the two cells from below,
the far extent from above. A cell pair whose upper bound is below delta is
fully near, one whose lower bound is not is dropped, and only the rest are
tested point by point, while they can still change the answer. Every
distance test is ``dx*dx + dy*dy < delta*delta``. IEEE rounding is monotone,
so box bounds computed the same way bound the computed point distances
exactly, and both kernels return bit for bit what a loop over all pairs
returns.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; there is one, on numpy."""
    return "numpy"


# ---------------------------------------------------------------------------
# B-spline span search / de Boor / knot insertion
# ---------------------------------------------------------------------------


def _span(knots, degree, t):
    # Largest k in [degree, len(knots)-degree-2] with knots[k] <= t.
    k = int(np.searchsorted(knots, t, side="right")) - 1
    return min(max(k, degree), knots.shape[0] - degree - 2)


def _deboor_rows(knots, degree, span, rows, t):
    # de Boor's recursion along axis 0 of the degree+1 rows that act at t.
    d = rows.reshape(degree + 1, -1)
    for r in range(1, degree + 1):
        lo = knots[span - degree + r : span + 1]
        hi = knots[span + 1 : span + degree + 2 - r]
        alpha = ((t - lo) / (hi - lo))[:, None]
        d = (1.0 - alpha) * d[:-1] + alpha * d[1:]
    return d[0].reshape(rows.shape[1:])


def deboor_point(knots_u, degree_u, knots_v, degree_v, ctrl, u, v):
    su = _span(knots_u, degree_u, u)
    sv = _span(knots_v, degree_v, v)
    net = ctrl[su - degree_u : su + 1, sv - degree_v : sv + 1, :]
    column = _deboor_rows(knots_u, degree_u, su, net, u)
    # A copy: with both degrees 0 no row is blended and the result is a view
    # of the read-only control net.
    return np.array(_deboor_rows(knots_v, degree_v, sv, column, v))


def insert_knot(knots, ctrl, degree, t, times):
    # Boehm insertion of t, `times` times, along axis 0 of a (n, w) net.
    # Span: last index with knots[k] <= t, clamped to the top control row so
    # inserting at the valid end of an unclamped vector stays in bounds.
    for _ in range(times):
        k = min(int(np.searchsorted(knots, t, side="right")) - 1, ctrl.shape[0] - 1)
        lo = knots[k - degree + 1 : k + 1]
        alpha = ((t - lo) / (knots[k + 1 : k + degree + 1] - lo))[:, None]
        blended = (1.0 - alpha) * ctrl[k - degree : k] + alpha * ctrl[k - degree + 1 : k + 1]
        ctrl = np.concatenate([ctrl[: k - degree + 1], blended, ctrl[k:]])
        knots = np.concatenate([knots[: k + 1], [t], knots[k + 1 :]])
    return knots, ctrl


# ---------------------------------------------------------------------------
# Fixed-radius neighbor kernels (strict < delta) on a fine grid
# ---------------------------------------------------------------------------

# A grid of reach r has cells of side (1 + 2**-6) * delta / r and searches r
# cell offsets per axis. That finds every close pair: dx*dx + dy*dy <
# delta*delta in floating point implies |dx| < delta exactly, because
# rounding is monotone, so the quotients x / side of two close points differ
# by less than r / (1 + 2**-6) <= r - 0.015 r. Each computed quotient is off
# by at most 2**-9 while |x / side| <= _INDEX_LIMIT, so the computed
# quotients differ by less than r and their floors by at most r.
_MARGIN = 1.0 + 2.0**-6
_INDEX_LIMIT = 2.0**44
# Reaches of the two kernels, measured on the clouds benchmark's calls. The
# components need only some close pair per cell pair, which delta/2 cells
# find cheaply. The supremum tests every pair of two cells whose bound can
# still win; those pairs straddle the delta circle, and delta/4 cells halve
# that band (0.60 s instead of 1.03 s for one pass's calls).
_COMPONENTS_REACH = 2
_SUP_REACH = 4
# Point pairs tested per vectorized block.
_BLOCK = 1 << 16


def _sq(d):
    # Squared length of each row of an (m, 2) difference array.
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]


class _Grid:
    """Points sorted by cell, and the cell pairs that may hold a close pair.

    ``order`` maps sorted positions to input indices; cell ``c`` holds the
    sorted positions ``head[c] : head[c] + count[c]``, and ``cell`` maps
    each sorted position to its cell. The candidate pairs
    ``(a[k], b[k])`` are each cell with two or more points paired with
    itself, then every pair of distinct cells within reach whose boxes'
    gap is below delta. ``full[k]`` marks a pair whose every point pair is
    closer than delta; ``tight[c]`` marks a cell whose points are pairwise
    closer than delta.
    """

    def __init__(self, pts: np.ndarray, delta: float, reach: int):
        n = pts.shape[0]
        # A larger side only costs speed; it keeps the quotients in range.
        side = max(_MARGIN * delta / reach, float(np.abs(pts).max()) / _INDEX_LIMIT,
                   2.0**-1000)
        ij = np.floor(pts / side)
        # Renumber each axis so that gaps wider than the reach shrink to
        # reach + 1: offsets within reach stay exact and keys stay small.
        for axis in range(2):
            perm = np.argsort(ij[:, axis])
            step = np.minimum(np.diff(ij[perm, axis]), reach + 1)
            ij[perm, axis] = np.concatenate(([0.0], np.cumsum(step)))
        ij = ij.astype(np.int64)
        width = int(ij[:, 1].max()) + 2 * reach + 1
        key = ij[:, 0] * width + ij[:, 1]

        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        self.head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        self.count = np.diff(np.append(self.head, n))
        self.cell = np.repeat(np.arange(self.head.size), self.count)
        self.xy = pts[self.order]
        keys = key[self.head]
        self.lo = lo = np.minimum.reduceat(self.xy, self.head)
        self.hi = hi = np.maximum.reduceat(self.xy, self.head)

        offsets = np.array([dx * width + dy for dx in range(reach + 1)
                            for dy in range(-reach, reach + 1) if dx > 0 or dy > 0])
        multi = np.flatnonzero(self.count > 1)
        a, b = [multi], [multi]
        # Look the neighbors up a block of cells at a time to bound memory.
        step = _BLOCK // offsets.size
        for c in range(0, keys.size, step):
            target = keys[c : c + step, None] + offsets
            found = np.searchsorted(keys, target)
            row, col = np.nonzero(keys[np.minimum(found, keys.size - 1)] == target)
            a.append(row + c)
            b.append(found[row, col])
        a, b = np.concatenate(a), np.concatenate(b)

        self.d2 = delta * delta
        la, lb, ha, hb = lo[a], lo[b], hi[a], hi[b]
        lower = _sq(np.maximum(np.maximum(lb - ha, la - hb), 0.0))
        extent = np.maximum(ha, hb) - np.minimum(la, lb)
        full = _sq(extent) < self.d2
        self.tight = self.count == 1
        self.tight[multi] = full[: multi.size]
        keep = lower < self.d2
        self.a, self.b, self.lower, self.full = a[keep], b[keep], lower[keep], full[keep]

    def point_pairs(self, a, b):
        """Yield sorted positions ``(i, j)`` that pair every point of cell
        ``a[k]`` with every point of cell ``b[k]``, about _BLOCK at a time."""
        k, i = _ranges(self.head[a], self.count[a])
        start, size = self.head[b][k], self.count[b][k]
        for s in _slices(size):
            r, j = _ranges(start[s], size[s])
            yield i[s][r], j

    def near(self, i, j):
        """Mask of the point pairs (i, j) closer than delta, self pairs excluded."""
        return (_sq(self.xy[i] - self.xy[j]) < self.d2) & (i != j)


def _ranges(start, size):
    """The range number and the position of every element of the ranges
    ``start[k] : start[k] + size[k]``, concatenated."""
    k = np.repeat(np.arange(size.size), size)
    return k, start[k] + np.arange(k.size) - np.repeat(np.cumsum(size) - size, size)


def _slices(size):
    """Consecutive slices of ``size`` that each sum to about _BLOCK."""
    if size.size == 0:
        return []
    ends = np.cumsum(size)
    cuts = np.searchsorted(ends, np.arange(_BLOCK, ends[-1], _BLOCK), side="right")
    bounds = [0, *np.unique(cuts).tolist(), size.size]
    return [slice(x, y) for x, y in zip(bounds[:-1], bounds[1:]) if y > x]


def _join(root, u, v):
    """Merge the sets holding u[k] and v[k] in a forest of stars, where
    root[p] is the root of p's set; returns the merged forest of stars."""
    while u.size:
        ru, rv = root[u], root[v]
        live = ru != rv
        u, v, ru, rv = u[live], v[live], ru[live], rv[live]
        # Each root joins the least root it meets, so no cycle can form.
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    return root


def neighbor_components(points: np.ndarray, delta: float) -> np.ndarray:
    """Connected-component labels of the strict-<delta neighborhood graph.

    Labels are canonical: component ids are assigned in order of each
    component's first point index, so the encoding does not depend on how
    the components were found.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    g = _Grid(pts, delta, _COMPONENTS_REACH)
    a, b, cell = g.a, g.b, g.cell
    # A tight cell is one clique: its points start at its head.
    root = np.where(g.tight[cell], g.head[cell], np.arange(n))
    clique = g.full & g.tight[a] & g.tight[b]
    root = _join(root, g.head[a[clique]], g.head[b[clique]])
    rest = np.flatnonzero(~clique)
    # Probe each other pair through the points nearest its boxes' centres;
    # that joins most neighboring cells of a dense cloud at once.
    off = g.xy - ((g.lo + g.hi) / 2)[cell]
    probe = np.lexsort((_sq(off), cell))[g.head]
    i, j = probe[a[rest]], probe[b[rest]]
    near = g.near(i, j)
    root = _join(root, i[near], j[near])
    # Test the rest closest first, skipping cells that are already joined.
    rest = rest[np.argsort(g.lower[rest], kind="stable")]
    for s in _slices(g.count[a[rest]] * g.count[b[rest]]):
        k = rest[s]
        k = k[~(g.tight[a[k]] & g.tight[b[k]]) | (root[g.head[a[k]]] != root[g.head[b[k]]])]
        for i, j in g.point_pairs(a[k], b[k]):
            near = g.near(i, j)
            root = _join(root, i[near], j[near])
    labels = np.empty(n, dtype=np.int64)
    labels[g.order] = root
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inverse]


def neighbor_sup_abs_diff(
    points: np.ndarray, values: np.ndarray, delta: float
) -> tuple[float, bool]:
    """Max |values[i]-values[j]| over point pairs at distance < delta.

    Returns ``(0.0, False)`` when no pair qualifies.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if pts.shape[0] < 2:
        return 0.0, False
    g = _Grid(pts, delta, _SUP_REACH)
    a, b = g.a, g.b
    v = vals[g.order]
    vlo = np.minimum.reduceat(v, g.head)
    vhi = np.maximum.reduceat(v, g.head)
    # Each cell pair's bound is reached by a real point pair when the cell
    # pair is fully near, so it is then the pair's exact maximum.
    bound = np.maximum(vhi[a] - vlo[b], vhi[b] - vlo[a])
    found = bool(g.full.any())
    best = bound[g.full].max() if found else -np.inf
    # Test the rest by decreasing bound until no bound can beat the best.
    rest = np.flatnonzero(~g.full & (bound > best))
    rest = rest[np.argsort(-bound[rest], kind="stable")]
    for s in _slices(g.count[a[rest]] * g.count[b[rest]]):
        k = rest[s]
        k = k[bound[k] > best]
        if k.size == 0:
            break
        for i, j in g.point_pairs(a[k], b[k]):
            near = g.near(i, j)
            if near.any():
                found = True
                best = max(best, np.abs(v[i[near]] - v[j[near]]).max())
    if not found:
        return 0.0, False
    return float(best), True
