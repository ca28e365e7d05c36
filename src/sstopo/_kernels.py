"""Hot numeric kernels: B-spline evaluation, knot insertion and the
strict-<delta neighbor queries.

The spline kernels work on whole control rows: de Boor's recursion and
Boehm's knot insertion each blend a run of adjacent rows per step.

The neighbor queries never list every close pair. As in grid DBSCAN
(Gunawan 2013; de Berg, Gunawan & Roeloffzen 2017), they bucket the points
into square cells a little wider than delta/2 (delta/4 for the supremum) and
bound each pair of nearby cells by their points' bounding boxes: the
per-axis gap bounds every point distance between the two cells from below,
the far extent from above. A cell pair whose lower bound is not below delta
is dropped. One whose upper bound is below delta is fully near: the
supremum takes its bound as exact, and the components join it through a
probe of the two points nearest its boxes' centres, the probe every pair
gets first. Each cell's probe point is a segment minimum of the squared
offsets over the points sorted by cell. The other pairs are tested point by
point while they can still change the answer; the components drop the pairs
that the probes already joined before ordering the rest. Every distance test
is ``dx*dx + dy*dy < delta*delta``. IEEE rounding is monotone, so box bounds
computed the same way bound the computed point distances exactly, and both
kernels return bit for bit what a loop over all pairs returns.

The grid's sorts use numpy's default sort, which need not keep ties in
input order: no result depends on the order of the points within a cell or
of cell pairs with equal bounds, since the component labels are renumbered
by first input index and the supremum is a maximum. The witness order below
is the exception, as its ties decide which pairs are tested; it stays the
stable order, and only runs of equal keys are re-sorted by index.

The component labels take an optional group id per point, and cells are
keyed by group as well as position, so that one grid clusters every
interval of a Mapper cover at once: no cell pair spans two groups.

A caller that needs only some monotone function of the supremum, as the
Mapper's interval count is, can let the supremum try a witness first: each
point is tested against its next few points in a caller's order, with the
same arithmetic, and the best of those pairs is a lower bound the grid path
would reach bit for bit. When the caller's predicate accepts that bound, no
grid is built; otherwise the exact grid path runs unchanged.
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
    # Boehm insertion of t[g], `times` times, along axis 1 of G nets at once:
    # knots (G, L), ctrl (G, n, w). Row g's span k is the last index with
    # knots[g, k] <= t[g], clamped to the top control row so inserting at the
    # valid end of an unclamped vector stays in bounds. Rows k-degree+1..k
    # become blends of their old row and the one before; every row and knot
    # above them moves up by one, and t lands after knot k.
    g = np.arange(knots.shape[0])[:, None]
    tc = t[:, None]
    for _ in range(times):
        n, size = ctrl.shape[1], knots.shape[1]
        k = np.minimum(np.count_nonzero(knots <= tc, axis=1) - 1, n - 1)[:, None]
        lo_i = k - degree + 1 + np.arange(degree)
        lo = knots[g, lo_i]
        alpha = ((tc - lo) / (knots[g, lo_i + degree] - lo))[:, :, None]
        blended = (1.0 - alpha) * ctrl[g, lo_i - 1] + alpha * ctrl[g, lo_i]
        i = np.arange(n + 1)
        rows = np.where(i <= k - degree, i, np.where(i <= k, i - (k - degree + 1) + n, i - 1))
        ctrl = np.concatenate([ctrl, blended], axis=1)[g, rows]
        i = np.arange(size + 1)
        at = np.where(i <= k, i, np.where(i == k + 1, size, i - 1))
        knots = np.concatenate([knots, tc], axis=1)[g, at]
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
# Successors in the witness order that each point is tested against.
_WITNESS_REACH = 3


def _sq(d):
    # Squared length of each row of an (m, 2) difference array.
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]


class _Grid:
    """Points sorted by cell, and the cell pairs that may hold a close pair.

    With an integer ``groups`` id per point, cells are keyed by group as
    well as position, so no cell or candidate pair joins two groups.

    ``order`` maps sorted positions to input indices; cell ``c`` holds the
    sorted positions ``head[c] : head[c] + count[c]``, and ``cell`` maps
    each sorted position to its cell. The candidate pairs
    ``(a[k], b[k])`` are each cell with two or more points paired with
    itself, then every pair of distinct cells within reach whose boxes'
    gap is below delta. ``full[k]`` marks a pair whose every point pair is
    closer than delta; ``tight[c]`` marks a cell whose points are pairwise
    closer than delta.
    """

    def __init__(self, pts: np.ndarray, delta: float, reach: int, groups=None):
        n = pts.shape[0]
        # A larger side only costs speed; it keeps the quotients in range.
        side = max(_MARGIN * delta / reach, float(np.abs(pts).max()) / _INDEX_LIMIT,
                   2.0**-1000)
        ij = np.floor(pts / side)
        # Renumber each axis so that gaps wider than the reach shrink to
        # reach + 1: offsets within reach stay exact and keys stay small.
        ij[:, 0] = _renumber(ij[:, 0], reach, groups)
        ij[:, 1] = _renumber(ij[:, 1], reach)
        ij = ij.astype(np.int64)
        width = int(ij[:, 1].max()) + 2 * reach + 1
        key = ij[:, 0] * width + ij[:, 1]

        # No result depends on the order of the points within a cell.
        self.order = np.argsort(key)
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


def _renumber(x, reach, groups=None):
    """Ranks of the cell indices x that keep gaps of up to reach and shrink
    wider ones to reach + 1. With a group id per index, the groups are laid
    out one after another, each reach + 1 past the last."""
    perm = np.argsort(x)
    if groups is not None:
        perm = perm[np.argsort(groups[perm], kind="stable")]
    step = np.minimum(np.diff(x[perm]), reach + 1)
    if groups is not None:
        step[np.diff(groups[perm]) != 0] = reach + 1
    out = np.empty_like(x)
    out[perm] = np.concatenate(([0.0], np.cumsum(step)))
    return out


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


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before.
    numpy's `unique` hashes, which is slower than this on sorted ids."""
    starts = np.empty(values.size, dtype=bool)
    starts[:1] = True
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


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


def neighbor_components(points: np.ndarray, delta: float, groups=None) -> np.ndarray:
    """Connected-component labels of the strict-<delta neighborhood graph.

    With ``groups``, an integer id per point, only points of one group are
    neighbors, so one call labels the components of every group's graph.
    Labels are canonical: component ids are assigned in order of each
    component's first point index, so the encoding does not depend on how
    the components were found.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    g = _Grid(pts, delta, _COMPONENTS_REACH, groups)
    a, b, cell = g.a, g.b, g.cell
    # A tight cell is one clique: its points start at its head.
    root = np.where(g.tight[cell], g.head[cell], np.arange(n))
    # Probe each pair through the points nearest its boxes' centres; that
    # joins most neighboring cells of a dense cloud at once, and every fully
    # near pair of tight cells.
    # The sorted positions are grouped by cell, so a segment minimum finds
    # each cell's probe, the first position on a tie.
    d = _sq(g.xy - ((g.lo + g.hi) / 2)[cell])
    hit = np.flatnonzero(d == np.minimum.reduceat(d, g.head)[cell])
    probe = hit[run_starts(cell[hit])]
    i, j = probe[a], probe[b]
    near = g.near(i, j)
    root = _join(root, i[near], j[near])

    def unjoined(k):
        # Two tight cells with one root need no point test.
        return k[~(g.tight[a[k]] & g.tight[b[k]]) | (root[g.head[a[k]]] != root[g.head[b[k]]])]

    # Test the pairs closest first, skipping cells that are already joined.
    rest = unjoined(np.arange(a.size))
    rest = rest[np.argsort(g.lower[rest])]
    for s in _slices(g.count[a[rest]] * g.count[b[rest]]):
        k = unjoined(rest[s])
        for i, j in g.point_pairs(a[k], b[k]):
            near = g.near(i, j)
            root = _join(root, i[near], j[near])
    labels = np.empty(n, dtype=np.int64)
    labels[g.order] = root
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inverse]


def _stable_order(key):
    """``np.argsort(key, kind="stable")`` for a key without NaN, from the
    default sort: only the runs of equal keys are put back in index order."""
    order = np.argsort(key)
    sorted_key = key[order]
    if (sorted_key[1:] == sorted_key[:-1]).any():
        # Each position's run is named by the run's first position; sorting
        # the (run, index) pairs as one integer puts each run in index order.
        run = np.searchsorted(sorted_key, sorted_key) * key.size
        order = np.sort(run + order) - run
    return order


def _witness(pts, vals, delta, key) -> float:
    """Max |vals[i]-vals[j]| over the pairs closer than delta among each
    point and its next _WITNESS_REACH points in ``key`` order; 0.0 if none."""
    order = _stable_order(key)
    xy, v = pts[order], vals[order]
    d2 = delta * delta
    best = 0.0
    for k in range(1, _WITNESS_REACH + 1):
        near = _sq(xy[k:] - xy[:-k]) < d2
        if near.any():
            best = max(best, float(np.abs(v[k:][near] - v[:-k][near]).max()))
    return best


def neighbor_sup_abs_diff(
    points: np.ndarray, values: np.ndarray, delta: float, across=None, settled=None
) -> tuple[float, bool]:
    """Max |values[i]-values[j]| over point pairs at distance < delta.

    Returns ``(0.0, False)`` when no pair qualifies.

    With ``across``, a sort key per point, and ``settled``, a predicate, the
    result may be a lower bound instead: each point is first tested against
    its next few points in ``across`` order, and if the best of those pairs,
    lo, is positive and ``settled(lo)`` holds, ``(lo, True)`` is returned
    without building a grid. lo is a close pair's difference computed as the
    grid path computes it, so it never exceeds the exact result.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if pts.shape[0] < 2:
        return 0.0, False
    if settled is not None:
        lo = _witness(pts, vals, delta, across)
        if lo > 0.0 and settled(lo):
            return lo, True
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
    rest = rest[np.argsort(-bound[rest])]
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
