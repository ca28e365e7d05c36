"""Hot numeric kernels: B-spline knot insertion and the strict-<delta
neighbor queries.

Knot insertion (Boehm 1980) works on whole control rows of a batch of nets
that share one span, which the caller passes: each step blends a run of
adjacent rows with slices of the rows and knots. The same kernel splits
patches, restricts surfaces and evaluates them, since inserting a knot to
full multiplicity is de Boor's algorithm.

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
point in one pass that both kernels share: before each block the components
skip cells already joined, and the supremum drops every cell pair whose
bound cannot beat the best value found. Every distance test is
``dx*dx + dy*dy < delta*delta``. IEEE rounding is monotone, so box bounds
computed the same way bound the computed point distances exactly, and both
kernels return bit for bit what a loop over all pairs returns.

The grid's sorts and the witness's use numpy's default sort, which need
not keep ties in input order: no result depends on the order of the points
within a cell or of cell pairs with equal bounds, since the component labels
are renumbered by first input index and the supremum is a maximum. The
witness order below is the one sort whose ties can move what is returned:
they decide which pairs are tested, so the lower bound may differ. But the
caller's predicate accepts a bound only where the monotone function the
caller keeps, such as the Mapper's interval count, takes the value it takes
at the upper cap and so at the exact supremum. A tie can decide whether a
grid is built, never that function's value.

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
# B-spline knot insertion
# ---------------------------------------------------------------------------


def insert_knot(knots, ctrl, degree, t, k, times):
    # Boehm insertion of t[g], `times` times, along axis 1 of G nets at once:
    # knots (G, L), ctrl (G, n, w), every row in span k. A row's span is the
    # last index with knots[g, k] <= t[g], clamped to the top control row so
    # inserting at the valid end of an unclamped vector stays in bounds; the
    # caller groups rows by it. t's multiplicity in each row must be at most
    # degree - times, so that no blend divides by a zero-length knot span.
    # Each step blends rows k-degree+1..k with the row before, alpha = (t -
    # knots[i]) / (knots[i+degree] - knots[i]) for row i, moves every row
    # above them up by one and puts t after knot k, which makes k + 1 the
    # next step's span. The blend is `(1.0 - alpha)*ctrl[i-1] +
    # alpha*ctrl[i]`, as in de Boor's recursion, so inserting t to full
    # multiplicity makes de Boor's point at t a control row.
    tc = t[:, None]
    lo = k - degree + 1
    for _ in range(times):
        left = knots[:, lo : k + 1]
        alpha = ((tc - left) / (knots[:, k + 1 : k + degree + 1] - left))[:, :, None]
        blended = (1.0 - alpha) * ctrl[:, lo - 1 : k] + alpha * ctrl[:, lo : k + 1]
        ctrl = np.concatenate([ctrl[:, :lo], blended, ctrl[:, k:]], axis=1)
        knots = np.concatenate([knots[:, : k + 1], tc, knots[:, k + 1 :]], axis=1)
        lo, k = lo + 1, k + 1
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
        self.a, self.b, self.full = a[keep], b[keep], full[keep]

    def near_pairs(self, pairs, live):
        """Yield the close point pairs ``(i, j)``, as sorted positions, of
        the candidate pairs ``pairs``, about _BLOCK point pairs at a time.
        Just before each block, ``live(k)`` keeps the pairs ``k`` that can
        still change the caller's answer as it stands after the blocks before."""
        a, b, head, count = self.a, self.b, self.head, self.count
        for s in _slices(count[a[pairs]] * count[b[pairs]]):
            k = live(pairs[s])
            # Each point of cell a[k] heads a row of the points of cell b[k].
            r, rows = _ranges(head[a[k]], count[a[k]])
            start, size = head[b[k]][r], count[b[k]][r]
            for t in _slices(size):
                q, j = _ranges(start[t], size[t])
                i = rows[t][q]
                near = self.near(i, j)
                yield i[near], j[near]

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


def freeze(record, dtype, *names, shape=None) -> None:
    """Hold each named field of a frozen record as a read-only copy of
    `dtype`, reshaped to `shape` where one is given, so that a later write
    to the caller's array does not reach the record."""
    for name in names:
        value = getattr(record, name)
        if shape is not None:
            value = np.reshape(value, shape)
        value = np.array(value, dtype=dtype)
        value.flags.writeable = False
        object.__setattr__(record, name, value)


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

    for i, j in g.near_pairs(unjoined(np.arange(a.size)), unjoined):
        root = _join(root, i, j)
    labels = np.empty(n, dtype=np.int64)
    labels[g.order] = root
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))
    return rank[inverse]


def _witness(pts, vals, delta, key) -> float:
    """Max |vals[i]-vals[j]| over the pairs closer than delta among each
    point and its next _WITNESS_REACH points in ``key`` order; 0.0 if none."""
    order = np.argsort(key)
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
    # Test the rest by decreasing bound while a bound can beat the best.
    rest = np.flatnonzero(~g.full & (bound > best))
    rest = rest[np.argsort(-bound[rest])]
    for i, j in g.near_pairs(rest, lambda k: k[bound[k] > best]):
        if i.size:
            found = True
            best = max(best, np.abs(v[i] - v[j]).max())
    if not found:
        return 0.0, False
    return float(best), True
