"""Hot numeric kernels: B-spline evaluation, knot insertion and the
strict-<delta neighbor queries.

The spline kernels are scalar loops: the nets they see during subdivision
are a few rows wide, where numpy's per-call overhead costs more than the
loop. The neighbor queries find point pairs by a vectorized brute-force
distance matrix below ``BRUTE_FORCE_LIMIT`` points and by a cKDTree at or
above it. scipy is imported only on the tree path, so small clouds never
load it.
"""

from __future__ import annotations

import numpy as np

# Below this cloud size the neighbor searches use a shared vectorized
# brute-force path instead of a tree.
BRUTE_FORCE_LIMIT = 256


def backend() -> str:
    """Name of the kernel implementation; there is one, on numpy and scipy."""
    return "numpy"


# ---------------------------------------------------------------------------
# B-spline span search / de Boor / knot insertion
# ---------------------------------------------------------------------------


def _find_span(knots, degree, t):
    # Largest k in [degree, len(knots)-degree-2] with knots[k] <= t.
    lo = degree
    hi = knots.shape[0] - degree - 2
    if t >= knots[hi]:
        return hi
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if knots[mid] <= t:
            lo = mid
        else:
            hi = mid - 1
    return lo


def deboor_point(knots_u, degree_u, knots_v, degree_v, ctrl, u, v):
    su = _find_span(knots_u, degree_u, u)
    sv = _find_span(knots_v, degree_v, v)
    d = ctrl[su - degree_u : su + 1, sv - degree_v : sv + 1, :].copy()
    for r in range(1, degree_u + 1):
        for j in range(degree_u, r - 1, -1):
            i = j + su - degree_u
            denom = knots_u[j + 1 + su - r] - knots_u[i]
            alpha = (u - knots_u[i]) / denom
            for q in range(degree_v + 1):
                for c in range(3):
                    d[j, q, c] = (1.0 - alpha) * d[j - 1, q, c] + alpha * d[j, q, c]
    row = d[degree_u]
    for r in range(1, degree_v + 1):
        for j in range(degree_v, r - 1, -1):
            i = j + sv - degree_v
            denom = knots_v[j + 1 + sv - r] - knots_v[i]
            alpha = (v - knots_v[i]) / denom
            for c in range(3):
                row[j, c] = (1.0 - alpha) * row[j - 1, c] + alpha * row[j, c]
    return row[degree_v].copy()


def insert_knot(knots, ctrl, degree, t, times):
    # Boehm insertion of t, `times` times, along axis 0 of a (n, w) net.
    # Span: last index with knots[k] <= t, clamped to the top control row so
    # inserting at the valid end of an unclamped vector stays in bounds.
    cur_knots = knots
    cur = ctrl
    for _ in range(times):
        k = np.searchsorted(cur_knots, t, side="right") - 1
        if k > cur.shape[0] - 1:
            k = cur.shape[0] - 1
        n = cur.shape[0]
        w = cur.shape[1]
        out = np.empty((n + 1, w), dtype=np.float64)
        for i in range(k - degree + 1):
            for c in range(w):
                out[i, c] = cur[i, c]
        for i in range(k - degree + 1, k + 1):
            denom = cur_knots[i + degree] - cur_knots[i]
            alpha = (t - cur_knots[i]) / denom
            for c in range(w):
                out[i, c] = (1.0 - alpha) * cur[i - 1, c] + alpha * cur[i, c]
        for i in range(k + 1, n + 1):
            for c in range(w):
                out[i, c] = cur[i - 1, c]
        new_knots = np.empty(cur_knots.shape[0] + 1, dtype=np.float64)
        for i in range(k + 1):
            new_knots[i] = cur_knots[i]
        new_knots[k + 1] = t
        for i in range(k + 1, cur_knots.shape[0]):
            new_knots[i + 1] = cur_knots[i]
        cur_knots = new_knots
        cur = out
    return cur_knots, cur


# ---------------------------------------------------------------------------
# Fixed-radius neighbor kernels (strict < delta)
# ---------------------------------------------------------------------------


def _strict_pairs(pts, delta):
    """(m, 2) index pairs i < j of points at distance strictly below delta."""
    if pts.shape[0] < BRUTE_FORCE_LIMIT:
        diff = pts[:, None, :] - pts[None, :, :]
        d2 = (diff * diff).sum(axis=2)
        ii, jj = np.nonzero(np.triu(d2 < delta * delta, k=1))
        return np.column_stack([ii, jj])
    from scipy.spatial import cKDTree

    # query_pairs keeps distance <= delta; drop the pairs at exactly delta.
    pairs = cKDTree(pts).query_pairs(delta, output_type="ndarray")
    if pairs.shape[0]:
        diff = pts[pairs[:, 0]] - pts[pairs[:, 1]]
        pairs = pairs[(diff * diff).sum(axis=1) < delta * delta]
    return pairs


def _union_find_labels(n, pairs):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    return np.fromiter((find(i) for i in range(n)), dtype=np.int64, count=n)


def _graph_labels(n, pairs):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    data = np.ones(pairs.shape[0], dtype=np.int8)
    graph = coo_matrix((data, (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return connected_components(graph, directed=False)[1]


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
    pairs = _strict_pairs(pts, delta)
    if n < BRUTE_FORCE_LIMIT:
        labels = _union_find_labels(n, pairs)
    else:
        labels = _graph_labels(n, pairs)
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
    pairs = _strict_pairs(pts, delta)
    if pairs.shape[0] == 0:
        return 0.0, False
    return float(np.abs(vals[pairs[:, 0]] - vals[pairs[:, 1]]).max()), True


def warm_up() -> None:
    """Run both neighbor kernels once on the tree path, so that the lazy
    scipy imports happen here rather than inside timed code."""
    pts = np.random.default_rng(0).random((BRUTE_FORCE_LIMIT + 8, 2))
    neighbor_components(pts, 0.1)
    neighbor_sup_abs_diff(pts, pts[:, 0], 0.1)
