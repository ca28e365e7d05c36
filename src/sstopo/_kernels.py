"""Hot numeric kernels: B-spline evaluation, knot insertion and the
strict-<delta neighbor queries.

The spline kernels work on whole control rows: de Boor's recursion and
Boehm's knot insertion each blend a run of adjacent rows per step. The
neighbor queries find point pairs by a vectorized brute-force
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
