"""Property tests of the array-based node-set operations against frozenset
references written here: edges and their shared counts, the dominated-node
collapse, characteristic classification and the partition, on random graphs
of nested, equal and singleton node sets; and the one component routine
against a depth-first search on random graphs."""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from sstopo import twostep
from sstopo.mapper import MapperGraph, MapperNode, components, shared_counts
from sstopo.partition import (
    KIND_CLOSED,
    KIND_ISOLATED,
    KIND_OPEN,
    classify_characteristic_nodes,
    partition,
)
from sstopo.twostep import _collapse

from corpus import assert_edge_record, assert_id_array, edge_set, point_set, shared_pairs

PROPERTY = settings(max_examples=80, deadline=None, database=None)


@st.composite
def node_sets(draw):
    """Nonempty point sets over a few points; later sets may be subsets or
    copies of earlier ones, or singletons."""
    n_points = draw(st.integers(1, 24))
    point = st.integers(0, n_points - 1)
    sets = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["fresh", "subset", "copy", "singleton"]))
        if kind == "fresh" or not sets:
            sets.append(draw(st.frozensets(point, min_size=1, max_size=8)))
        elif kind == "subset":
            base = sorted(draw(st.sampled_from(sets)))
            sets.append(frozenset(draw(st.lists(st.sampled_from(base), min_size=1,
                                                unique=True))))
        elif kind == "copy":
            sets.append(draw(st.sampled_from(sets)))
        else:
            sets.append(frozenset([draw(point)]))
    boundary = draw(st.frozensets(point, min_size=1, max_size=n_points))
    return sets, boundary


def _nodes(sets):
    return [MapperNode(sorted(s)) for s in sets]


def _ref_edges(sets):
    return frozenset((i, j) for i in range(len(sets)) for j in range(i + 1, len(sets))
                     if sets[i] & sets[j])


def _ref_kept(sets):
    """The positions of the kept sets, ascending: a set is dropped when an
    adjacent set holds it strictly, or equals it and has a lower index."""
    edges = _ref_edges(sets)
    adjacent = {(i, j) for i, j in edges} | {(j, i) for i, j in edges}
    return [i for i, s in enumerate(sets)
            if not any((i, j) in adjacent and (s < t or (s == t and j < i))
                       for j, t in enumerate(sets))]


def _ref_collapse(sets):
    """The kept sets in order and their edges."""
    kept = [sets[i] for i in _ref_kept(sets)]
    return kept, _ref_edges(kept)


def _ref_components(ids, edges):
    left = set(ids)
    comps = []
    for start in sorted(ids):
        if start not in left:
            continue
        comp, stack = {start}, [start]
        left.discard(start)
        while stack:
            cur = stack.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == cur and y in left:
                        left.discard(y)
                        comp.add(y)
                        stack.append(y)
        comps.append(sorted(comp))
    return comps


def _ref_kind(comp, edges, all_edges, band):
    """Kind of a surviving component from its surviving `edges`, which must
    make it a path, a cycle or a single node: a cycle is closed, a single
    node is isolated when no edge of the whole graph, `all_edges`, meets it
    and it is not in the band nodes `band`, and anything else is open."""
    inside = [(a, b) for a, b in edges if a in comp and b in comp]
    degrees = [sum(n in e for e in inside) for n in comp]
    cycle = len(comp) >= 3 and len(inside) == len(comp) and set(degrees) == {2}
    path = len(inside) == len(comp) - 1 and max(degrees) <= 2
    assert cycle or path
    if cycle:
        return KIND_CLOSED
    if len(comp) == 1 and comp[0] not in band and not any(comp[0] in e for e in all_edges):
        return KIND_ISOLATED
    return KIND_OPEN


def _ref_partition(sets, edges, boundary):
    degree = [sum(i in e for e in edges) for i in range(len(sets))]
    boundary_nodes = {i for i, s in enumerate(sets) if s & boundary}
    singular_nodes = {i for i, d in enumerate(degree) if d > 2}
    # A component of the graph without its singular nodes that lies wholly in
    # the band is kept whole.
    regular = [i for i in range(len(sets)) if i not in singular_nodes]
    regular_edges = {(a, b) for a, b in edges if a in regular and b in regular}
    band_only = {i for comp in _ref_components(regular, regular_edges)
                 if set(comp) <= boundary_nodes for i in comp}
    removed = (boundary_nodes - band_only) | singular_nodes
    survivors = [i for i in range(len(sets)) if i not in removed]
    kept_edges = {(a, b) for a, b in edges if a not in removed and b not in removed}
    segments = []
    for comp in _ref_components(survivors, kept_edges):
        points = frozenset().union(*(sets[i] for i in comp))
        segments.append((tuple(sorted(points)),
                         _ref_kind(comp, kept_edges, edges, boundary_nodes), tuple(comp)))
    segments.sort(key=lambda s: (s[0][0], s[2]))
    surviving = frozenset().union(*(sets[i] for i in survivors))

    def removed_points(ids):
        return frozenset().union(*(sets[i] for i in ids)) - surviving

    return (boundary_nodes, singular_nodes, segments,
            removed_points(boundary_nodes), removed_points(singular_nodes))


@seed(7071)
@PROPERTY
@given(node_sets())
def test_edges_match_set_reference(case):
    sets, _ = case
    nodes = _nodes(sets)
    assert edge_set(shared_pairs(nodes)) == _ref_edges(sets)
    assert edge_set(shared_pairs(nodes[::-1])) == _ref_edges(sets[::-1])
    for ordered, ordered_sets in ((nodes, sets), (nodes[::-1], sets[::-1])):
        graph = MapperGraph(tuple(ordered))
        assert edge_set(graph.edges) == _ref_edges(ordered_sets)
        assert_edge_record(graph.edges)


@seed(7072)
@PROPERTY
@given(node_sets())
def test_collapse_matches_set_reference(case):
    sets, _ = case
    kept, edges = _ref_collapse(sets)
    got = _collapse(_nodes(sets))
    assert [n.points.tolist() for n in got.nodes] == [sorted(s) for s in kept]
    assert edge_set(got.edges) == edges
    assert_edge_record(got.edges)


@seed(7074)
@PROPERTY
@given(node_sets())
def test_collapse_keeps_the_input_node_objects(case):
    sets, _ = case
    nodes = _nodes(sets)
    kept = _ref_kept(sets)
    got = _collapse(nodes)
    assert len(got.nodes) == len(kept)
    assert all(g is nodes[i] for g, i in zip(got.nodes, kept))


def _ref_shared(sets):
    """(a, b, shared) rows of every pair a < b of sets that meet, by (a, b)."""
    return [(i, j, len(sets[i] & sets[j])) for i in range(len(sets))
            for j in range(i + 1, len(sets)) if sets[i] & sets[j]]


def _shared_rows(nodes):
    a, b, shared = shared_counts(nodes)
    for column in (a, b, shared):
        assert column.dtype == np.int64
    return list(zip(a.tolist(), b.tolist(), shared.tolist()))


@seed(7075)
@PROPERTY
@given(node_sets())
def test_shared_counts_match_set_reference(case):
    sets, _ = case
    assert _shared_rows(_nodes(sets)) == _ref_shared(sets)
    graph = MapperGraph(tuple(_nodes(sets)))
    assert list(zip(*graph.edges.T.tolist(), graph.shared.tolist())) == _ref_shared(sets)


@pytest.mark.parametrize("sets", [
    # Points in one node only, and points in two, three and four nodes.
    [{0, 1, 5}, {1, 2, 5, 9}, {2, 3, 5}, {5, 7}, {8}],
    # Every point in every node.
    [{3, 4}, {3, 4}, {3, 4}],
    # One node; and nodes that share nothing.
    [{0, 2, 4}],
    [{0}, {1, 2}, {3, 4, 5}],
    # A node with no points, which no pair can hold.
    [set(), {1, 2}, {2}],
    # Negative ids, and ids spread far wider than the memberships.
    [{-7, -2, 4}, {-7, 4}, {-2}],
    [{0, 2**40}, {2**40, 2**41}, {-2**62, 2**41, 2**62}, {-2**62, 2**62}],
])
def test_shared_counts_on_hand_built_sets(sets):
    sets = [frozenset(s) for s in sets]
    assert _shared_rows(_nodes(sets)) == _ref_shared(sets)


def _counting_graphs(monkeypatch):
    """The graphs `_collapse` builds while the test runs."""
    built = []

    def graph(nodes):
        built.append(MapperGraph(nodes))
        return built[-1]

    monkeypatch.setattr(twostep, "MapperGraph", graph)
    return built


def test_collapse_returns_the_graph_it_built_when_nothing_is_dominated(monkeypatch):
    built = _counting_graphs(monkeypatch)
    nodes = _nodes([{0, 1}, {1, 2}, {2, 3}, {5}])
    got = _collapse(nodes)
    assert len(built) == 1 and got is built[0]
    assert list(got.nodes) == nodes


def test_collapse_builds_the_graph_of_the_kept_nodes(monkeypatch):
    built = _counting_graphs(monkeypatch)
    nodes = _nodes([{0, 1}, {1, 2, 3}, {2}, {3, 4}])
    got = _collapse(nodes)
    want = MapperGraph((nodes[0], nodes[1], nodes[3]))
    assert len(built) == 2 and got is built[1]
    assert all(g is w for g, w in zip(got.nodes, want.nodes, strict=True))
    assert np.array_equal(got.edges, want.edges)
    assert np.array_equal(got.shared, want.shared)


@seed(7073)
@PROPERTY
@given(node_sets())
def test_classify_and_partition_match_set_reference(case):
    sets, drawn = case
    edges = _ref_edges(sets)
    graph = MapperGraph(tuple(_nodes(sets)))
    assert edge_set(graph.edges) == edges
    assert frozenset().union(*(point_set(n) for n in graph.nodes)) == frozenset().union(*sets)
    for boundary in (frozenset(), drawn):
        want = _ref_partition(sets, edges, boundary)
        characteristic = classify_characteristic_nodes(
            graph, np.array(sorted(boundary), dtype=np.int64))
        assert set(characteristic.boundary_nodes.tolist()) == want[0]
        assert set(characteristic.singular_nodes.tolist()) == want[1]
        got = partition(graph, characteristic.boundary_nodes)
        assert [(tuple(s.point_indices.tolist()), s.kind, tuple(s.node_ids.tolist()))
                for s in got.segments] == want[2]
        assert set(got.removed_boundary_points.tolist()) == want[3]
        assert set(got.removed_singular_points.tolist()) == want[4]
        for ids in (characteristic.boundary_nodes, characteristic.singular_nodes,
                    got.removed_boundary_points, got.removed_singular_points,
                    *(s.point_indices for s in got.segments),
                    *(s.node_ids for s in got.segments)):
            assert_id_array(ids)


@seed(7076)
@PROPERTY
@given(node_sets())
def test_segments_disjoint_ordered_and_apart_from_removed_points(case):
    sets, drawn = case
    graph = MapperGraph(tuple(_nodes(sets)))
    got = partition(graph, classify_characteristic_nodes(
        graph, np.array(sorted(drawn), dtype=np.int64)).boundary_nodes)
    removed = set(got.removed_boundary_points.tolist()) | set(got.removed_singular_points.tolist())
    seen = set()
    firsts = []
    for seg in got.segments:
        points = seg.point_indices.tolist()
        assert not set(points) & seen
        assert not set(points) & removed
        seen |= set(points)
        firsts.append(points[0])
    assert firsts == sorted(firsts)


@st.composite
def graphs(draw):
    """A node count, edges as unordered distinct pairs in any order, and a
    keep mask."""
    n = draw(st.integers(0, 12))
    edges = []
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        edges = draw(st.lists(pairs, max_size=2 * n, unique_by=frozenset))
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, edges, keep


@seed(7075)
@PROPERTY
@given(graphs())
@example((0, [], []))
@example((4, [], [True] * 4))
@example((4, [(0, 3), (1, 2)], [False] * 4))
@example((5, [(4, 0), (2, 1)], [True, True, True, False, True]))
def test_components_match_depth_first_reference(case):
    n, edges, keep = case
    rows = np.array(edges, dtype=np.int64).reshape(-1, 2)
    got = components(n, rows)
    assert [c.tolist() for c in got] == _ref_components(range(n), edges)
    assert all(c.dtype == np.int64 for c in got)
    mask = np.array(keep, dtype=bool)
    kept = [i for i in range(n) if keep[i]]
    kept_edges = [(a, b) for a, b in edges if keep[a] and keep[b]]
    # Each component ascending, the components in order of their least node.
    assert [c.tolist() for c in components(n, rows, mask)] == _ref_components(kept, kept_edges)
