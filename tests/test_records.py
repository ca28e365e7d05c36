"""Every record that holds arrays holds read-only copies of them.

Each case builds one record from writeable arrays of the record's own dtype,
so a record that kept the caller's array (or a view of it) would see the
later writes. After the writes, every array field must still equal what was
passed, be a different array from the caller's, be read-only and have the
stated dtype and shape.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import sstopo
from sstopo import (
    BSplineSurface,
    CharacteristicNodes,
    IntersectionPointSets,
    KnotVector,
    LinearFilter,
    MapperGraph,
    MapperNode,
    PartitionResult,
    Segment,
    uniform_clamped_knots,
)
from sstopo.partition import KIND_OPEN
from sstopo.pipeline import DomainResult
from sstopo.subdivision import _centroids

F8, I8 = np.float64, np.int64


def knot_vector():
    knots = np.array([0.0, 0.0, 0.5, 1.0, 1.0])
    return KnotVector(knots, 1), {"knots": (knots, F8)}


def surface():
    kv = uniform_clamped_knots(1, 2)
    ctrl = np.arange(12, dtype=F8).reshape(2, 2, 3)
    return BSplineSurface(kv, kv, ctrl), {"control_points": (ctrl, F8)}


def linear_filter():
    center = np.array([0.5, -0.5])
    direction = np.array([0.6, 0.8])
    return LinearFilter(center, direction), {"center": (center, F8),
                                             "direction": (direction, F8)}


def mapper_node():
    points = np.array([1, 4, 7], dtype=I8)
    return MapperNode(points, intervals=(0,)), {"points": (points, I8)}


def mapper_graph():
    # No array is passed: a graph derives its edges from its nodes.
    nodes = (MapperNode([0, 1]), MapperNode([1, 2]), MapperNode([2, 3]))
    return MapperGraph(nodes), {}


def characteristic_nodes():
    boundary = np.array([0, 3], dtype=I8)
    singular = np.array([2], dtype=I8)
    return CharacteristicNodes(boundary, singular), {"boundary_nodes": (boundary, I8),
                                                     "singular_nodes": (singular, I8)}


def segment():
    points = np.array([2, 3, 5], dtype=I8)
    node_ids = np.array([1, 4], dtype=I8)
    return Segment(points, KIND_OPEN, node_ids), {"point_indices": (points, I8),
                                                  "node_ids": (node_ids, I8)}


def partition_result():
    removed_boundary = np.array([0, 9], dtype=I8)
    removed_singular = np.array([4], dtype=I8)
    seg = Segment([1, 2], KIND_OPEN, [0])
    return (PartitionResult((seg,), removed_boundary, removed_singular),
            {"removed_boundary_points": (removed_boundary, I8),
             "removed_singular_points": (removed_singular, I8)})


def point_sets():
    cells1 = np.array([[0.0, 0.2, 0.1, 0.3], [0.2, 0.4, 0.3, 0.5]])
    cells2 = np.array([[0.4, 0.6, 0.5, 0.7]])
    corr = np.array([[0, 0], [1, 0]], dtype=I8)
    sets = IntersectionPointSets(cells1, cells2, corr, epsilon=0.3)
    return sets, {"cells1": (cells1, F8), "cells2": (cells2, F8), "correspondences": (corr, I8)}


def domain_result():
    points = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    graph = MapperGraph((MapperNode([0, 1, 2]),))
    seg = Segment([0, 1, 2], KIND_OPEN, [0])
    record = DomainResult("cloud", points, 0.5, graph, CharacteristicNodes([], []),
                          PartitionResult((seg,), [], []), 0.0, 0.0)
    return record, {"points": (points, F8)}


BUILDERS = [knot_vector, surface, linear_filter, mapper_node, mapper_graph,
            characteristic_nodes, segment, partition_result, point_sets, domain_result]


@pytest.mark.parametrize("build", BUILDERS)
def test_record_holds_read_only_copies(build):
    record, fields = build()
    passed = {name: array.copy() for name, (array, _) in fields.items()}
    for array, _ in fields.values():
        assert array.flags.writeable
        array += 1
    for name, (array, dtype) in fields.items():
        held = getattr(record, name)
        assert held.dtype == dtype, name
        assert held.shape == passed[name].shape, name
        assert np.array_equal(held, passed[name]), name
        assert not np.shares_memory(held, array), name
        assert not held.flags.writeable, name
        with pytest.raises(ValueError):
            held[...] = 0


def test_knots_are_held_one_dimensional():
    knots = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert KnotVector(knots, 1).knots.shape == (4,)


def test_point_sets_hold_the_centroids_of_their_cells():
    sets, fields = point_sets()
    (cells1, _), (cells2, _) = fields["cells1"], fields["cells2"]
    expected = _centroids(cells1.copy()), _centroids(cells2.copy())
    cells1 += 1
    cells2 += 1
    for held, want in zip((sets.points1, sets.points2), expected):
        assert held.dtype == F8
        assert held.tobytes() == want.tobytes()
        assert not held.flags.writeable
    assert sets.points1.tolist() == [[0.5 * (0.0 + 0.2), 0.5 * (0.1 + 0.3)],
                                     [0.5 * (0.2 + 0.4), 0.5 * (0.3 + 0.5)]]


def test_graph_derives_read_only_edges():
    graph, _ = mapper_graph()
    assert graph.edges.dtype == I8
    assert graph.edges.shape == (2, 2)
    assert graph.edges.tolist() == [[0, 1], [1, 2]]
    assert not graph.edges.flags.writeable
    with pytest.raises(ValueError):
        graph.edges[...] = 0
    lone = MapperGraph((MapperNode([0]), MapperNode([1])))
    assert lone.edges.dtype == I8 and lone.edges.shape == (0, 2)
    assert not lone.edges.flags.writeable


def test_graph_derives_read_only_shared_counts():
    graph, _ = mapper_graph()
    assert graph.shared.dtype == I8
    assert graph.shared.shape == (2,)
    assert graph.shared.tolist() == [1, 1]
    assert not graph.shared.flags.writeable
    with pytest.raises(ValueError):
        graph.shared[...] = 0
    wide = MapperGraph((MapperNode([0, 1, 2]), MapperNode([1, 2, 3]), MapperNode([5])))
    assert wide.shared.tolist() == [2]
    lone = MapperGraph((MapperNode([0]), MapperNode([1])))
    assert lone.shared.dtype == I8 and lone.shared.shape == (0,)
    assert not lone.shared.flags.writeable


def test_graph_derives_read_only_singular_nodes():
    # A star of three arms around node 0, and a chain 3 - 4 - 5 off arm 3.
    star = MapperGraph((MapperNode([0, 1, 2, 3]), MapperNode([1, 10]), MapperNode([2, 11]),
                        MapperNode([3, 12]), MapperNode([12, 13]), MapperNode([13, 14])))
    assert star.singular_nodes.dtype == I8
    assert star.singular_nodes.tolist() == [0]
    assert not star.singular_nodes.flags.writeable
    with pytest.raises(ValueError):
        star.singular_nodes[...] = 0
    rng = np.random.default_rng(4)
    for _ in range(20):
        graph = MapperGraph(tuple(MapperNode(np.unique(rng.integers(0, 30, 4)))
                                  for _ in range(12)))
        assert np.array_equal(graph.singular_nodes, np.flatnonzero(graph.degrees() > 2))
    lone = MapperGraph((MapperNode([0]),))
    assert lone.singular_nodes.dtype == I8 and lone.singular_nodes.shape == (0,)
    assert not lone.singular_nodes.flags.writeable


def _array_records():
    """Every dataclass in `sstopo` with a field annotated `np.ndarray`."""
    found = set()
    for info in pkgutil.iter_modules(sstopo.__path__):
        module = importlib.import_module(f"sstopo.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                    and any("np.ndarray" in str(f.type) or f.type is np.ndarray
                            for f in dataclasses.fields(cls))):
                found.add(cls)
    return found


def test_every_array_record_has_a_builder():
    built = {type(build()[0]) for build in BUILDERS}
    records = _array_records()
    # The search sees every record that has a case, so it can miss none.
    assert built <= records
    missing = sorted(cls.__qualname__ for cls in records - built)
    assert not missing, f"no read-only copy case for {missing}"
