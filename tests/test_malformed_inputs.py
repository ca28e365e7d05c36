"""Malformed input fails fast with a `SstopoError` subclass at every entry
point: settings, clouds, domain boxes, covers, synthetic specs and loaded
result documents.

Each property draws a malformed value (None, a string, NaN, an infinity,
zero or a negative number, a ragged list, a record with a key removed) and
asserts that the call raises, and raises nothing but a `SstopoError`: no
`TypeError` from a comparison, no numpy `ValueError` from a conversion, no
`KeyError` from a record.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from corpus import plane_patch, plus_cloud
from sstopo import (Circle, MapperParams, PipelineConfig, ResultDocument, SstopoError,
                    SyntheticSpec, approximate_boundary_set, build_cover, default_delta,
                    generate_synthetic, intersect_surfaces, run_mapper_only, sweep_theta)

MALFORMED = settings(max_examples=60, deadline=None, database=None)

# Values that are not real numbers at all.
NOT_NUMBERS = [None, "x", "", "0.1", True, False, [0.1], {}, b"1"]
NAN_INF = [float("nan"), float("inf"), -float("inf")]
NON_POSITIVE = st.one_of(st.sampled_from([0, 0.0, -0.0, -1, -1e-300, -1e300]),
                         st.floats(max_value=0.0, allow_nan=False))
# Not a positive, finite real number.
NOT_POSITIVE_FINITE = st.one_of(st.sampled_from(NOT_NUMBERS + NAN_INF), NON_POSITIVE)
NOT_OVERLAP = st.one_of(st.sampled_from(NOT_NUMBERS + NAN_INF + [0.5, 1.0, 2]), NON_POSITIVE,
                        st.floats(min_value=0.5, allow_nan=False))

CLOUD, _ = plus_cloud()
CONFIG = PipelineConfig(delta_override=0.1)
BOX = (-0.5, 1.5, -0.5, 1.5)


def refused(call, *args, **kwargs):
    with pytest.raises(SstopoError):
        call(*args, **kwargs)


@seed(3601)
@MALFORMED
@given(st.sampled_from(["epsilon", "alpha", "delta_override"]), NOT_POSITIVE_FINITE)
def test_config_refuses_a_setting_that_is_not_positive_and_finite(name, value):
    if name == "delta_override" and value is None:
        value = "none"  # None means "derive delta"
    refused(PipelineConfig, **{name: value})


@seed(3602)
@MALFORMED
@given(NOT_OVERLAP)
def test_config_and_sweep_refuse_an_overlap_outside_the_range(value):
    refused(PipelineConfig, theta_ov=value)
    refused(MapperParams, 0.1, theta_ov=value)
    refused(sweep_theta, CONFIG, [0.2, value], cloud=CLOUD)


@seed(3603)
@MALFORMED
@given(st.sampled_from(["delta", "alpha"]), NOT_POSITIVE_FINITE)
def test_params_refuse_a_setting_that_is_not_positive_and_finite(name, value):
    refused(MapperParams, **{"delta": 0.1, name: value})


@seed(3604)
@MALFORMED
@given(NOT_POSITIVE_FINITE)
def test_radius_and_subdivision_refuse_a_size_that_is_not_positive_and_finite(value):
    refused(default_delta, value)
    refused(intersect_surfaces, plane_patch(), plane_patch(z=0.5), value)


@pytest.mark.parametrize("cell_diag", [2.0**1023, 1e308])
def test_radius_refuses_a_cell_whose_double_overflows(cell_diag):
    refused(default_delta, cell_diag)


def malformed_clouds():
    """A cloud as a whole that is no array of numbers, or a valid cloud with
    one row made ragged or one coordinate replaced by a malformed value."""
    whole = st.sampled_from([None, "abc", 5.0, [], [1.0, 2.0], [[1.0, 2.0, 3.0]],
                             [[True, False]], [[1 + 2j, 0.0]], {}])
    bad_entry = st.sampled_from([None, "a", [1.0], float("nan"), float("inf"), -float("inf")])

    @st.composite
    def corrupted(draw):
        rows = CLOUD[:10].tolist()
        k = draw(st.integers(0, len(rows) - 1))
        how = draw(st.sampled_from(["short", "long", "entry"]))
        if how == "short":
            rows[k] = rows[k][:1]
        elif how == "long":
            rows[k] = rows[k] + [0.0]
        else:
            rows[k][draw(st.integers(0, 1))] = draw(bad_entry)
        return rows

    return st.one_of(whole, corrupted())


def malformed_boxes():
    """A domain box that is not four finite reals with u_min < u_max and
    v_min < v_max."""
    bad_entry = st.sampled_from(NOT_NUMBERS + NAN_INF)

    @st.composite
    def corrupted(draw):
        box = list(BOX)
        how = draw(st.sampled_from(["entry", "short", "long", "empty"]))
        if how == "entry":
            box[draw(st.integers(0, 3))] = draw(bad_entry)
        elif how == "short":
            box = box[:draw(st.integers(0, 3))]
        elif how == "long":
            box = box + [1.0]
        else:
            axis = 2 * draw(st.integers(0, 1))
            box[axis + 1] = box[axis] - draw(st.sampled_from([0.0, 1.0]))
        return tuple(box)

    # None is no box: a mapper run without a boundary band.
    return st.one_of(st.sampled_from(["abcd", 4.0, [], {}]), corrupted())


@seed(3605)
@MALFORMED
@given(malformed_clouds())
def test_mapper_run_and_band_refuse_a_malformed_cloud(points):
    refused(run_mapper_only, CONFIG, points)
    refused(run_mapper_only, CONFIG, points, bounds=BOX)
    refused(approximate_boundary_set, points, BOX, 0.1)


@seed(3606)
@MALFORMED
@given(malformed_boxes())
def test_mapper_run_and_band_refuse_a_malformed_box(box):
    refused(run_mapper_only, CONFIG, CLOUD, bounds=box)
    refused(run_mapper_only, CONFIG, CLOUD[:0], bounds=box)
    refused(approximate_boundary_set, CLOUD, box, 0.1)


@seed(3607)
@MALFORMED
@given(NOT_POSITIVE_FINITE)
def test_band_refuses_a_radius_that_is_not_positive_and_finite(delta):
    refused(approximate_boundary_set, CLOUD, BOX, delta)


@seed(3608)
@MALFORMED
@given(st.data())
def test_cover_refuses_a_malformed_count_range_or_overlap(data):
    args = {"f_min": 0.0, "f_max": 1.0, "count": 3, "theta_ov": 0.2}
    name = data.draw(st.sampled_from(sorted(args)))
    if name == "count":
        value = data.draw(st.one_of(st.sampled_from(NOT_NUMBERS + NAN_INF + [2.5, 3.0]),
                                    st.integers(max_value=0)))
    elif name == "theta_ov":
        value = data.draw(NOT_OVERLAP)
    else:
        value = data.draw(st.sampled_from(NOT_NUMBERS + NAN_INF))
    refused(build_cover, **{**args, name: value})


@seed(3609)
@MALFORMED
@given(st.sampled_from(["step", "noise"]), st.data())
def test_synthetic_refuses_a_malformed_step_or_noise(name, data):
    if name == "step":
        value = data.draw(NOT_POSITIVE_FINITE)
    else:  # a noise bound of zero is allowed
        value = data.draw(st.one_of(st.sampled_from([None, "x", [0.1], True] + NAN_INF),
                                    st.floats(max_value=-1e-300, allow_nan=False)))
    spec = SyntheticSpec(curves=(Circle((0.0, 0.0), 1.0),), **{name: value})
    refused(generate_synthetic, spec)


def test_synthetic_refuses_a_sample_count_that_is_not_finite():
    spec = SyntheticSpec(curves=(Circle((0, 0), 1e300),), step=1e-300)
    refused(generate_synthetic, spec)


def document():
    """A small mapper document with a boundary band, as `to_dict` writes it."""
    return run_mapper_only(CONFIG, CLOUD, bounds=(0.05, 0.95, 0.05, 0.95)).to_dict()


DOCUMENT = document()
# The keys `from_dict` needs, by the path of the record that holds them;
# the others (ids, edges, the singular set, `no_intersection`, `match`,
# `extras`) are derived or optional.
REQUIRED = {
    (): ["kind", "config", "overlap_suspected", "domains", "timings"],
    ("domains", 0): ["name", "points", "delta", "graph", "boundary_nodes", "segments",
                     "removed_boundary_points", "removed_singular_points",
                     "seconds_initial", "seconds_refine"],
    ("domains", 0, "graph"): ["nodes"],
    ("domains", 0, "graph", "nodes", 1): ["points", "intervals", "refined"],
    ("domains", 0, "segments", 0): ["points", "kind", "nodes"],
}


def record_at(data, path):
    for step in path:
        data = data[step]
    return data


@seed(3610)
@MALFORMED
@given(st.sampled_from([(path, key) for path, keys in REQUIRED.items() for key in keys]))
def test_load_refuses_a_record_with_a_key_removed(where):
    path, key = where
    data = copy.deepcopy(DOCUMENT)
    del record_at(data, path)[key]
    with pytest.raises(SstopoError, match=repr(key)):
        ResultDocument.from_dict(data)


@seed(3611)
@MALFORMED
@given(st.sampled_from([(path, key) for path, keys in REQUIRED.items() for key in keys]),
       st.sampled_from([None, "x", float("nan"), float("inf"), -1, 2**70, [1], [[1, 2], [3]],
                        [["a"]], {}, {"nodes": 1}, [[1, 2, None]], [float("nan")]]))
def test_load_raises_nothing_but_a_package_error(where, value):
    # Some values are admissible where no rule constrains them (a name, a
    # kind); the others must raise a package error.
    path, key = where
    data = copy.deepcopy(DOCUMENT)
    record_at(data, path)[key] = value
    try:
        ResultDocument.from_dict(data)
    except SstopoError:
        pass


@pytest.mark.parametrize("data", [[1, 2], None, "x", 5, {"kind": "mapper"},
                                  {**DOCUMENT, "domains": "x"}, {**DOCUMENT, "match": [[1]]},
                                  {**DOCUMENT, "domains": [1]}])
def test_load_refuses_a_document_of_the_wrong_form(data):
    refused(ResultDocument.from_dict, data)


def test_the_unchanged_document_loads():
    assert ResultDocument.from_dict(copy.deepcopy(DOCUMENT)).to_dict() == DOCUMENT
    assert np.asarray(DOCUMENT["domains"][0]["boundary_nodes"]).size
