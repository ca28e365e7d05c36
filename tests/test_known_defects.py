"""Known-defect register, analytic half.

Each case below is an input on which the program returns a wrong topology
today. Its test asserts the analytic answer: the segment kinds the true
intersection curve has in each parameter domain, and a match that pairs the
two domains' segments one to one with equal kinds. The tests are marked
strict xfail, so a change that fixes a case turns it into an XPASS, which
fails the suite until that change removes the marker, and the case joins
the plain tests. The controls are nearby inputs that the program gets right
today, held by plain tests beside the fixed cases.
"""

import numpy as np
import pytest

from sstopo import BSplineSurface, PipelineConfig, run_pipeline, uniform_clamped_knots
from sstopo.partition import KIND_CLOSED, KIND_OPEN

from corpus import assert_analytic, cylinder_patch, paraboloid_patch, plane_patch, saddle_patch


def plane_y0() -> BSplineSurface:
    """The plane y = 0 over x, z in [-2, 2]: it cuts the y-axis cylinder in
    one circle, across the cylinder's angular seam."""
    kv = uniform_clamped_knots(1, 2)
    ctrl = np.array([[[-2, 0, -2], [-2, 0, 2]], [[2, 0, -2], [2, 0, 2]]], dtype=float)
    return BSplineSurface(kv, kv, ctrl)


def crossed_cylinders():
    return cylinder_patch(axis="y"), cylinder_patch(axis="x")


def paraboloid_at(z):
    # z = (u - 1/2)^2 + (v - 1/2)^2 = c is a circle of radius sqrt(c): whole
    # inside the unit square for c < 1/4, four corner arcs for 1/4 < c < 1/2.
    return lambda: (plane_patch(z), paraboloid_patch())


def saddle_at(z):
    # (u - 1/2)(v - 1/2) = c != 0 is a hyperbola, two open arcs in the square.
    return lambda: (plane_patch(z), saddle_patch())


def defect(case_id, today):
    return pytest.param(case_id, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                          reason=today), id=case_id)


# case id: (surfaces, epsilon, theta_ov, analytic kinds per domain)
CASES = {
    "seam": (lambda: (cylinder_patch(axis="y"), plane_y0()), 0.02, 0.2, [KIND_CLOSED]),
    "paraboloid-z0.01-eps0.01": (paraboloid_at(0.01), 0.01, 0.2, [KIND_CLOSED]),
    "paraboloid-z0.01-eps0.02": (paraboloid_at(0.01), 0.02, 0.2, [KIND_CLOSED]),
    "paraboloid-z0.3-eps0.02": (paraboloid_at(0.3), 0.02, 0.2, [KIND_OPEN] * 4),
    "paraboloid-z0.35-eps0.01": (paraboloid_at(0.35), 0.01, 0.2, [KIND_OPEN] * 4),
    "paraboloid-z0.45-eps0.005": (paraboloid_at(0.45), 0.005, 0.2, [KIND_OPEN] * 4),
    "saddle-z0.1-eps0.02": (saddle_at(0.1), 0.02, 0.2, [KIND_OPEN] * 2),
    "saddle-z-0.1-eps0.02": (saddle_at(-0.1), 0.02, 0.2, [KIND_OPEN] * 2),
    "cylinders-theta0.1-eps0.02": (crossed_cylinders, 0.02, 0.1, [KIND_OPEN] * 4),
    "cylinders-theta0.4-eps0.01": (crossed_cylinders, 0.01, 0.4, [KIND_OPEN] * 4),
    "cylinders-theta0.3-eps0.005": (crossed_cylinders, 0.005, 0.3, [KIND_OPEN] * 4),
    "cylinders-theta0.45-eps0.01": (crossed_cylinders, 0.01, 0.45, [KIND_OPEN] * 4),
    # Controls, right today.
    "paraboloid-z0.01-eps0.005": (paraboloid_at(0.01), 0.005, 0.2, [KIND_CLOSED]),
    "paraboloid-z0.1-eps0.02": (paraboloid_at(0.1), 0.02, 0.2, [KIND_CLOSED]),
    "paraboloid-z0.3-eps0.01": (paraboloid_at(0.3), 0.01, 0.2, [KIND_OPEN] * 4),
    "paraboloid-z0.35-eps0.005": (paraboloid_at(0.35), 0.005, 0.2, [KIND_OPEN] * 4),
    "saddle-z0.1-eps0.01": (saddle_at(0.1), 0.01, 0.2, [KIND_OPEN] * 2),
    "saddle-z-0.1-eps0.01": (saddle_at(-0.1), 0.01, 0.2, [KIND_OPEN] * 2),
    "cylinders-theta0.35-eps0.01": (crossed_cylinders, 0.01, 0.35, [KIND_OPEN] * 4),
    "cylinders-theta0.2-eps0.005": (crossed_cylinders, 0.005, 0.2, [KIND_OPEN] * 4),
}


def run_case(case_id):
    make, epsilon, theta_ov, kinds = CASES[case_id]
    doc = run_pipeline(PipelineConfig(epsilon=epsilon, theta_ov=theta_ov), *make())
    assert_analytic(doc, kinds)


@pytest.mark.parametrize("case_id", [
    defect("seam", "the seam reads as a domain boundary: open in uv, closed in st"),
    defect("paraboloid-z0.01-eps0.01", "closed in uv, open in st"),
    defect("paraboloid-z0.01-eps0.02", "one isolated point per domain"),
    defect("cylinders-theta0.1-eps0.02", "a 3-node graph per domain: 1 open segment"),
    defect("cylinders-theta0.4-eps0.01",
           "5 open per domain and 13 match pairs: the crossing resolves as two "
           "degree-3 singular nodes joined by a 2-node, 64-point open segment"),
    defect("cylinders-theta0.3-eps0.005",
           "5 open per domain, matched one to one in 5 pairs: a 1-node, 44-point "
           "open segment joins the crossing's two singular nodes"),
    defect("cylinders-theta0.45-eps0.01",
           "5 open per domain and 13 match pairs: a 1-node, 28-point open segment "
           "joins the crossing's two singular nodes"),
])
def test_known_defect_reads_the_analytic_answer(case_id):
    run_case(case_id)


@pytest.mark.parametrize("case_id", [
    # Arcs whose every node meets the boundary band, read as nothing before
    # band-only components were kept whole.
    "paraboloid-z0.3-eps0.02",
    "paraboloid-z0.35-eps0.01",
    "paraboloid-z0.45-eps0.005",
    "saddle-z0.1-eps0.02",
    "saddle-z-0.1-eps0.02",
    # Controls.
    "paraboloid-z0.01-eps0.005",
    "paraboloid-z0.1-eps0.02",
    "paraboloid-z0.3-eps0.01",
    "paraboloid-z0.35-eps0.005",
    "saddle-z0.1-eps0.01",
    "saddle-z-0.1-eps0.01",
    "cylinders-theta0.35-eps0.01",
    "cylinders-theta0.2-eps0.005",
])
def test_control_reads_the_analytic_answer(case_id):
    run_case(case_id)
