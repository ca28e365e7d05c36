"""The analytic families: the plane z = c against the paraboloid and the
saddle, over a fixed grid of heights and tolerances.

Both patches are graphs over the unit square, x = u and y = v, and the
plane's parameters are (x, y) too, so both domains hold the same curve:
- paraboloid z = (u - 1/2)^2 + (v - 1/2)^2: the circle of radius sqrt(c)
  about the square's centre. For c < 1/4 it lies inside the square, one
  closed loop. For 1/4 < c < 1/2 the radius lies between the half side and
  the half diagonal, so four corner arcs remain, each open from one side to
  the next;
- saddle z = (u - 1/2)(v - 1/2): the hyperbola x y = c in centred
  coordinates. For 0 < |c| < 1/4 each of its two branches crosses the
  square from x = 2|c| to x = 1/2, one open arc each.

Every point runs at theta_ov = 0.2 and is checked with the known-defect
register's `assert_analytic`. A point that is wrong today is a strict xfail
naming its class, so a fix turns it into an XPASS that fails the suite until
the marker goes. The grid is fixed in advance, not chosen by what passes.
"""

import pytest

from sstopo import PipelineConfig, run_pipeline
from sstopo.partition import KIND_CLOSED, KIND_OPEN

from corpus import assert_analytic, paraboloid_patch, plane_patch, saddle_patch

EPSILONS = (0.02, 0.01, 0.005)
# Heights in steps of 1/40: the paraboloid below 1/2 without the tangency at
# 1/4 to the corners, the saddle on both sides of its crossing at 0.
PARABOLOID_HEIGHTS = [k / 40 for k in range(1, 20) if k != 10]
SADDLE_HEIGHTS = [s * k / 40 for k in range(1, 10) for s in (1, -1)]

# (family, height, epsilon): what reads wrong today, and why.
WRONG_TODAY = {
    ("paraboloid", 0.025, 0.02): "a circle of radius 0.158 under a cover too coarse "
                                 "to see its cycle: one open segment per domain",
    ("paraboloid", 0.225, 0.02): "the circle passes within delta of every side: "
                                 "4 open segments per domain",
}


def grid():
    for family, heights in (("paraboloid", PARABOLOID_HEIGHTS), ("saddle", SADDLE_HEIGHTS)):
        for c in heights:
            for epsilon in EPSILONS:
                key = (family, c, epsilon)
                marks = ()
                if key in WRONG_TODAY:
                    marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                              reason=WRONG_TODAY[key])
                yield pytest.param(*key, marks=marks, id=f"{family}-z{c:g}-eps{epsilon:g}")


def analytic_kinds(family, c):
    if family == "saddle":
        return [KIND_OPEN] * 2
    return [KIND_CLOSED] if c < 0.25 else [KIND_OPEN] * 4


@pytest.mark.parametrize("family, c, epsilon", grid())
def test_family_reads_the_analytic_answer(family, c, epsilon):
    other = paraboloid_patch() if family == "paraboloid" else saddle_patch()
    doc = run_pipeline(PipelineConfig(epsilon=epsilon, theta_ov=0.2), plane_patch(c), other)
    assert_analytic(doc, analytic_kinds(family, c))
