"""The analytic families: the plane z = c against the paraboloid, the
saddle and the cylinder, over a fixed grid of heights and tolerances.

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

The cylinder `cylinder_patch("y")` runs along y over [-2, 2] (v = (y + 2)/4)
with a periodic cubic B-spline profile in x and z, whose control polygon is
a convex 16-gon; so the profile is a convex closed curve through (x, z) =
(+-1, 0) and (0, +-1), within 1e-4 of the unit circle, and each plane z = c
with |c| < 1 meets the cylinder in two lines parallel to y. Only the one at
x0 > 0 lies over the plane patch's [0, 1]^2, with 0.59 < x0 < 0.98 for
c = +-0.2, ..., +-0.8, and it runs across y in [0, 1]. So each domain holds
one open arc: in the plane's domain from edge to edge, in the cylinder's the
v range [0.5, 0.75] at one angle. c = 0 is left out, because that line lies
on the patch edge x = 1, and |c| near 1, because there the plane is tangent
to the cylinder.

Every point runs at theta_ov = 0.2 and is checked with the known-defect
register's `assert_analytic`. A point that is wrong today is a strict xfail
naming its class, so a fix turns it into an XPASS that fails the suite until
the marker goes. The grid is fixed in advance, not chosen by what passes.
"""

import pytest

from sstopo import PipelineConfig, run_pipeline
from sstopo.partition import KIND_CLOSED, KIND_OPEN

from corpus import (assert_analytic, cylinder_patch, paraboloid_patch, plane_patch,
                    saddle_patch)

EPSILONS = (0.02, 0.01, 0.005)
# Heights in steps of 1/40: the paraboloid below 1/2 without the tangency at
# 1/4 to the corners, the saddle on both sides of its crossing at 0.
PARABOLOID_HEIGHTS = [k / 40 for k in range(1, 20) if k != 10]
SADDLE_HEIGHTS = [s * k / 40 for k in range(1, 10) for s in (1, -1)]
CYLINDER_HEIGHTS = [s * k / 5 for k in range(1, 5) for s in (1, -1)]

# (family, height, epsilon): what reads wrong today, and why.
WRONG_TODAY = {
    ("paraboloid", 0.025, 0.02): "a circle of radius 0.158 under a cover too coarse "
                                 "to see its cycle: one open segment per domain",
    ("paraboloid", 0.225, 0.02): "the circle passes within delta of every side: "
                                 "4 open segments per domain",
    **{("cylinder", c, 0.02): "a short arc read as one node: the cylinder domain's "
                              "18 points span 7.6 delta, fall in one cover interval "
                              "and read as one isolated node"
       for c in CYLINDER_HEIGHTS},
}


def grid():
    for family, heights in (("paraboloid", PARABOLOID_HEIGHTS), ("saddle", SADDLE_HEIGHTS),
                            ("cylinder", CYLINDER_HEIGHTS)):
        for c in heights:
            for epsilon in EPSILONS:
                key = (family, c, epsilon)
                marks = ()
                if key in WRONG_TODAY:
                    marks = pytest.mark.xfail(strict=True, raises=AssertionError,
                                              reason=WRONG_TODAY[key])
                yield pytest.param(*key, marks=marks, id=f"{family}-z{c:g}-eps{epsilon:g}")


def analytic_kinds(family, c):
    if family == "cylinder":
        return [KIND_OPEN]
    if family == "saddle":
        return [KIND_OPEN] * 2
    return [KIND_CLOSED] if c < 0.25 else [KIND_OPEN] * 4


@pytest.mark.parametrize("family, c, epsilon", grid())
def test_family_reads_the_analytic_answer(family, c, epsilon):
    other = {"paraboloid": paraboloid_patch, "saddle": saddle_patch,
             "cylinder": cylinder_patch}[family]()
    doc = run_pipeline(PipelineConfig(epsilon=epsilon, theta_ov=0.2), plane_patch(c), other)
    assert_analytic(doc, analytic_kinds(family, c))
