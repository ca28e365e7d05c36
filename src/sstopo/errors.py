"""Exception types shared across the package, and the one check of a
setting that must lie strictly inside a range."""

from math import inf
from numbers import Real


class SstopoError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SstopoError):
    """A parameter is outside its admissible range (epsilon, delta, theta_ov,
    a filter direction that is not a unit vector, ...) or is not a real
    number at all (None, a string, a bool), a domain box is not four finite
    real numbers bounding a nonempty rectangle, a cover count is not an
    integer, a synthetic curve has no finite sample count, or a result
    document is malformed (not an object, a key missing, a value that does
    not read as its field)."""


class ParameterRangeError(SstopoError):
    """A surface parameter or rectangle falls outside the valid domain, a
    surface's knots or control points are NaN or infinite, a knot vector is
    invalid (negative degree, too few knots, decreasing knots, an empty valid
    range), a control grid has the wrong shape or does not match its knots,
    a uniform knot builder is asked for too few rows, or a surface record is
    malformed (not an object, a key missing, a degree that is not an
    integer, knots or control points that are not arrays of numbers, a
    periodic flag that is not a bool)."""


class EmptyInputError(SstopoError):
    """An operation that needs data was given an empty point set."""


class DegenerateCloudError(SstopoError):
    """A point cloud is malformed (not an (n, 2) array, non-finite or so large
    that its sums overflow) or comes from a malformed cloud file (a value that
    does not parse, or a label on some lines but not all)."""


def check_open(value, what: str, low=0.0, high=inf) -> None:
    """Refuse, with `ConfigurationError` saying `what`, any value that is not
    a real number strictly between `low` and `high`: positive and finite by
    default. A bool is not a number here. The value is never converted, so a
    record keeps what it was given."""
    if isinstance(value, bool) or not isinstance(value, Real) or not low < value < high:
        raise ConfigurationError(f"{what}, got {value!r}")
