"""Exception types shared across the package."""


class SstopoError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SstopoError):
    """A parameter is outside its admissible range (epsilon, delta, theta_ov,
    a filter direction that is not a unit vector, ...)."""


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
