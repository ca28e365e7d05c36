import sys
import warnings
from pathlib import Path

import pytest

import sstopo._kernels

sys.path.insert(0, str(Path(__file__).parent))

# When a property fails, hypothesis's pytest plugin imports this module to
# suggest an explicit example. It loads libcst, whose mypy_extensions import
# warns; under filterwarnings = error that warning would end the session in
# INTERNALERROR and stop every later test. Import it now, quietly.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture
def sup_grids(monkeypatch):
    """The point count of each grid the supremum kernel builds while the
    test runs."""
    built = []
    grid = sstopo._kernels._Grid

    def counted(pts, delta, reach, groups=None):
        if reach == sstopo._kernels._SUP_REACH:
            built.append(len(pts))
        return grid(pts, delta, reach, groups)

    monkeypatch.setattr(sstopo._kernels, "_Grid", counted)
    return built
