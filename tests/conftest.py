import sys
from pathlib import Path

import pytest

import sstopo._kernels

sys.path.insert(0, str(Path(__file__).parent))


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
