import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sstopo._kernels import warm_up


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # The lazy scipy imports happen once here, outside any timed assertion.
    warm_up()
