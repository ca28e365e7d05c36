"""The benchmark's own `surfaces` and `clouds` cases, each run once.

`perfbench/workloads.py` builds its cases from the package's public names
and checks every output with an oracle, so a removed name, a broken oracle
or a moved digest fails here as well as in the benchmark. The modules are
loaded from `perfbench/` without changing them, as `test_bench_tracer.py`
loads the tracer.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The `clouds` digests at seed 1; the workload pins none of its own.
CLOUD_DIGESTS = {
    "performance6000": "962b13c914e5256bfc9e68e927d87e5a032d0e422b2da3ad0f38f395d6638989",
    "performance24000": "e8998fa5ed60dca9c60df508bd2211ef6517c5e8270ec0556435984eaed5fd37",
    "performance60000": "9e2ed663ef7064e5901dc0f3303f7d114bc8b6416e1dba317a227024c1503ed8",
    "three_curve": "fe4ad238754ad86bb33eda6d987de0da6da19cf0e08a707e39850553405f45f8",
}


def _load(monkeypatch, name, module_name):
    spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look themselves up in sys.modules.
    monkeypatch.setitem(sys.modules, module_name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its inputs as the top-level module `inputs`.
    _load(monkeypatch, "inputs", "inputs")
    return _load(monkeypatch, "workloads", "perfbench_workloads")


def _run_once(cases) -> dict:
    """Each case's digest, after its oracle found no problem."""
    digests = {}
    for case in cases:
        out = case.run()
        assert case.check(out) == [], case.id
        digests[case.id] = case.digest(out)
    return digests


def test_surfaces_cases_give_the_reference_digests(workloads, tmp_path):
    reference = json.loads((PERFBENCH / "reference_digests.json").read_text())["surfaces"]
    cases = workloads.surfaces(1, tmp_path)
    assert _run_once(cases) == reference
    # The pair cases export, and their oracle reloads result.json.
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(workloads.inputs.PAIRS)


def test_clouds_cases_give_the_pinned_digests(workloads, tmp_path):
    assert _run_once(workloads.clouds(1, tmp_path)) == CLOUD_DIGESTS
