"""Smoke test of the benchmark's span tracer against the current package.

The tracer rebinds module attributes by name, so a renamed or inlined call
silently drops its layer from the per-layer figures. This imports the
tracer from `perfbench/` without changing it and runs one tiny sweep.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import sstopo.pipeline
from sstopo import PipelineConfig

from corpus import plane_patch, saddle_patch

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture
def spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # The module's dataclasses look themselves up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_install_traces_one_subdivision_per_sweep(spans):
    originals = [owner.__dict__[attr] for owner, attr, _, _ in spans.BINDINGS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr, _, _), original in zip(spans.BINDINGS, originals):
            assert owner.__dict__[attr] is not original, attr
        # Through the module attribute, which is what the tracer rebinds.
        sstopo.pipeline.sweep_theta(PipelineConfig(epsilon=0.05), [0.2, 0.3],
                                    surfaces=(plane_patch(), saddle_patch()))
    finally:
        tracer.uninstall()
    for (owner, attr, _, _), original in zip(spans.BINDINGS, originals):
        assert owner.__dict__[attr] is original, attr

    recorded = tracer.spans
    assert [s.name for s in recorded if s.parent < 0] == ["pipeline.sweep_theta"]
    subdivisions = [s for s in recorded if s.name == "subdivision"]
    assert len(subdivisions) == 1
    assert recorded[subdivisions[0].parent].name == "pipeline.sweep_theta"
    figures = spans.pass_metrics(recorded, 0, len(recorded), solve_s=1.0)
    assert figures["pipeline.subdivisions_per_sweep"] == 1
    assert figures["subdivision.calls"] == 1
