"""The summary of `tools/ab.py` on fixed numbers, and its reading of a
benchmark run's output."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab_tool", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def test_iqr_interpolates_the_quartiles():
    assert ab.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert ab.iqr([4.0, 1.0, 3.0, 2.0]) == pytest.approx(1.5)
    assert ab.iqr([7.0]) == 0.0


def test_summary_of_fixed_runs():
    base = [{"solve_s": v, "case:a": 10 * v} for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    change = [{"solve_s": v, "case:a": 10 * u + 1, "extra": 0.0}
              for v, u in zip((0.5, 1.5, 2.5, 3.5, 6.0), (1.0, 2.0, 3.0, 4.0, 5.0))]
    solve, case = ab.summarize(base, change)
    # Metrics come first and case medians after them; a metric that some
    # runs lack is left out.
    assert (solve["metric"], case["metric"]) == ("solve_s", "case:a")
    assert solve["base_median"] == 3.0 and solve["change_median"] == 2.5
    assert solve["base_iqr"] == 2.0 and solve["change_iqr"] == 2.0
    assert solve["relative"] == pytest.approx(-1.0 / 6.0)
    assert (solve["wins"], solve["pairs"]) == (4, 5)
    # Half a second better is within the base's IQR of 2.
    assert not solve["clear"]
    assert case["wins"] == 0 and case["change_median"] == 31.0


def test_a_gap_beyond_the_base_iqr_is_clear():
    base = [{"solve_s": v} for v in (1.00, 1.01, 1.02, 1.03)]
    change = [{"solve_s": v} for v in (0.90, 0.91, 0.92, 1.05)]
    [row] = ab.summarize(base, change)
    assert row["clear"] and row["wins"] == 3
    table = ab.format_rows([row])
    assert table.splitlines()[2].startswith("| solve_s | 1.015 |")
    assert "3/4" in table and "beyond base IQR" in table


def test_parse_run_reads_the_last_two_lines():
    info = {"case_median_s": {"six": 0.25}, "digests": {"six": "ab12"},
            "environment": {"backend": "numpy", "src_lines": 3017}}
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {"solve_s": {"value": 0.5, "unit": "s"},
                          "peak_rss_mb": {"value": 60.0, "unit": "MB"}}}
    out = "\n".join(["noise", json.dumps({"passes": 2}), json.dumps(info), json.dumps(result)])
    run = ab.parse_run(out + "\n")
    assert run["values"] == {"solve_s": 0.5, "peak_rss_mb": 60.0, "case:six": 0.25}
    assert run["digests"] == {"six": "ab12"} and run["correct"]
    assert run["src_lines"] == 3017


def test_src_lines_of_both_sides():
    base = [{"src_lines": 3019}] * 3
    change = [{"src_lines": 3030}] * 3
    assert ab.format_src_lines(base, change) == "src lines: base 3019, change 3030 (+11)"
    assert ab.format_src_lines(change, base).endswith("(-11)")
