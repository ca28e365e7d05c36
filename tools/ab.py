#!/usr/bin/env python3
"""Alternating A/B runs of the benchmark in two checkouts.

    python3 tools/ab.py BASE CHANGE --workload clouds --seed 1 --pairs 10 --seconds 40

Runs `python3 perfbench/run.py --trace 0` in checkout BASE and in checkout
CHANGE, one after the other, for each of `--pairs` pairs; odd pairs run
CHANGE first, so that a drift in machine speed does not land on one side.
Then it prints, for each end-to-end metric and each case median, both
sides' medians and interquartile ranges, the change's median relative to
the base's, and in how many pairs the change was better. It also says
whether the two sides' case digests agree, and gives each side's count of
source lines (`environment.src_lines`), so the line delta sits beside the
medians. Standard library only; it
changes nothing in either checkout beyond what a benchmark run writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`: its metric values, with each case's
    median seconds as `case:<id>`, its case digests and whether it was correct."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout
    return parse_run(out)


def parse_run(stdout: str) -> dict:
    """The metrics, digests, source line count and correctness of one run
    from its standard output, whose last two lines are the info and result
    objects."""
    info, result = (json.loads(line) for line in stdout.strip().splitlines()[-2:])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values.update({f"case:{case}": s for case, s in info["case_median_s"].items()})
    return {"values": values, "digests": info["digests"],
            "src_lines": info["environment"]["src_lines"],
            "correct": result["correct"] and result["failed"] == 0}


def format_src_lines(base: list[dict], change: list[dict]) -> str:
    """Each side's source line count, read from its first run (a checkout
    does not change between runs), and the change's delta."""
    a, b = base[0]["src_lines"], change[0]["src_lines"]
    return f"src lines: base {a}, change {b} ({b - a:+d})"


def iqr(values: list[float]) -> float:
    """Interquartile range, with quartiles interpolated between the samples."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(base: list[dict], change: list[dict]) -> list[dict]:
    """One row per metric that every run reports: both sides' medians and
    IQRs, the change's median relative to the base's, and the pairs (base[k],
    change[k]) in which the change was strictly better. Every end-to-end
    metric and every case median is better when lower."""
    names = set.intersection(*(set(run) for run in base + change))
    rows = []
    for name in sorted(names, key=lambda n: (n.startswith("case:"), n)):
        a = [run[name] for run in base]
        b = [run[name] for run in change]
        wins = sum(y < x for x, y in zip(a, b))
        med_a, med_b = statistics.median(a), statistics.median(b)
        rows.append({
            "metric": name,
            "base_median": med_a,
            "base_iqr": iqr(a),
            "change_median": med_b,
            "change_iqr": iqr(b),
            "relative": med_b / med_a - 1.0 if med_a else float("nan"),
            "wins": wins,
            "pairs": len(a),
            # The change is better by more than the base's own spread.
            "clear": med_a - med_b > iqr(a),
        })
    return rows


def format_rows(rows: list[dict]) -> str:
    """The rows as a Markdown table."""
    lines = ["| metric | base median | base IQR | change median | change IQR | change | wins |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r['metric']} | {r['base_median']:.5g} | {r['base_iqr']:.3g} | "
                     f"{r['change_median']:.5g} | {r['change_iqr']:.3g} | "
                     f"{100 * r['relative']:+.1f} %{' (beyond base IQR)' if r['clear'] else ''} | "
                     f"{r['wins']}/{r['pairs']} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout measured as the base")
    parser.add_argument("change", type=Path, help="checkout measured as the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    for k in range(args.pairs):
        for side in (("base", "change") if k % 2 == 0 else ("change", "base")):
            run = run_once(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(run)
            solve = run["values"].get("solve_s", float("nan"))
            print(f"pair {k + 1}/{args.pairs} {side}: solve_s {solve:.5g}", file=sys.stderr)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print(format_rows(summarize([r["values"] for r in runs["base"]],
                                [r["values"] for r in runs["change"]])))
    digests = {json.dumps(r["digests"], sort_keys=True) for side in runs.values() for r in side}
    print("digests: " + ("the same in every run" if len(digests) == 1 else "DIFFER"))
    print(format_src_lines(runs["base"], runs["change"]))
    failed = sum(not r["correct"] for side in runs.values() for r in side)
    print(f"runs not correct: {failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
