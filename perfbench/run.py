#!/usr/bin/env python3
"""sstopo benchmark: one seeded workload, timed, checked and reported.

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 40 --trace 0

Runs the workload's cases in passes until `--seconds` have elapsed, checks
every output, and prints as its last line one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end figures; with `--trace 1` the run alternates untraced and traced
passes and reports the per-layer figures. The line before it holds the
environment, the case digests and any problems found.
See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads, so every figure is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5


def import_program():
    """Import sstopo from this checkout's sources, never from elsewhere."""
    if not (SRC / "sstopo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sstopo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sstopo

    if Path(sstopo.__file__).resolve().parent != (SRC / "sstopo").resolve():
        sys.exit(f"perfbench: sstopo was imported from {sstopo.__file__}, not {SRC}")
    return sstopo


def measure_setup(args) -> float:
    """Median wall time of a fresh interpreter that imports sstopo, builds the
    workload's inputs and makes the first call of each entry point, which
    loads what the package imports lazily."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def environment(sstopo, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": sstopo.backend(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


class Runner:
    """Runs the cases pass by pass, checking each output outside the timer."""

    def __init__(self, cases) -> None:
        self.cases = cases
        self.digests: dict[str, str] = {}
        self.case_s: dict[str, list[float]] = {c.id: [] for c in cases}
        self.problems: dict[str, set[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.passes_run = 0

    def passes(self, budget: float, tracer=None, on_pass=None) -> list[float]:
        """Seconds of each pass; at least one pass, then until `budget` is spent."""
        times: list[float] = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < budget:
            first = len(tracer.spans) if tracer else 0
            total = 0.0
            self.passes_run += 1
            for case in self.cases:
                if tracer:
                    tracer.case = f"{self.passes_run}:{case.id}"
                seconds = self._run(case)
                total += seconds or 0.0
            times.append(total)
            if on_pass:
                on_pass(first, total)
        return times

    def _run(self, case) -> float | None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = case.run()
        except Exception:  # a case that raises is a failure, not the end of the run
            traceback.print_exc()
            self._fail(case.id, ["raised " + traceback.format_exc().splitlines()[-1]])
            return None
        seconds = time.perf_counter() - t0
        self.case_s[case.id].append(seconds)
        problems = case.check(out)
        digest = case.digest(out)
        if self.digests.setdefault(case.id, digest) != digest:
            problems.append("digest changed between passes")
        if problems:
            self._fail(case.id, problems)
        return seconds

    def _fail(self, case_id: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.setdefault(case_id, set()).update(problems)


def main(argv=None) -> int:
    sstopo = import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, build the inputs and warm up, then exit (times set-up)")
    args = parser.parse_args(argv)

    build = workloads.WORKLOADS[args.workload]
    logging.disable(logging.WARNING)  # the pipeline warns on every singular node
    if args.setup_only:
        build(args.seed, WORK / "setup")
        workloads.warm_up()
        return 0

    setup_s = measure_setup(args)
    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(build(args.seed, work_dir))
        workloads.warm_up()
        if args.trace:
            metrics = traced_run(runner, args)
        else:
            solve = runner.passes(args.seconds)
            metrics = {
                "solve_s": {"value": statistics.median(solve), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
            print(json.dumps({"passes": len(solve), "pass_s": solve}))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reference = json.loads((HERE / "reference_digests.json").read_text())
    expected = reference.get(args.workload, {})
    print(json.dumps({
        "workload": args.workload,
        "environment": environment(sstopo, args.seed),
        "case_median_s": {k: statistics.median(v) for k, v in runner.case_s.items() if v},
        "digests": runner.digests,
        "digests_changed": sorted(k for k, v in runner.digests.items()
                                  if k in expected and expected[k] != v),
        "problems": {k: sorted(v) for k, v in runner.problems.items()},
    }))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def traced_run(runner: Runner, args) -> dict:
    import spans

    tracer = spans.Tracer()
    per_pass: list[dict] = []
    untraced: list[float] = []
    traced: list[float] = []

    def record(first: int, total: float) -> None:
        per_pass.append(spans.pass_metrics(tracer.spans, first, len(tracer.spans), total))

    # Untraced and traced passes alternate, so that drift in machine speed
    # does not land on one side of the overhead estimate.
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced += runner.passes(0)
        tracer.install()
        try:
            traced += runner.passes(0, tracer, record)
        finally:
            tracer.uninstall()
    tracer.write(WORK / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps({"untraced_pass_s": untraced, "traced_pass_s": traced,
                      "spans": len(tracer.spans)}))
    return spans.layer_report(per_pass, traced, untraced)


if __name__ == "__main__":
    sys.exit(main())
