"""qmeasure benchmark: one command, four closed-loop workloads, one traced run.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 10 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its ``src/``. One client makes one call at a time.
``battery`` runs here and in every traced run, but it is not a workload of
``BENCHMARK.json``: its timings were not steady enough (see README.md).

``--trace 0`` starts three fresh worker processes one after another. Each
imports qmeasure, makes one warm-up call of every entry point the workload
uses, reports ``ready`` (the parent times this as ``setup_s``), then runs
passes over the workload's fixed call list for its share of ``--seconds``,
and for at least 100 calls between them all. ``wall_s`` is the mean pass
time, the call percentiles pool every call, ``setup_s`` is the median over
the three processes and ``peak_rss_mb`` the mean of their peaks.

``--trace 1`` starts one worker that runs one traced pass of every workload
plus the per-route probes, and reports the per-layer metrics. Spans are kept
in memory and written to ``perfbench/out/trace-<workload>-seed<n>.csv``.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the line before it is a report with provenance and the per-case parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median, quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spectra", "rejection", "cli", "battery")
CHILDREN = 3
MIN_CALLS = 100          # the 90th percentile then has ten calls beyond it
BUDGET_S = 170.0         # every run ends well within 180 s


class BenchError(Exception):
    pass


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmeasure").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


class Child:
    """One worker process; stops it on any failure so nothing is left running."""

    def __init__(self, argv: list[str], deadline: float):
        self.deadline = deadline
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                                      "--root", str(ROOT), *argv],
                                     cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)

    def remaining(self) -> float:
        return max(0.0, self.deadline - perf_counter())

    def wait_ready(self) -> None:
        ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
        line = self.proc.stdout.readline() if ready else ""
        if line.strip() != "ready":
            raise BenchError(f"worker did not become ready (got {line!r})")

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError("worker ran past the time budget") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        return json.loads(lines[-1])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def run_child(argv: list[str], deadline: float, timed: bool) -> tuple[float, dict]:
    start = perf_counter()
    child = Child(argv, deadline)
    try:
        setup = math.nan
        if timed:
            child.wait_ready()
            setup = perf_counter() - start
        return setup, child.result()
    finally:
        child.stop()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(args, deadline: float) -> tuple[dict, dict]:
    setups, walls, latencies, peaks, results = [], [], [], [], []
    measured = 0.0
    calls = 0
    min_calls = math.ceil(MIN_CALLS * min(1.0, args.scale))
    for i in range(CHILDREN):
        left = CHILDREN - i
        argv = ["--workload", args.workload, "--seed", str(args.seed), "--child", str(i),
                "--scale", str(args.scale),
                "--seconds", str(max(0.0, (args.seconds - measured) / left)),
                "--min-calls", str(max(0, math.ceil((min_calls - calls) / left)))]
        setup, res = run_child(argv, deadline, timed=True)
        setups.append(setup)
        walls += res["walls"]
        latencies += res["latencies"]
        peaks.append(res["peak_rss_kb"])
        measured += res["measured_s"]
        calls += res["attempted"]
        results.append(res)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    pct = quantiles(latencies, n=100, method="inclusive")
    metrics = {
        "setup_s": metric(median(setups), "s"),
        "wall_s": metric(fmean(walls), "s"),
        "call_p50_ms": metric(1000.0 * pct[49], "ms"),
        "call_p90_ms": metric(1000.0 * pct[89], "ms"),
        # a mean, not a median: with the default allocator a process's peak
        # jumps by 50-100 MB at random (mc_estimate's threads get extra malloc
        # arenas), and the mean counts that memory at the rate it occurs
        "peak_rss_mb": metric(fmean(peaks) * 1024 / 1e6, "MB"),
    }
    report = {
        "setup_s_each": setups,
        "passes": len(walls),
        "pass_wall_s": walls,
        "calls": len(latencies),
        "calls_beyond_p90": sum(x > pct[89] for x in latencies),
        "fail_share": failed / attempted,
        "stat_gates_failed": sum(r["stat_gates_failed"] for r in results),
        "problems": [p for r in results for p in r["problems"]][:20],
        "peak_rss_kb_each": peaks,
        "measured_s": measured,
        "env": results[0]["env"],
        "cases": results[0]["cases"],
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, report


def traced_run(args, deadline: float) -> tuple[dict, dict]:
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--trace", "1",
            "--scale", str(args.scale)]
    _, res = run_child(argv, deadline, timed=False)
    metrics = {name: metric(value, unit) for name, (value, unit) in res.pop("metrics").items()}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    return result, res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink every call's size and the minimum call count "
                         "(self-tests use a small scale)")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must lie in [0, 2**63)")
    if not (ROOT / "src" / "qmeasure" / "__init__.py").is_file():
        print(f"error: no qmeasure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + BUDGET_S
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        result, report = (traced_run if args.trace else timed_run)(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, scale=args.scale, children=CHILDREN,
                  git_commit=git_commit(), src_sha256=src_digest())
    print(json.dumps({"report": report}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
