"""One benchmark process: warm up, then run timed passes or the traced run.

Started by ``run.py`` as a fresh interpreter with ``PYTHONPATH=<checkout>/src``.
Protocol on stdout: a line ``ready`` once imports and warm-up calls are done,
then one JSON line with the measurements. Anything the package prints goes to
stderr instead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

PROBLEMS_KEPT = 20


@dataclass
class PassResult:
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_pass(p, tracer=None, keys=None, probe_ids=None) -> PassResult:
    """Run a pass's calls in order, timing each ``run`` and checking its output.

    With a tracer, each call gets a fresh call id (recorded in ``keys``), and
    the pass's probes run after the calls; a probe's failure is part of what
    it measures, so it is neither attempted nor failed.
    """
    res = PassResult()
    bad: set[int] = set()
    calls = list(p.calls) + (list(p.probes) if tracer is not None else [])
    for index, call in enumerate(calls):
        probe = index >= len(p.calls)
        if tracer is not None:
            tracer.call_id += 1
            keys[tracer.call_id] = call.key
            if probe:
                probe_ids.add(tracer.call_id)
            tracer.recording = True
        start = perf_counter()
        try:
            out = call.run()
            error = None
        except Exception as exc:  # a failing call is counted, and the pass goes on
            error = exc
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        if probe:
            continue
        res.latencies.append(elapsed)
        if error is not None:
            bad.add(index)
            res.problems.append(f"{call.key}: {type(error).__name__}: {error}")
            traceback.print_exception(error, file=sys.stderr)
            continue
        found = call.check(out)
        if found:
            bad.add(index)
            res.problems += [f"{call.key}: {x}" for x in found]
    for key, problem in p.finish():
        bad.update(i for i, c in enumerate(p.calls) if c.key == key)
        res.problems.append(problem)
    res.wall_s = sum(res.latencies)
    res.attempted = len(p.calls)
    res.failed = len(bad)
    return res


def blas_info() -> dict:
    import numpy as np

    info = {"env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS", "MALLOC_ARENA_MAX")}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    # numpy's bundled scipy-openblas reports its live thread count and core type
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            threads = lib.scipy_openblas_get_num_threads64_
            config = lib.scipy_openblas_get_config64_
        except (OSError, AttributeError):
            continue
        threads.restype, threads.argtypes = ctypes.c_int, []
        config.restype, config.argtypes = ctypes.c_char_p, []
        info.update(threads=threads(), config=config().decode())
    return info


def environment(root: Path) -> dict:
    import numpy
    import scipy

    import qmeasure

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "qmeasure": qmeasure.__version__,
        "qmeasure_path": str(Path(qmeasure.__file__).resolve().parent.relative_to(root)),
    }


def cold_probes() -> dict:
    """First-call cost of the two cached set-up computations, timed on the
    uncached function (``__wrapped__``) so the package's caches stay as they are."""
    from qmeasure import analytics, special

    def cold(owner, name, *args) -> float:
        fn = getattr(owner, name, None)
        if fn is None:
            return 0.0
        fn = getattr(fn, "__wrapped__", fn)
        times = []
        for _ in range(3):
            start = perf_counter()
            fn(*args)
            times.append(perf_counter() - start)
        return median(times)

    return {"bures_norm_constant_n3": cold(analytics, "bures_norm_constant", 3),
            "gauss_laguerre_nodes_1024": cold(special, "gauss_laguerre_nodes", 1024)}


def warm(workload: str, seed: int, scale: float, workdir: Path) -> None:
    """One call of each entry point, unchecked: the checks' own imports and
    reference values would otherwise count as set-up. A raise stops the run."""
    import workloads as W

    for call in W.build_warmup(workload, seed, scale, workdir).calls:
        call.run()


def timed(args, root: Path, workdir: Path, proto) -> dict:
    import workloads as W

    warm(args.workload, args.seed, args.scale, workdir)
    proto.write("ready\n")
    proto.flush()
    walls, latencies, problems = [], [], []
    attempted = failed = passes = stat_gates_failed = 0
    start = perf_counter()
    # every process runs at least one pass, so each one's peak memory counts
    while not passes or attempted < args.min_calls or perf_counter() - start < args.seconds:
        p = W.build_pass(args.workload, args.seed, [args.child, passes], args.scale, workdir)
        res = run_pass(p)
        passes += 1
        walls.append(res.wall_s)
        latencies += res.latencies
        attempted += res.attempted
        failed += res.failed
        problems += res.problems
        stat_gates_failed += p.counters.get("stat_gates_failed", 0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "walls": walls,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:PROBLEMS_KEPT],
        "stat_gates_failed": stat_gates_failed,
        "measured_s": perf_counter() - start,
        "peak_rss_kb": usage.ru_maxrss,
        "env": environment(root),
        "cases": W.case_table(args.workload, args.scale),
    }


def traced(args, root: Path, workdir: Path, out_dir: Path) -> dict:
    import layers
    import workloads as W
    from tracing import Tracer

    for workload in W.WORKLOADS:
        warm(workload, args.seed, args.scale, workdir)

    def untraced_wall() -> float:
        p = W.build_pass(args.workload, args.seed, "trace", args.scale, workdir)
        return run_pass(p).wall_s

    before = untraced_wall()
    tracer = Tracer()
    traced_passes, results = {}, {}
    tracer.install(layers.targets())
    try:
        for workload in W.WORKLOADS:
            p = W.build_pass(workload, args.seed, "trace", args.scale, workdir)
            first, keys, probe_ids = len(tracer.spans), {}, set()
            results[workload] = run_pass(p, tracer, keys, probe_ids)
            traced_passes[workload] = layers.TracedPass(
                tracer.spans[first:], keys, probe_ids, dict(p.counters))
    finally:
        tracer.uninstall()
    after = untraced_wall()
    overhead = results[args.workload].wall_s - (before + after) / 2
    metrics = layers.per_layer_metrics(traced_passes, args.workload, overhead, cold_probes())
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.csv"
    tracer.write_csv(trace_file)
    sel = results[args.workload]
    return {
        "metrics": {k: [v, unit] for k, (v, unit) in metrics.items()},
        "attempted": sel.attempted,
        "failed": sel.failed,
        "problems": sel.problems[:PROBLEMS_KEPT],
        "untraced_wall_s": [before, after],
        "traced_wall_s": {w: r.wall_s for w, r in results.items()},
        "missing_trace_targets": tracer.missing,
        "trace_file": str(trace_file.relative_to(root)),
        "spans": len(tracer.spans),
        "env": environment(root),
        "cases": {w: W.case_table(w, args.scale) for w in W.WORKLOADS},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-calls", type=int, default=0)
    ap.add_argument("--child", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args()
    root = Path(args.root).resolve()
    out_dir = root / "perfbench" / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # the battery's byte-determinism criterion writes temporary files too
    tempfile.tempdir = str(workdir)

    # keep the protocol stream clean: the package's own prints go to stderr
    proto, sys.stdout = sys.stdout, sys.stderr
    import qmeasure

    src = (root / "src").resolve()
    if src not in Path(qmeasure.__file__).resolve().parents:
        raise SystemExit(f"qmeasure imported from {qmeasure.__file__}, not from {src}")
    try:
        if args.trace:
            result = traced(args, root, workdir, out_dir)
        else:
            result = timed(args, root, workdir, proto)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    proto.write(json.dumps(result, allow_nan=False) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
