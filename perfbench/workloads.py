"""The four workloads: their fixed call lists, warm-up calls and output checks.

Every input is derived from the workload seed. A pass is identified by a tag
(child process and pass index), and each call in it draws from its own
(seed, stream) pair, so the same seed and tag always give the same inputs.

A call's ``run`` is the only thing timed. Its ``check`` inspects the output
afterwards and returns the problems it found; ``Pass.finish`` does the checks
that pool several calls (the 5-standard-error sanity bands), and names the
call keys whose outputs failed them.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Any, Callable

import numpy as np

# analytics, cli and verify are imported where first used, so a worker's
# set-up imports only the modules its workload calls
from qmeasure import ensembles, stats
from qmeasure.ensembles import Bures, Induced, ProductDirichlet, RandomStream

# Tolerances of the sanity checks on outputs (not battery gates).
SUM_TOL = 1e-10
MATRIX_TOL = 1e-10
SIGMAS = 5.0


def derive(seed: int, *parts) -> int:
    """Deterministic 63-bit integer from the workload seed and a label."""
    text = json.dumps([seed, *parts]).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


@dataclass
class Call:
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Pass:
    calls: list[Call]
    finish: Callable[[], list[tuple[str, str]]] = lambda: []
    # calls that run only in the traced run: known-failing or per-route probes
    probes: list[Call] = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))


def scaled(count: int, scale: float, least: int = 1) -> int:
    return max(least, int(round(count * scale)))


def rep_sizes(count: int, reps: int, scale: float, least: int = 1) -> list[int]:
    """Sizes of a case's repetitions: ``count`` times 1/2 to 2 on a log scale.

    Calls of one case then take a range of times instead of one value, so the
    pooled latency distribution has no gaps between cases and its
    percentiles move smoothly with the program's speed.
    """
    if reps == 1:
        return [scaled(count, scale, least)]
    return [scaled(count * 2.0 ** (2.0 * r / (reps - 1) - 1.0), scale, least)
            for r in range(reps)]


# ---------------------------------------------------------------------------
# reference values for the sanity checks


def purity_reference(measure) -> float:
    """Exact mean purity <Tr rho^2> of each sampled measure.

    beta = 2 induced uses the package's own formula. For general beta, the
    Gaussian construction gives (beta(n+k-1)+2)/(beta n k+2), because Tr W and
    W/Tr W are independent; product Dirichlet(s) gives (s+1)/(ns+1) and Bures
    gives (5n^2+1)/(2n(n^2+2)) (Osipov, Sommers, Zyczkowski 2010).
    """
    from qmeasure import analytics

    if isinstance(measure, Induced):
        n, k, b = measure.n, measure.k, measure.beta
        if b == 2:
            return analytics.purity_induced_exact(n, k)
        return (b * (n + k - 1) + 2.0) / (b * n * k + 2.0)
    if isinstance(measure, ProductDirichlet):
        s = measure.s
        return (s + 1.0) / (measure.n * s + 1.0)
    n = measure.n
    return (5.0 * n * n + 1.0) / (2.0 * n * (n * n + 2.0))


@cache
def hs_entropy_reference(n: int) -> float:
    from qmeasure import analytics

    return analytics.hs_mean_entropy_exact(n)


def _band_problem(label: str, values: np.ndarray, target: float) -> str | None:
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else math.inf
    if abs(mean - target) > SIGMAS * stderr:
        return f"{label}: mean {mean:.6g} is {abs(mean - target) / stderr:.1f} stderr from {target:.6g}"
    return None


def spectrum_problems(x, count: int, n: int) -> list[str]:
    """Shape (count, n); rows sorted descending, nonnegative, summing to 1."""
    if not isinstance(x, np.ndarray) or x.shape != (count, n):
        return [f"shape {getattr(x, 'shape', type(x))} != {(count, n)}"]
    problems = []
    if np.any(np.diff(x, axis=1) > 0):
        problems.append("row not sorted descending")
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        problems.append("negative or non-finite eigenvalue")
    worst = float(np.max(np.abs(x.sum(axis=1) - 1.0)))
    if worst > SUM_TOL:
        problems.append(f"row sum off by {worst:.3g}")
    return problems


def describe(measure, counts) -> dict:
    if isinstance(measure, Induced):
        params = {"n": measure.n, "k": measure.k, "beta": measure.beta}
    elif isinstance(measure, ProductDirichlet):
        params = {"n": measure.n, "s": measure.s}
    else:
        params = {"n": measure.n, "measure": "bures"}
    return {**params, "counts": counts}


# ---------------------------------------------------------------------------
# spectra: bulk sample_spectra + spectrum_functional, and mc_estimate

# (case, measure, middle rows per call); a middle call takes about 20 ms at the seed
SPECTRA_CASES = [
    ("induced_2_2_b2", Induced(2, 2, 2), 10000),
    ("induced_3_6_b2", Induced(3, 6, 2), 5000),
    ("induced_8_8_b2", Induced(8, 8, 2), 1500),
    ("induced_4_256_b2", Induced(4, 256, 2), 250),
    ("induced_64_64_b2", Induced(64, 64, 2), 25),
    ("induced_3_3_b1", Induced(3, 3, 1), 10000),
    ("product_3_s0.5", ProductDirichlet(3, 0.5), 40000),
    ("product_3_s1", ProductDirichlet(3, 1.0), 80000),
]
SPECTRA_REPS = 13
MC_CASES = [("hs_4_entropy_w1", 1), ("hs_4_entropy_w2", 2)]
MC_SAMPLES = 100_000


def _bulk_call(case: str, measure, count: int, stream: RandomStream, pooled) -> Call:
    n = measure.n

    def run():
        x = ensembles.sample_spectra(measure, count, stream)
        return x, stats.spectrum_functional(x, "purity"), stats.spectrum_functional(x, "entropy")

    def check(out):
        x, purity, entropy = out
        problems = spectrum_problems(x, count, n)
        if not (np.all(purity >= 1.0 / n - SUM_TOL) and np.all(purity <= 1.0 + SUM_TOL)):
            problems.append("purity outside [1/n, 1]")
        if not (np.all(entropy >= -SUM_TOL) and np.all(entropy <= math.log(n) + SUM_TOL)):
            problems.append("entropy outside [0, ln n]")
        pooled[case].append((purity, entropy))
        return problems

    return Call(case, run, check)


def _pooled_finish(measures: dict, pooled) -> Callable[[], list[tuple[str, str]]]:
    def finish():
        bad = []
        for case, parts in pooled.items():
            measure = measures[case]
            purity = np.concatenate([p for p, _ in parts])
            problem = _band_problem(f"{case} purity", purity, purity_reference(measure))
            if problem:
                bad.append((case, problem))
            if isinstance(measure, Induced) and measure.beta == 2 and measure.n == measure.k:
                entropy = np.concatenate([e for _, e in parts])
                problem = _band_problem(f"{case} entropy", entropy,
                                        hs_entropy_reference(measure.n))
                if problem:
                    bad.append((case, problem))
        return bad

    return finish


def _mc_call(case: str, workers: int, samples: int, seed: int) -> Call:
    def run():
        return stats.mc_estimate(ensembles.hilbert_schmidt(4), "entropy", samples, workers, seed)

    def check(est):
        problems = []
        if est.count != samples:
            problems.append(f"count {est.count} != {samples}")
        target = hs_entropy_reference(4)
        if not abs(est.mean - target) <= SIGMAS * est.stderr:
            problems.append(f"mean {est.mean:.6g} vs exact {target:.6g} (stderr {est.stderr:.3g})")
        return problems

    return Call(case, run, check)


def spectra_pass(seed: int, tag, scale: float = 1.0) -> Pass:
    pooled = defaultdict(list)
    calls = []
    sizes = {case: rep_sizes(count, SPECTRA_REPS, scale, 10) for case, _, count in SPECTRA_CASES}
    for rep in range(SPECTRA_REPS):
        for case, measure, _ in SPECTRA_CASES:
            stream = RandomStream(seed, derive(seed, "spectra", tag, case, rep))
            calls.append(_bulk_call(case, measure, sizes[case][rep], stream, pooled))
    for case, workers in MC_CASES:
        calls.append(_mc_call(case, workers, scaled(MC_SAMPLES, scale, 1000),
                              derive(seed, "spectra", tag, case)))
    measures = {case: measure for case, measure, _ in SPECTRA_CASES}
    return Pass(calls, _pooled_finish(measures, pooled))


def spectra_warmup(seed: int, scale: float = 1.0) -> Pass:
    pooled = defaultdict(list)
    calls = [_bulk_call(case, m, min(c, 100), RandomStream(seed, derive(seed, "warm", case)), pooled)
             for case, m, c in SPECTRA_CASES]
    calls += [_mc_call(case, w, 1000, derive(seed, "warm", case)) for case, w in MC_CASES]
    return Pass(calls)


def spectra_cases(scale: float = 1.0) -> dict:
    table = {case: describe(m, rep_sizes(c, SPECTRA_REPS, scale, 10))
             for case, m, c in SPECTRA_CASES}
    for case, workers in MC_CASES:
        table[case] = {**describe(Induced(4, 4, 2), [scaled(MC_SAMPLES, scale, 1000)]),
                       "functional": "entropy", "workers": workers}
    return table


# ---------------------------------------------------------------------------
# rejection: the _rejection_rows route (Bures and beta = 4 spectra)

# (case, measure, middle rows per call, calls per pass)
REJECTION_CASES = [
    ("bures_2", Bures(2), 12000, 24),
    ("bures_3", Bures(3), 600, 24),
    ("bures_4", Bures(4), 4, 4),
    ("induced_2_3_b4", Induced(2, 3, 4), 3000, 24),
    ("induced_2_8_b4", Induced(2, 8, 4), 400, 24),
]
# At the seed commit these raise EfficiencyFailure (acceptance below 1e-6), so
# they are probes of the traced run and stay out of the timed call list.
REJECTION_PROBES = [("bures_5", Bures(5), 1), ("induced_3_4_b4", Induced(3, 4, 4), 1)]


def _probe_call(case: str, measure, count: int, stream: RandomStream) -> Call:
    def run():
        return ensembles.sample_spectra(measure, count, stream)

    return Call(case, run, lambda x: spectrum_problems(x, count, measure.n))


def rejection_pass(seed: int, tag, scale: float = 1.0) -> Pass:
    pooled = defaultdict(list)
    calls = []
    sizes = {case: rep_sizes(count, reps, scale) for case, _, count, reps in REJECTION_CASES}
    for rep in range(max(len(v) for v in sizes.values())):
        for case, measure, *_ in REJECTION_CASES:
            if rep < len(sizes[case]):
                stream = RandomStream(seed, derive(seed, "rejection", tag, case, rep))
                calls.append(_bulk_call(case, measure, sizes[case][rep], stream, pooled))
    probes = [_probe_call(case, m, count, RandomStream(seed, derive(seed, "probe", tag, case)))
              for case, m, count in REJECTION_PROBES]
    measures = {case: m for case, m, *_ in REJECTION_CASES}
    return Pass(calls, _pooled_finish(measures, pooled), probes)


def rejection_warmup(seed: int, scale: float = 1.0) -> Pass:
    pooled = defaultdict(list)
    return Pass([
        _bulk_call(case, m, 1, RandomStream(seed, derive(seed, "warm", case)), pooled)
        for case, m, *_ in REJECTION_CASES
    ])


def rejection_cases(scale: float = 1.0) -> dict:
    table = {case: describe(m, rep_sizes(c, reps, scale)) for case, m, c, reps in REJECTION_CASES}
    for case, m, count in REJECTION_PROBES:
        table[case] = {**describe(m, [count]), "probe": True}
    return table


# ---------------------------------------------------------------------------
# cli: in-process qmeasure.cli.main writing into a scratch directory

# Middle sizes are the CLI's own defaults (``--samples`` 1000 for ``sample``,
# 100_000 for ``ternary`` and ``estimate``, ``--bins`` 1000 for ``density``),
# except ``matrices_bures``: see README.md.
CLI_COMMANDS = [
    ("sample_csv", ["sample", "--measure", "induced", "--n", "3", "--k", "6"], "--samples", 1000),
    ("sample_json", ["sample", "--measure", "induced", "--n", "3", "--k", "6",
                     "--format", "json"], "--samples", 1000),
    ("matrices_induced", ["sample", "--measure", "induced", "--n", "3", "--k", "6",
                          "--matrices"], "--samples", 1000),
    ("matrices_product", ["sample", "--measure", "product", "--n", "3", "--s", "1",
                          "--matrices"], "--samples", 1000),
    ("matrices_bures", ["sample", "--measure", "bures", "--n", "2", "--matrices"],
     "--samples", 100),
    ("ternary", ["ternary", "--measure", "induced", "--n", "3", "--k", "6",
                 "--resolution", "24"], "--samples", 100_000),
    ("estimate", ["estimate", "--measure", "hs", "--n", "4", "--functional", "entropy"],
     "--samples", 100_000),
    ("density", ["density", "--measure", "induced", "--n", "2", "--k", "5"], "--bins", 1000),
]
# the last call of each command repeats the first one's seed, and its output
# must be byte-identical
CLI_REPS = 6
CLI_WARM_SCALE = 0.01


def _read_table(path: Path) -> np.ndarray:
    """Rows of a CSV table (after its header) or of a JSON columns/rows object."""
    text = path.read_text(encoding="utf-8")
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        return np.array(payload["rows"], dtype=np.float64).reshape(
            len(payload["rows"]), len(payload["columns"]))
    lines = text.rstrip("\n").split("\n")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return np.array(rows, dtype=np.float64).reshape(len(rows), -1)


def _matrix_problems(table: np.ndarray, n: int) -> list[str]:
    if table.shape[1] != 2 * n * n:
        return [f"{table.shape[1]} columns, expected {2 * n * n}"]
    mats = (table[:, 0::2] + 1j * table[:, 1::2]).reshape(-1, n, n)
    problems = []
    if np.max(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2)))) > MATRIX_TOL:
        problems.append("matrix not Hermitian")
    if np.max(np.abs(np.trace(mats, axis1=1, axis2=2).real - 1.0)) > MATRIX_TOL:
        problems.append("trace not 1")
    if np.min(np.linalg.eigvalsh(mats)) < -MATRIX_TOL:
        problems.append("negative eigenvalue")
    return problems


def _cli_output_problems(command: str, path: Path, size: int) -> list[str]:
    if command == "estimate":
        record = json.loads(path.read_text(encoding="utf-8"))
        problems = []
        if record["count"] != size:
            problems.append(f"count {record['count']} != {size}")
        if record["exact"] is None or record["z_score"] is None:
            problems.append("estimate has no exact value")
        elif abs(record["z_score"]) > SIGMAS:
            problems.append(f"z_score {record['z_score']:.3g}")
        return problems
    table = _read_table(path)
    if command in ("sample_csv", "sample_json"):
        return spectrum_problems(table, size, 3)
    if command.startswith("matrices_"):
        n = 2 if command == "matrices_bures" else 3
        if table.shape[0] != size:
            return [f"{table.shape[0]} matrices, expected {size}"]
        return _matrix_problems(table, n)
    if command == "ternary":
        if table.shape != (24 * 24, 3) or int(table[:, 2].sum()) != size or table[:, 2].min() < 0:
            return ["ternary cells do not cover the samples"]
        return []
    # density: nonnegative, and integrates to 1 over [0, 1/2)
    r, dens = table[:, 0], table[:, 1]
    if table.shape[0] != size or np.any(dens < 0) or not np.all(np.isfinite(dens)):
        return ["density table malformed"]
    mass = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(r)))
    return [] if abs(mass - 1.0) < 1e-2 else [f"density mass {mass:.4g}"]


def _cli_call(command: str, argv: list[str], size: int, workdir: Path, digests: dict,
              counters) -> Call:
    from qmeasure import cli

    path = workdir / f"{command}.out"

    def run():
        return cli.main(argv + ["--out", str(path)])

    def check(code):
        if code != 0:
            return [f"exit code {code}"]
        data = path.read_bytes()
        counters["bytes_out"] += len(data)
        if command != "estimate":
            counters["table_bytes_out"] += len(data)
        key = tuple(argv)
        digest = hashlib.sha256(data).hexdigest()
        if digests.setdefault(key, digest) != digest:
            return ["repeated command at the same seed gave different bytes"]
        try:
            return _cli_output_problems(command, path, size)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            return [f"unparseable output: {exc}"]

    return Call(command, run, check)


def cli_sizes(command: str, size: int, scale: float) -> list[int]:
    # mc_estimate needs 100 samples; a density table needs a few bins
    least = {"estimate": 100, "density": 10}.get(command, 1)
    return rep_sizes(size, CLI_REPS - 1, scale, least)


def cli_pass(seed: int, tag, scale: float, workdir: Path) -> Pass:
    digests: dict = {}
    p = Pass([])
    sizes = {command: cli_sizes(command, size, scale) for command, _, _, size in CLI_COMMANDS}
    for rep in range(CLI_REPS):
        r = rep % (CLI_REPS - 1)  # the last repetition repeats the first
        for command, argv, size_flag, _ in CLI_COMMANDS:
            n = sizes[command][r]
            full = argv + [size_flag, str(n), "--seed", str(derive(seed, "cli", tag, command, r))]
            p.calls.append(_cli_call(command, full, n, workdir, digests, p.counters))
    p.probes = matrix_probes(seed, tag)
    return p


def cli_warmup(seed: int, scale: float, workdir: Path) -> Pass:
    p = Pass([])
    for command, argv, size_flag, size in CLI_COMMANDS:
        # a small call: set-up pays for imports and cache fills, not for rows
        n = cli_sizes(command, size, scale * CLI_WARM_SCALE)[0]
        full = argv + [size_flag, str(n), "--seed", str(derive(seed, "warm", command))]
        p.calls.append(_cli_call(command, full, n, workdir, {}, p.counters))
    return p


def cli_cases(scale: float = 1.0) -> dict:
    return {command: {"argv": argv, size_flag: cli_sizes(command, size, scale)}
            for command, argv, size_flag, size in CLI_COMMANDS}


# per-route matrix probes: one public *_density_matrix call per matrix,
# drawing from the benchmark's own stream
MATRIX_ROUTES = [
    ("matrix_induced_3_6", lambda s: ensembles.induced_density_matrix(3, 6, 2, s), 200),
    ("matrix_product_3_s1", lambda s: ensembles.product_measure_density_matrix(3, 1.0, s), 100),
    ("matrix_bures_2", lambda s: ensembles.bures_density_matrix(2, s), 10),
]


def matrix_probes(seed: int, tag) -> list[Call]:
    calls = []
    for route, draw, count in MATRIX_ROUTES:
        stream = RandomStream(seed, derive(seed, "route", tag, route))

        def check(rho):
            n = rho.matrix.shape[0]
            flat = rho.matrix.reshape(1, -1)
            table = np.empty((1, 2 * n * n))
            table[:, 0::2], table[:, 1::2] = flat.real, flat.imag
            return _matrix_problems(table, n)

        calls += [Call(route, lambda draw=draw, stream=stream: draw(stream), check)
                  for _ in range(count)]
    return calls


# ---------------------------------------------------------------------------
# battery: verify.run_criterion 1..13 at the quick sample count

CRITERIA = tuple(range(1, 14))


def _statistical(check) -> bool:
    """Gates that pass or fail by chance at a fixed rate: 3-sigma bands (z)
    and p > 0.01 tests (p)."""
    return "p" in check.details or "z" in check.details


def _criterion_call(index: int, config, counters) -> Call:
    from qmeasure import verify

    def run():
        return verify.run_criterion(index, config)

    def check(result):
        if result.index != index or not result.checks:
            return [f"criterion {index} returned an empty or mismatched result"]
        problems = []
        for c in result.checks:
            if c.passed:
                continue
            if _statistical(c):
                # a p > 0.01 gate fails about one seed in a hundred by design;
                # it is counted, not treated as a wrong output
                counters["stat_gates_failed"] += 1
            else:
                problems.append(f"criterion {index}: {c.name} failed {c.details}")
        counters["checks_failed"] += sum(not c.passed for c in result.checks)
        return problems

    return Call(f"criterion_{index:02d}", run, check)


def battery_samples(scale: float) -> int:
    from qmeasure import verify

    # criterion 11's chi-square needs 5 expected counts in each of 64 cells
    return scaled(verify.QUICK_SAMPLES, scale, 1000)


def battery_pass(seed: int, tag, scale: float = 1.0) -> Pass:
    from qmeasure import verify

    p = Pass([])
    config = verify.BatteryConfig(samples=battery_samples(scale),
                                  seed=derive(seed, "battery", tag))
    p.calls = [_criterion_call(i, config, p.counters) for i in CRITERIA]
    return p


def battery_warmup(seed: int, scale: float = 1.0) -> Pass:
    from qmeasure import verify

    p = Pass([])
    config = verify.BatteryConfig(samples=1000, seed=derive(seed, "battery", "warm"))
    p.calls = [_criterion_call(i, config, p.counters) for i in CRITERIA]
    return p


def battery_cases(scale: float = 1.0) -> dict:
    return {f"criterion_{i:02d}": {"samples": battery_samples(scale)} for i in CRITERIA}


WORKLOADS = ("spectra", "rejection", "cli", "battery")


def build_pass(workload: str, seed: int, tag, scale: float, workdir: Path) -> Pass:
    if workload == "cli":
        return cli_pass(seed, tag, scale, workdir)
    return {"spectra": spectra_pass, "rejection": rejection_pass,
            "battery": battery_pass}[workload](seed, tag, scale)


def build_warmup(workload: str, seed: int, scale: float, workdir: Path) -> Pass:
    if workload == "cli":
        return cli_warmup(seed, scale, workdir)
    return {"spectra": spectra_warmup, "rejection": rejection_warmup,
            "battery": battery_warmup}[workload](seed, scale)


def case_table(workload: str, scale: float) -> dict:
    return {"spectra": spectra_cases, "rejection": rejection_cases, "cli": cli_cases,
            "battery": battery_cases}[workload](scale)
