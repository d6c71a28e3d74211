"""Command-line interface: sampling dumps, Monte Carlo estimates, density
tabulation, ternary histograms and the verification battery.

Every command is deterministic given its full configuration including the
seed (flag ``--seed``, falling back to the QMEASURE_SEED environment variable)
and, for estimates, the worker count. CSV output uses '.' decimals, LF line
endings and UTF-8; JSON numbers carry 17 significant digits so they
round-trip exactly.

The defaults ``DEFAULT_SEED``, ``DEFAULT_SAMPLES`` and ``QUICK_SAMPLES`` come
from :mod:`qmeasure.stats`. What depends on the measure comes from its spec:
the JSON record (``to_json``), the exact value (``exact_mean``), the N = 2
radial law that ``density`` tabulates (``radial_law``) and the exponents at
which ``trace_power`` is finite (``moment_domain``); ``estimate`` refuses any
other exponent before it samples. The closed forms of :mod:`qmeasure.analytics`
run on numpy and the stdlib, so ``sample``, ``ternary``, ``estimate`` and
``density`` load no scipy module; only ``verify``, imported by its command,
does. ``main`` builds its argument parser once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import analytics
from .ensembles import (
    Bures,
    Induced,
    MeasureSpec,
    ProductDirichlet,
    RandomStream,
    sample_matrices,
    sample_spectra,
)
from .errors import QMeasureError
from .stats import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    QUICK_SAMPLES,
    mc_estimate,
    participation_ratio,
    ternary_histogram,
)

_ENV_SEED = "QMEASURE_SEED"


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _to_json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot write the non-finite number {value!r} as JSON")
        return _fmt_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        body = ", ".join(f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in value.items())
        return "{" + body + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_table(args, columns: list[str], rows: np.ndarray) -> None:
    """Write a (count, width) float or integer array as CSV (default) or as a
    JSON columns/rows object.

    All values go through one ``%`` format, ``%.17g`` for floats and ``%d``
    for integers, which gives the same bytes as formatting each value alone
    in a fraction of the time.
    """
    count, width = rows.shape
    spec = "%d" if rows.dtype.kind in "iu" else "%.17g"
    values = tuple(rows.ravel().tolist())
    if getattr(args, "format", "csv") == "json":
        bad = rows[~np.isfinite(rows)]
        if bad.size:
            _to_json(bad[0])  # raises the JSON writer's ValueError
        body = ", ".join(["[" + ", ".join([spec] * width) + "]"] * count) % values
        _write_text(args.out, f'{{"columns": {_to_json(columns)}, "rows": [{body}]}}\n')
    else:
        body = (",".join([spec] * width) + "\n") * count % values
        _write_text(args.out, ",".join(columns) + "\n" + body)


def _default_seed() -> int:
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_SEED} must be an integer, got {raw!r}") from None


def _build_measure(args) -> MeasureSpec:
    name = args.measure
    if name in ("induced", "hs"):
        n = args.n
        k = args.k if args.k is not None else n
        return Induced(n, k, args.beta)
    if name == "product":
        if args.s is None:
            raise ValueError("--measure product requires --s")
        return ProductDirichlet(args.n, args.s)
    if name == "bures":
        return Bures(args.n)
    raise ValueError(f"unknown measure {name!r}")


def _add_measure_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measure", required=True, choices=["induced", "hs", "product", "bures"])
    p.add_argument("--n", type=int, default=2, help="system dimension N")
    p.add_argument("--k", type=int, default=None, help="environment dimension K (induced)")
    p.add_argument("--beta", type=int, default=2, choices=[1, 2, 4], help="symmetry class")
    p.add_argument("--s", type=float, default=None, help="Dirichlet exponent (product)")


def _add_common_flags(p: argparse.ArgumentParser, with_format: bool = False) -> None:
    p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${_ENV_SEED} or {DEFAULT_SEED})")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")
    if with_format:
        p.add_argument("--format", choices=["csv", "json"], default="csv")


def cmd_sample(args) -> int:
    measure = _build_measure(args)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.matrices:
        mats = sample_matrices(measure, args.samples, RandomStream(seed, 0))
        # complex128 memory is already re/im interleaved in row-major order
        rows = mats.reshape(args.samples, -1).view(np.float64)
        _emit_table(args, _matrix_columns(measure.n), rows)
    else:
        spectra = sample_spectra(measure, args.samples, RandomStream(seed, 0))
        columns = [f"lambda_{i + 1}" for i in range(spectra.shape[1])]
        _emit_table(args, columns, spectra)
    return 0


def _matrix_columns(n: int) -> list[str]:
    cols = []
    for i in range(n):
        for j in range(n):
            cols.append(f"re_{i}_{j}")
            cols.append(f"im_{i}_{j}")
    return cols


def cmd_estimate(args) -> int:
    measure = _build_measure(args)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.functional == "trace_power" and args.nu is None:
        raise ValueError("--functional trace_power requires --nu")
    # before sampling, so a moment that is infinite or outside its closed
    # form's domain fails fast
    exact = measure.exact_mean(args.functional, args.nu)
    if args.functional == "trace_power" and not args.nu > measure.moment_domain():
        raise ValueError(f"need nu > {measure.moment_domain():g} for {measure}, got {args.nu}")
    if args.functional == "participation_ratio":
        est = participation_ratio(
            mc_estimate(measure, "purity", args.samples, args.workers, seed)
        )
    else:
        est = mc_estimate(measure, args.functional, args.samples, args.workers, seed,
                          nu=args.nu)
    z = (est.mean - exact) / est.stderr if exact is not None and est.stderr > 0 else None
    record = {
        "measure": measure.to_json(),
        "functional": est.functional,
        "mean": est.mean,
        "stderr": est.stderr,
        "count": est.count,
        "exact": exact,
        "z_score": z,
        "seed": seed,
        "workers": args.workers,
    }
    _write_text(args.out, _to_json(record) + "\n")
    return 0


def cmd_density(args) -> int:
    law = _build_measure(args).radial_law()
    if args.bins < 1:
        raise ValueError(f"need --bins >= 1, got {args.bins}")
    grid = np.arange(args.bins) * (0.5 / args.bins)
    dens = analytics.radial_density_n2(grid, *law)
    _emit_table(args, ["r", "density"], np.column_stack([grid, dens]))
    return 0


def cmd_ternary(args) -> int:
    measure = _build_measure(args)
    if measure.n != 3:
        raise ValueError("ternary histograms require an N=3 measure")
    seed = args.seed if args.seed is not None else _default_seed()
    spectra = sample_spectra(measure, args.samples, RandomStream(seed, 0))
    # samplers sort eigenvalues as a convention; shuffle each row so the
    # histogram shows the permutation-symmetric law over the whole triangle
    perm = RandomStream(seed, 1).rng.permuted(
        np.tile(np.arange(3), (spectra.shape[0], 1)), axis=1
    )
    unordered = np.take_along_axis(spectra, perm, axis=1)
    hist = ternary_histogram(unordered, args.resolution)
    _emit_table(args, ["bin_i", "bin_j", "count"], np.array(list(hist.cells()), dtype=np.int64))
    return 0


def cmd_verify(args) -> int:
    from .verify import BatteryConfig, format_line, run_battery

    seed = args.seed if args.seed is not None else _default_seed()
    samples = args.samples if args.samples is not None else (
        QUICK_SAMPLES if args.quick else DEFAULT_SAMPLES
    )
    config = BatteryConfig(samples=samples, seed=seed, workers=args.workers)
    results = run_battery(config)
    for res in results:
        print(format_line(res))
    report = {
        "passed": all(r.passed for r in results),
        "samples": samples,
        "seed": seed,
        "workers": args.workers,
        "criteria": [
            {
                "index": r.index,
                "title": r.title,
                "passed": r.passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "details": c.details}
                    for c in r.checks
                ],
            }
            for r in results
        ],
    }
    if args.out != "-":
        _write_text(args.out, _to_json(report) + "\n")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeasure",
        description="Random density matrices under induced, product and Bures measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="dump sampled spectra (or full matrices)")
    _add_measure_flags(p)
    _add_common_flags(p, with_format=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--matrices", action="store_true",
                   help="dump full matrices (re/im interleaved, row-major)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="Monte Carlo estimate of a spectrum functional")
    _add_measure_flags(p)
    _add_common_flags(p)
    p.add_argument("--functional", required=True,
                   choices=["entropy", "purity", "participation", "participation_ratio",
                            "tangle", "concurrence", "trace_power"])
    p.add_argument("--nu", type=float, default=None, help="exponent for trace_power")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("density", help="tabulate an N=2 radial eigenvalue density")
    _add_measure_flags(p)
    _add_common_flags(p, with_format=True)
    p.add_argument("--bins", type=int, default=1000, help="grid points on [0, 1/2)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("ternary", help="ternary histogram of N=3 spectra")
    _add_measure_flags(p)
    _add_common_flags(p, with_format=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--resolution", type=int, default=24, help="bins per simplex edge")
    p.set_defaults(func=cmd_ternary)

    p = sub.add_parser("verify", help="run the acceptance battery")
    _add_common_flags(p)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--quick", action="store_true", help=f"use {QUICK_SAMPLES} samples")
    p.set_defaults(func=cmd_verify)

    return parser


# each add_argument queries the terminal size, so main builds its parser once
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QMeasureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
