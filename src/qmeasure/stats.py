"""Spectrum functionals, Monte Carlo estimation, ternary histograms and
goodness-of-fit tests. ``spectrum_functional`` defines each functional once;
``entropy``, ``purity_functionals`` and ``n2_entanglement`` evaluate it on one row.

``mc_estimate`` fans the requested sample count out over ``workers``
independent substreams, RandomStream(seed, worker_index), and merges the
partial sums in worker order, so results are bit-reproducible for a fixed
(seed, workers) pair. Changing ``workers`` repartitions the streams and
legitimately changes the estimate. The CPU count does not: each worker's
``sample_spectra`` call spreads its per-row linear algebra over every CPU
the process may run on through one shared pool, which the workers queue on
instead of oversubscribing the CPUs, and its output does not depend on how
many CPUs there are. Small induced spectra (n <= 4, calls of at least 2048
rows) skip the pool: their eigensolve runs on the worker's own thread. So
``workers`` >= 2 overlaps the workers' RNG draws and, at small n, part of
their eigensolves, but it is not a reliable speed-up (HS(4) entropy at
10^5 samples on 2 CPUs, medians of 15 alternating calls: 98-102 ms with 1
worker, 82-86 ms with 2); streams keyed on fixed-size blocks (ROADMAP item
7) would make it one.

The command-line defaults ``DEFAULT_SEED``, ``DEFAULT_SAMPLES`` and
``QUICK_SAMPLES`` live here; ``verify`` and ``cli`` read them from this module.
Sampling, every spectrum functional (the entropy included, through a numpy
x ln x kernel) and ``mc_estimate`` use numpy alone. Only the goodness-of-fit
p-values import scipy.special, inside the functions that need it, so
importing this module (and the package) loads numpy only.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import TRACE_TOL, Spectrum, _row_sums
from .ensembles import MeasureSpec, RandomStream, sample_spectra
from .errors import DimensionMismatch, InsufficientData

DEFAULT_SEED = 1
DEFAULT_SAMPLES = 100_000
QUICK_SAMPLES = 10_000


@dataclass(frozen=True)
class Estimate:
    """Sample mean with standard error for one functional under one measure."""

    mean: float
    stderr: float
    count: int
    functional: str
    measure: MeasureSpec | None


@dataclass(frozen=True)
class GofResult:
    """Goodness-of-fit outcome; dof is recorded for chi-square tests."""

    statistic: float
    p_value: float
    kind: str
    dof: int | None = None


@dataclass(frozen=True)
class TernaryHistogram:
    """Counts over the equilateral subdivision of the N=3 simplex.

    ``resolution`` triangles per edge gives resolution^2 equal-area cells.
    Cell (i, j) lives in the strip with floor(l1 * R) = i; even j are upward
    triangles with floor(l2 * R) = j/2, odd j the downward triangle below
    lattice row (j-1)/2.
    """

    resolution: int
    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())

    def cells(self):
        """Yield (i, j, count) over all resolution^2 cells."""
        r = self.resolution
        for i in range(r):
            for j in range(2 * (r - i) - 1):
                yield i, j, int(self.counts[i, j])


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x entry-wise as float64, with 0 ln 0 = 0 (a zero of either sign),
    NaN for NaN and negative entries, and inf for +inf: the values of scipy's
    ``xlogy(x, x)``, from numpy alone. numpy's vectorised ``log`` may round
    the last bit differently from the C library's ``log`` that ``xlogy``
    calls, so a row sum can differ from the ``xlogy`` one by an ulp or two."""
    out = np.zeros(x.shape)
    with np.errstate(invalid="ignore"):  # negative entries give NaN silently
        np.log(x, out=out, where=x != 0)
    out *= x
    return out


def spectrum_functional(spectra: np.ndarray, functional: str, nu: float | None = None) -> np.ndarray:
    """Vectorized evaluation of a named functional over (count, n) spectra."""
    if functional == "entropy":
        return -_row_sums(_xlogx(spectra))
    if functional == "purity":
        return _row_sums(spectra**2)
    if functional == "participation":
        return 1.0 / _row_sums(spectra**2)
    if functional in ("tangle", "concurrence"):
        if spectra.shape[1] != 2:
            raise DimensionMismatch(f"{functional} needs N=2 spectra")
        tangle = 4.0 * spectra[:, 0] * spectra[:, 1]
        return tangle if functional == "tangle" else np.sqrt(tangle)
    if functional == "trace_power":
        if nu is None:
            raise ValueError("trace_power needs the exponent nu")
        if nu < 0:
            # a finite moment of a spectrum law with no atom at 0, where
            # small eigenvalues underflowed to 0 in the sampler, would come
            # out infinite: refuse the sample instead
            zero = int(np.count_nonzero(np.any(spectra == 0, axis=1)))
            if zero:
                raise ValueError(f"Tr rho^nu at nu={nu:g} < 0 is infinite on {zero} of "
                                 f"{len(spectra)} sampled spectra, whose smallest eigenvalue "
                                 "underflowed to 0 in double precision")
        return _row_sums(spectra**nu)
    raise ValueError(f"unknown functional {functional!r}")


def entropy(s: Spectrum) -> float:
    """Von Neumann entropy -sum(lambda ln lambda) in nats, with 0 ln 0 = 0."""
    return float(spectrum_functional(s.values[None], "entropy")[0])


def purity_functionals(s: Spectrum) -> tuple[float, float]:
    """Return (purity, participation) = (sum lambda^2, 1 / sum lambda^2)."""
    p = float(spectrum_functional(s.values[None], "purity")[0])
    return p, 1.0 / p


class N2Entanglement(NamedTuple):
    r: float
    alpha: float
    tangle: float
    concurrence: float


def n2_entanglement(s: Spectrum) -> N2Entanglement:
    """Bloch radius, Schmidt angle, tangle and concurrence of a length-2 spectrum.

    r = (l1 - l2)/2 in [0, 1/2], alpha = arccos(sqrt(l1)) in [0, pi/4],
    tangle = 4 l1 l2 and concurrence = sqrt(tangle).
    """
    tangle = float(spectrum_functional(s.values[None], "tangle")[0])
    l1, l2 = s.values
    return N2Entanglement(
        r=0.5 * (l1 - l2),
        alpha=float(np.arccos(min(1.0, np.sqrt(l1)))),
        tangle=tangle,
        concurrence=float(np.sqrt(tangle)),
    )


def mc_estimate(
    measure: MeasureSpec,
    functional: str,
    samples: int,
    workers: int = 1,
    seed: int = 0,
    nu: float | None = None,
) -> Estimate:
    """Monte Carlo mean of a spectrum functional under ``measure``.

    ``participation`` averages the per-sample inverse purity <1/Tr rho^2>;
    the reported participation ratio R = 1/<Tr rho^2> is the separate,
    explicitly labeled quantity produced by :func:`participation_ratio`.
    """
    if samples < 100:
        raise InsufficientData(f"need at least 100 samples, got {samples}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    base, rem = divmod(samples, workers)
    counts = [base + (1 if i < rem else 0) for i in range(workers)]

    def run(worker: int) -> tuple[int, float, float]:
        m = counts[worker]
        if m == 0:
            return 0, 0.0, 0.0
        spectra = sample_spectra(measure, m, RandomStream(seed, worker))
        vals = spectrum_functional(spectra, functional, nu)
        return m, float(vals.sum()), float(np.dot(vals, vals))

    if workers == 1:
        partials = [run(0)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, range(workers)))

    total = sum(p[0] for p in partials)
    s1 = 0.0
    s2 = 0.0
    for _, a, b in partials:  # merge in worker order
        s1 += a
        s2 += b
    mean = s1 / total
    var = max(s2 - total * mean * mean, 0.0) / (total - 1)
    label = f"trace_power({nu:g})" if functional == "trace_power" else functional
    return Estimate(mean, float(np.sqrt(var / total)), total, label, measure)


def participation_ratio(purity_estimate: Estimate) -> Estimate:
    """R = 1/<Tr rho^2> with first-order error propagation from the purity
    estimate."""
    if not purity_estimate.functional.startswith("purity"):
        raise ValueError("participation_ratio expects a purity estimate")
    m = purity_estimate.mean
    return Estimate(
        mean=1.0 / m,
        stderr=purity_estimate.stderr / (m * m),
        count=purity_estimate.count,
        functional="participation_ratio",
        measure=purity_estimate.measure,
    )


def ternary_histogram(spectra, resolution: int) -> TernaryHistogram:
    """Histogram length-3 spectra over the barycentric triangle grid.

    Every row must be a point of the simplex: finite, nonnegative and
    summing to 1 within ``TRACE_TOL``; any other row raises ValueError.

    Cell rule, with R = ``resolution``: take the floors i, j, k of
    l1 R, l2 R, l3 R, each capped at R - 1. On a lattice line the floors sum
    to R; such a tie goes to the lower-index cell by decrementing k if
    k > 0, else j if j > 0, else i. The row then falls in strip i, column
    2j for the upward triangle (i + j + k = R - 1) and 2j + 1 for the
    downward one. The binning treats the three coordinates symmetrically,
    so permuting the components of every spectrum permutes cells without
    changing the count multiset.
    """
    if resolution < 1:
        raise ValueError(f"need resolution >= 1, got {resolution}")
    arr = np.asarray(spectra, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise DimensionMismatch(f"need (count, 3) spectra, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("spectra must be finite")
    if np.any(arr < 0):
        raise ValueError("spectra must be nonnegative")
    sums = _row_sums(arr)
    off = np.abs(sums - 1.0) > TRACE_TOL
    if np.any(off):
        raise ValueError(f"a spectrum sums to {sums[off][0]!r}, not 1")
    r = resolution
    i, j, k = np.minimum((arr * r).astype(np.int64), r - 1).T
    tie = i + j + k == r
    dk = tie & (k > 0)
    dj = tie & ~dk & (j > 0)
    k = k - dk
    j = j - dj
    i = i - (tie & ~dk & ~dj)
    col = 2 * j + (i + j + k != r - 1)
    counts = np.bincount(i * (2 * r - 1) + col, minlength=r * (2 * r - 1))
    return TernaryHistogram(resolution, counts.reshape(r, 2 * r - 1))


def _ks_p_value(statistic: float, effective_n: float) -> float:
    from scipy.special import kolmogorov

    en = np.sqrt(effective_n)
    return float(kolmogorov((en + 0.12 + 0.11 / en) * statistic))


def ks_test(samples, cdf: Callable[[float], float]) -> GofResult:
    """One-sample Kolmogorov-Smirnov test against a CDF callable, with the
    asymptotic (Kolmogorov distribution) p-value."""
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = x.size
    if n < 20:
        raise InsufficientData(f"KS test needs >= 20 samples, got {n}")
    try:
        f = np.asarray(cdf(x), dtype=np.float64)
        if f.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        f = np.asarray([cdf(v) for v in x], dtype=np.float64)
    grid = np.arange(1, n + 1) / n
    d = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))
    return GofResult(d, _ks_p_value(d, n), "ks")


def two_sample_ks(a, b) -> GofResult:
    """Two-sample KS test with the asymptotic p-value."""
    x = np.sort(np.asarray(a, dtype=np.float64).ravel())
    y = np.sort(np.asarray(b, dtype=np.float64).ravel())
    n1, n2 = x.size, y.size
    if min(n1, n2) < 20:
        raise InsufficientData("two-sample KS needs >= 20 samples per side")
    everything = np.concatenate([x, y])
    cdf1 = np.searchsorted(x, everything, side="right") / n1
    cdf2 = np.searchsorted(y, everything, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    return GofResult(d, _ks_p_value(d, n1 * n2 / (n1 + n2)), "two-sample-ks")


def chi2_test(observed, expected) -> GofResult:
    """Pearson chi-square test; expected counts are rescaled to the observed
    total and every expected bin must be at least 5."""
    from scipy.special import chdtrc

    obs = np.asarray(observed, dtype=np.float64).ravel()
    exp = np.asarray(expected, dtype=np.float64).ravel()
    if obs.size != exp.size:
        raise DimensionMismatch("observed and expected must have equal length")
    if obs.size < 2:
        raise InsufficientData("chi-square needs at least 2 bins")
    exp = exp * (obs.sum() / exp.sum())
    if np.any(exp < 5.0):
        raise InsufficientData("chi-square needs expected counts >= 5 in every bin")
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return GofResult(stat, float(chdtrc(dof, stat)), "chi-square", dof)

