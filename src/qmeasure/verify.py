"""Verification battery tying samplers to their analytic reference values.

Each criterion draws from its own substream family derived from the master
seed, so criteria are independent and the whole battery is reproducible for
a fixed (seed, workers) configuration. Monte Carlo gates use three-standard-
error bands (which widen automatically at smaller sample counts); KS and
chi-square gates use p > 0.01.

The deterministic criteria check the closed forms of :mod:`qmeasure.analytics`
themselves: criterion 8 integrates ``joint_eigenvalue_density`` with
Gauss-Legendre rules, and criterion 9 compares the moments with exact
fractions from the complex Wishart moment recursion. Only ``scipy.special``
is loaded, by the p-values and the radial CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analytics
from .ensembles import (
    Bures,
    Induced,
    ProductDirichlet,
    RandomStream,
    _pure_state_moduli,
    _purification_spectra,
    hilbert_schmidt,
    sample_spectra,
)
from .special import EULER_GAMMA
from .stats import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    QUICK_SAMPLES,
    chi2_test,
    ks_test,
    mc_estimate,
    spectrum_functional,
    ternary_histogram,
    two_sample_ks,
)


@dataclass(frozen=True)
class BatteryConfig:
    samples: int = DEFAULT_SAMPLES
    seed: int = DEFAULT_SEED
    workers: int = 1


@dataclass
class Check:
    name: str
    passed: bool
    details: dict


@dataclass
class CriterionResult:
    index: int
    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, **details):
        self.checks.append(Check(name, bool(passed), details))


def _crit_seed(config: BatteryConfig, index: int) -> int:
    return (config.seed * 1009 + index) % 2**64


def _stream(config: BatteryConfig, index: int, sub: int) -> RandomStream:
    # Direct draws use stream indices >= 1000 so they never collide with the
    # worker streams 0..workers-1 consumed by mc_estimate.
    return RandomStream(_crit_seed(config, index), 1000 + sub)


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def _zcheck(result: CriterionResult, name: str, mean: float, stderr: float, target: float):
    z = (mean - target) / stderr if stderr > 0 else math.inf
    ok = abs(mean - target) <= 3.0 * stderr
    result.add(name, ok, mean=mean, stderr=stderr, target=target, z=z)


def _radius(spectra: np.ndarray) -> np.ndarray:
    return 0.5 * (spectra[:, 0] - spectra[:, 1])


def criterion_1(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(1, "HS mean entropy, N=2")
    est = mc_estimate(hilbert_schmidt(2), "entropy", config.samples, config.workers,
                      _crit_seed(config, 1))
    _zcheck(res, "entropy vs 1/3", est.mean, est.stderr, 1.0 / 3.0)
    return res


def criterion_2(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(2, "induced purity formula (N+K)/(NK+1)")
    for sub, (n, k) in enumerate([(2, 2), (2, 4), (3, 3), (3, 6), (4, 4)]):
        spectra = sample_spectra(Induced(n, k, 2), config.samples, _stream(config, 2, sub))
        mean, stderr = _mean_stderr(spectrum_functional(spectra, "purity"))
        _zcheck(res, f"purity ({n},{k})", mean, stderr, analytics.purity_induced_exact(n, k))
    return res


def criterion_3(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(3, "higher HS moments, nu = 3 and 4")
    for sub, n in enumerate([2, 3, 4]):
        spectra = sample_spectra(hilbert_schmidt(n), config.samples, _stream(config, 3, sub))
        for nu in (3, 4):
            mean, stderr = _mean_stderr(spectrum_functional(spectra, "trace_power", nu))
            target = analytics.hs_moment_exact(n, nu)
            _zcheck(res, f"Tr rho^{nu}, N={n}", mean, stderr, target)
    return res


def criterion_4(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(4, "N=2 radial distributions")
    cases = [
        ("unitary", ProductDirichlet(2, 1.0)),
        ("orthogonal", ProductDirichlet(2, 0.5)),
        ("hs", Induced(2, 2, 2)),
        ("bures", Bures(2)),
    ] + [(f"induced K={k}", Induced(2, k, 2)) for k in (3, 4, 5)]
    for sub, (label, measure) in enumerate(cases):
        spectra = sample_spectra(measure, config.samples, _stream(config, 4, sub))
        a, b = measure.radial_law()
        gof = ks_test(_radius(spectra), lambda r: analytics.radial_cdf_n2(r, a, b))
        res.add(f"radius KS, {label}", gof.p_value > 0.01, p=gof.p_value, d=gof.statistic)
    return res


def criterion_5(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(5, "tangle and concurrence laws")
    hs = hilbert_schmidt(2)
    spectra = sample_spectra(hs, config.samples, _stream(config, 5, 0))
    tangle = spectrum_functional(spectra, "tangle")
    conc = np.sqrt(tangle)
    # the tangle is 1 - u and the concurrence (1 - u)^(1/2) for u = 4 r^2 of
    # the radial law, so their CDFs are 1 - I_{1 - t}(a, b) and 1 - I_{1 - c^2}(a, b)
    a, b = hs.radial_law()
    gof_t = ks_test(tangle, lambda t: 1.0 - analytics.radial_cdf_n2(np.sqrt(1.0 - t) / 2, a, b))
    res.add("tangle KS", gof_t.p_value > 0.01, p=gof_t.p_value, d=gof_t.statistic)
    gof_c = ks_test(conc, lambda c: 1.0 - analytics.radial_cdf_n2(np.sqrt(1.0 - c * c) / 2, a, b))
    res.add("concurrence KS", gof_c.p_value > 0.01, p=gof_c.p_value, d=gof_c.statistic)
    mean_t, err_t = _mean_stderr(tangle)
    _zcheck(res, "mean tangle vs 2/5", mean_t, err_t, hs.exact_mean("tangle"))
    mean_c, err_c = _mean_stderr(conc)
    _zcheck(res, "mean concurrence vs 3pi/16", mean_c, err_c, hs.exact_mean("concurrence"))
    cases = [("real K=3", Induced(2, 3, 1)), ("bures", Bures(2)),
             ("product s=0.3", ProductDirichlet(2, 0.3))]
    for sub, (label, measure) in enumerate(cases, start=1):
        tangle = spectrum_functional(
            sample_spectra(measure, config.samples, _stream(config, 5, sub)), "tangle")
        for name, values in (("tangle", tangle), ("concurrence", np.sqrt(tangle))):
            mean, stderr = _mean_stderr(values)
            _zcheck(res, f"mean {name}, {label}", mean, stderr, measure.exact_mean(name))
    return res


def criterion_6(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(6, "N=2 reference means; purity and entropy, Bures N=3..6 and "
                             "product (3, s=0.7)")
    cases = [
        ("unitary", ProductDirichlet(2, 1.0)),
        ("orthogonal", ProductDirichlet(2, 0.5)),
        ("bures", Bures(2)),
    ]
    for sub, (name, measure) in enumerate(cases):
        spectra = sample_spectra(measure, config.samples, _stream(config, 6, sub))
        mean_e, err_e = _mean_stderr(spectrum_functional(spectra, "entropy"))
        _zcheck(res, f"entropy, {name}", mean_e, err_e, measure.exact_mean("entropy"))
        mean_p, err_p = _mean_stderr(spectrum_functional(spectra, "purity"))
        ratio = 1.0 / mean_p
        ratio_err = err_p / (mean_p * mean_p)
        _zcheck(res, f"participation ratio, {name}", ratio, ratio_err,
                measure.exact_mean("participation_ratio"))
    more = [(f"Bures N={n}", Bures(n)) for n in range(3, 7)]
    more.append(("product (3, s=0.7)", ProductDirichlet(3, 0.7)))
    for sub, (name, measure) in enumerate(more, start=len(cases)):
        spectra = sample_spectra(measure, config.samples, _stream(config, 6, sub))
        mean, stderr = _mean_stderr(spectrum_functional(spectra, "purity"))
        _zcheck(res, f"purity, {name}", mean, stderr, measure.exact_mean("purity"))
        mean, stderr = _mean_stderr(spectrum_functional(spectra, "entropy"))
        _zcheck(res, f"entropy, {name}", mean, stderr, measure.exact_mean("entropy"))
    return res


def criterion_7(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(7, "bidiagonal engine vs purification route")
    for sub, (n, k) in enumerate([(2, 2), (3, 4)]):
        direct = sample_spectra(Induced(n, k, 2), config.samples, _stream(config, 7, 2 * sub))
        purified = _purification_spectra(n, k, config.samples,
                                         _stream(config, 7, 2 * sub + 1).rng)
        gof = two_sample_ks(direct[:, 0], purified[:, 0])
        res.add(f"lambda_max KS ({n},{k})", gof.p_value > 0.01, p=gof.p_value, d=gof.statistic)
    return res


def _simplex_mass_n2(density) -> float:
    """Integral of an N = 2 eigenvalue density over the simplex. With
    l = sin^2 t, dl = sin 2t dt, the endpoint singularities go (the Bures
    density becomes (4/pi) cos^2 2t), and a 64-node Gauss-Legendre rule on
    each side of the kink |cos 2t| at t = pi/4 sums it."""
    x, w = np.polynomial.legendre.leggauss(64)
    t = np.pi / 8 * np.concatenate([x + 1.0, x + 3.0])
    dens = [density([math.sin(s) ** 2, math.cos(s) ** 2]) for s in t]
    return float(np.pi / 8 * np.dot(np.tile(w, 2), dens * np.sin(2.0 * t)))


def _simplex_mass_33() -> float:
    """Integral of joint_eigenvalue_density at (3, 3, beta = 2) over the
    simplex. With l1 = u and l2 = (1 - u) v (Jacobian 1 - u), the degree-6
    polynomial density is integrated exactly by an 8 x 8 Gauss-Legendre rule."""
    x, w = np.polynomial.legendre.leggauss(8)
    u, v = np.meshgrid((x + 1.0) / 2, (x + 1.0) / 2, indexing="ij")
    l2 = (1.0 - u) * v
    dens = [analytics.joint_eigenvalue_density([a, b, 1.0 - a - b], 3, 3, 2)
            for a, b in zip(u.flat, l2.flat)]
    return float(np.dot((np.outer(w, w) / 4 * (1.0 - u)).ravel(), dens))


def criterion_8(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(8, "normalization constants vs quadrature")
    for k, beta in [(2, 2), (3, 2), (2, 1), (2, 4)]:
        mass = _simplex_mass_n2(lambda lam: analytics.joint_eigenvalue_density(lam, 2, k, beta))
        res.add(f"unit mass (2,{k},beta={beta})", abs(mass - 1.0) <= 1e-6, mass=mass)
    mass = _simplex_mass_n2(lambda lam: analytics.bures_joint_density(lam, 2)[1])
    res.add("unit mass Bures N=2", abs(mass - 1.0) <= 1e-6, mass=mass)
    mass33 = _simplex_mass_33()
    res.add("unit mass (3,3,beta=2)", abs(mass33 - 1.0) <= 1e-6, mass=mass33)
    const = analytics.bures_norm_constant(3)
    target = 35.0 / math.pi
    res.add("Bures N=3 constant vs 35/pi", abs(const - target) <= 1e-12 * target,
            constant=const, target=target)
    return res


def _wishart_moment(n: int, k: int, p: int) -> Fraction:
    """<Tr rho^p> under the induced measure, exactly: D(p) = E Tr W^p of the
    complex Wishart matrix W = G G^* (G n x k, E|g|^2 = 1) obeys
    (p + 2) D(p + 1) = (2p + 1)(n + k) D(p) + (p - 1)(p^2 - (n - k)^2) D(p - 1)
    with D(1) = nk, D(2) = nk(n + k) (Haagerup and Thorbjornsen, Expo. Math.
    21 (2003) 293), and Tr W, a Gamma(nk) variate independent of rho, has
    p-th moment nk (nk + 1) ... (nk + p - 1)."""
    prev, cur = Fraction(n * k), Fraction(n * k * (n + k))
    for q in range(2, p):
        prev, cur = cur, ((2 * q + 1) * (n + k) * cur
                          + (q - 1) * (q * q - (n - k) ** 2) * prev) / (q + 2)
    return (cur if p > 1 else prev) / math.prod(range(n * k, n * k + p))


def _ulps(value: float, exact: Fraction) -> float:
    return float(abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact))))


def criterion_9(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(9, "closed-form moments vs the Wishart moment recursion")
    worst = max(_ulps(analytics.hs_moment_exact(n, nu), _wishart_moment(n, n, nu))
                for n in range(2, 9) for nu in (2, 3, 4))
    res.add("agreement nu in {2,3,4}, N <= 8, within 4 ulps", worst <= 4.0, worst_ulps=worst)
    worst_tr = max(abs(analytics.induced_moment_exact(n, k, 1) - 1.0)
                   for n in range(1, 9) for k in range(1, 17))
    res.add("trace moment nu=1 equals 1, N <= 8, K <= 16", worst_tr == 0.0,
            worst_abs_diff=worst_tr)
    return res


def criterion_10(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(10, "entropy asymptotics ln N - 1/2")
    dims = (4, 8, 16, 32)
    gaps = [abs(analytics.hs_mean_entropy_exact(n) - (math.log(n) - 0.5)) for n in dims]
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    res.add("gap decreases over N=4..32", decreasing,
            **{f"gap_{n}": g for n, g in zip(dims, gaps)})
    res.add("gap at N=32 below 0.06", gaps[-1] < 0.06, gap=gaps[-1])
    mc_samples = min(config.samples, 10_000)
    spectra = sample_spectra(hilbert_schmidt(16), mc_samples, _stream(config, 10, 0))
    mean, stderr = _mean_stderr(spectrum_functional(spectra, "entropy"))
    _zcheck(res, "MC entropy N=16 vs exact", mean, stderr, analytics.hs_mean_entropy_exact(16))
    return res


def criterion_11(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(11, "Gaussian rescaling laws")
    rng = _stream(config, 11, 0).rng
    resolution = 8
    moduli = _pure_state_moduli(3, config.samples, rng)
    hist = ternary_histogram(moduli, resolution)
    observed = [c for _, _, c in hist.cells()]
    expected = np.full(resolution * resolution, config.samples / resolution**2)
    gof = chi2_test(observed, expected)
    res.add("simplex uniformity (ternary chi-square)", gof.p_value > 0.01,
            p=gof.p_value, statistic=gof.statistic, dof=gof.dof)

    z = rng.standard_normal((config.samples, 2))
    y_chi = z[:, 0] ** 2 / (z[:, 0] ** 2 + z[:, 1] ** 2)
    gof = ks_test(y_chi, lambda y: (2.0 / np.pi) * np.arcsin(np.sqrt(y)))
    res.add("chi^2_1 pair vs Dirichlet(1/2)", gof.p_value > 0.01, p=gof.p_value)

    u = rng.random((config.samples, 2))
    y_uni = u[:, 0] / (u[:, 0] + u[:, 1])
    gof = ks_test(y_uni, analytics.uniform_rescale_cdf_n2)
    res.add("uniform pair vs 1/(2(1-y)^2) law", gof.p_value > 0.01, p=gof.p_value)
    return res


def criterion_12(config: BatteryConfig) -> CriterionResult:
    res = CriterionResult(12, "pure-state mean entropy H_N - 1, N=64")
    moduli = _pure_state_moduli(64, config.samples, _stream(config, 12, 0).rng)
    mean, stderr = _mean_stderr(spectrum_functional(moduli, "entropy"))
    _zcheck(res, "entropy vs psi(65) - psi(2)", mean, stderr,
            analytics.pure_state_mean_entropy_exact(64))
    # the exact mean lies above the asymptote by O(1/N)
    gaps = [analytics.pure_state_mean_entropy_exact(n) - (math.log(n) - 1.0 + EULER_GAMMA)
            for n in (16, 32, 64)]
    res.add("exact mean approaches ln N - 1 + gamma, N = 16, 32, 64",
            all(0 < b < a for a, b in zip(gaps, gaps[1:])), gaps=gaps)
    return res


def criterion_13(config: BatteryConfig) -> CriterionResult:
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    res = CriterionResult(13, "sampling output is byte-deterministic")
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "a.csv", Path(tmp) / "b.csv"]
        for p in paths:
            code = cli_main([
                "sample", "--measure", "induced", "--n", "2", "--k", "2",
                "--samples", "200", "--seed", str(config.seed), "--out", str(p),
            ])
            if code != 0:
                res.add("cmd_sample runs", False, exit_code=code)
                return res
        same = paths[0].read_bytes() == paths[1].read_bytes()
    res.add("two runs byte-identical", same)
    return res


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
    11: criterion_11,
    12: criterion_12,
    13: criterion_13,
}


def run_criterion(index: int, config: BatteryConfig) -> CriterionResult:
    return CRITERIA[index](config)


def run_battery(config: BatteryConfig | None = None) -> list[CriterionResult]:
    config = config or BatteryConfig()
    return [run_criterion(i, config) for i in sorted(CRITERIA)]


def format_line(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    extra = ""
    if not result.passed:
        bad = [c.name for c in result.checks if not c.passed]
        extra = f" [{'; '.join(bad)}]"
    return f"criterion {result.index:02d} {status}  {result.title}{extra}"
