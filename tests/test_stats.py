import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import (
    Bures,
    Induced,
    ProductDirichlet,
    RandomStream,
    Spectrum,
    entropy,
    hilbert_schmidt,
    ks_test,
    mc_estimate,
    n2_entanglement,
    participation_ratio,
    purity_functionals,
    sample_spectra,
    ternary_histogram,
    two_sample_ks,
)
from qmeasure import ensembles
from qmeasure.analytics import radial_density_n2
from qmeasure.errors import DimensionMismatch, InsufficientData
from qmeasure.stats import chi2_test, spectrum_functional

from oracles import numeric_cdf


# ---------------------------------------------------------------- mc_estimate

def test_mc_estimate_deterministic():
    a = mc_estimate(hilbert_schmidt(2), "entropy", 500, workers=2, seed=4)
    b = mc_estimate(hilbert_schmidt(2), "entropy", 500, workers=2, seed=4)
    assert (a.mean, a.stderr, a.count) == (b.mean, b.stderr, b.count)


def test_mc_estimate_workers_repartition_streams():
    a = mc_estimate(hilbert_schmidt(2), "purity", 600, workers=2, seed=4)
    b = mc_estimate(hilbert_schmidt(2), "purity", 600, workers=3, seed=4)
    assert a.mean != b.mean


def test_mc_estimate_threads_share_the_finish_pool(monkeypatch):
    # more estimate threads than CPUs race to create the pool and queue
    # 1-row-minimum slices on it while the interpreter switches threads as
    # often as it can; a lost or misplaced slice would change the estimate
    monkeypatch.setattr(ensembles, "_SLICE_ENTRIES", 16)
    monkeypatch.setattr(ensembles, "_THREADS", 3)
    monkeypatch.setattr(ensembles, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = mc_estimate(hilbert_schmidt(4), "entropy", 6000, workers=8, seed=9)
    finally:
        sys.setswitchinterval(interval)
        if ensembles._pool is not None:
            ensembles._pool.shutdown()
    monkeypatch.setattr(ensembles, "_THREADS", 1)
    assert pooled == mc_estimate(hilbert_schmidt(4), "entropy", 6000, workers=8, seed=9)


def test_mc_estimate_hits_reference():
    est = mc_estimate(hilbert_schmidt(2), "entropy", 20000, seed=1)
    assert abs(est.mean - 1.0 / 3.0) <= 3 * est.stderr
    est = mc_estimate(Induced(3, 3, 2), "purity", 20000, seed=2)
    assert abs(est.mean - 0.6) <= 3 * est.stderr


def test_mc_estimate_trace_power():
    est = mc_estimate(hilbert_schmidt(2), "trace_power", 20000, seed=3, nu=3)
    assert est.functional == "trace_power(3)"
    assert abs(est.mean - 0.7) <= 3 * est.stderr


def test_mc_estimate_stderr_scaling():
    small = mc_estimate(hilbert_schmidt(2), "entropy", 2000, seed=5)
    large = mc_estimate(hilbert_schmidt(2), "entropy", 20000, seed=5)
    ratio = small.stderr / large.stderr
    assert abs(ratio - np.sqrt(10.0)) <= 0.2 * np.sqrt(10.0)


def test_mc_estimate_minimum_samples():
    with pytest.raises(InsufficientData):
        mc_estimate(hilbert_schmidt(2), "entropy", 50)


def test_participation_labels():
    inv = mc_estimate(ProductDirichlet(2, 1.0), "participation", 20000, seed=6)
    pur = mc_estimate(ProductDirichlet(2, 1.0), "purity", 20000, seed=6)
    ratio = participation_ratio(pur)
    assert ratio.functional == "participation_ratio"
    assert ratio.mean == pytest.approx(1.0 / pur.mean)
    assert ratio.stderr == pytest.approx(pur.stderr / pur.mean**2)
    # Jensen: mean inverse purity exceeds inverse mean purity
    assert inv.mean > ratio.mean
    with pytest.raises(ValueError):
        participation_ratio(inv)


def test_trace_power_refuses_zero_eigenvalues_below_nu_0():
    # a negative power of an exact 0 is infinite: refused without a warning;
    # nu >= 0 still evaluates such rows
    spectra = np.array([[0.5, 0.5, 0.0], [0.5, 0.3, 0.2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="infinite on 1 of 2 sampled spectra"):
            spectrum_functional(spectra, "trace_power", -0.5)
        assert spectrum_functional(spectra, "trace_power", 0.0).tolist() == [3.0, 3.0]
    assert np.all(np.isfinite(spectrum_functional(spectra[1:], "trace_power", -0.5)))


def test_spectrum_functional_validation():
    spectra = sample_spectra(Induced(3, 3, 2), 100, RandomStream(0, 0))
    with pytest.raises(DimensionMismatch):
        spectrum_functional(spectra, "tangle")
    with pytest.raises(ValueError):
        spectrum_functional(spectra, "trace_power")
    with pytest.raises(ValueError):
        spectrum_functional(spectra, "median")


def _bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


@pytest.mark.parametrize("measure", [Induced(2, 2), Induced(5, 5), Induced(12, 12), Bures(3),
                                     ProductDirichlet(4, 0.5)], ids=repr)
def test_single_spectrum_functionals_are_batch_rows(measure):
    spectra = sample_spectra(measure, 500, RandomStream(23, 0))
    batch = {f: spectrum_functional(spectra, f)
             for f in ("entropy", "purity", "participation")}
    if measure.n == 2:
        batch.update((f, spectrum_functional(spectra, f)) for f in ("tangle", "concurrence"))
    for i, row in enumerate(spectra):
        s = Spectrum(row)
        assert _bits(entropy(s)) == _bits(batch["entropy"][i])
        purity, participation = purity_functionals(s)
        assert _bits(purity) == _bits(batch["purity"][i])
        assert _bits(participation) == _bits(batch["participation"][i])
        if measure.n == 2:
            e = n2_entanglement(s)
            assert _bits(e.tangle) == _bits(batch["tangle"][i])
            assert _bits(e.concurrence) == _bits(batch["concurrence"][i])


def test_entropy_of_exact_zeros_is_zero():
    # 0 ln 0 = 0: a pure Bures(2) row and the zero padding of k < n rows
    pure = np.array([[1.0, 0.0], [1.0, -0.0], [0.5, 0.5]])
    assert spectrum_functional(pure, "entropy").tolist() == [0.0, 0.0, np.log(2.0)]
    assert entropy(Spectrum([1.0, 0.0])) == 0.0
    padded = sample_spectra(Induced(4, 2), 2000, RandomStream(24, 0))
    assert np.all(padded[:, 2:] == 0.0)
    ent = spectrum_functional(padded, "entropy")
    assert np.array_equal(ent, spectrum_functional(np.ascontiguousarray(padded[:, :2]),
                                                   "entropy"))
    assert np.all((ent >= 0.0) & (ent <= np.log(2.0)))


def test_entropy_special_values_follow_xlogy():
    from scipy.special import xlogy

    from qmeasure.stats import _xlogx

    x = np.array([[0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1.0, 3.0],
                  [np.nan, -1.0, -5e-324, np.inf, -np.inf, 1e300, 0.25, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ours = _xlogx(x)
        rows = spectrum_functional(x, "entropy")
    assert caught == []  # negative entries give NaN silently, as in xlogy
    ref = xlogy(x, x)
    assert np.array_equal(np.isnan(ours), np.isnan(ref))
    assert np.array_equal(ours[~np.isnan(ref)], ref[~np.isnan(ref)])
    assert np.isnan(rows).tolist() == [False, True]
    assert rows[0] == -np.sum(ref[0])
    # a row of zeros of either sign has the entropy -(+0.0), as with xlogy
    for zeros in ([[0.0, -0.0], [-0.0, -0.0]], [[-0.0] * 8, [0.0] * 8]):
        ent = spectrum_functional(np.array(zeros), "entropy")
        assert ent.tobytes() == np.full(2, -0.0).tobytes()


@pytest.mark.parametrize("measure", [Induced(2, 2), Induced(3, 3), Induced(4, 4),
                                     Induced(8, 8), Bures(3), ProductDirichlet(3, 0.5)],
                         ids=repr)
def test_entropy_within_4_ulps_of_xlogy(measure):
    # numpy's vectorised log and the C library's log (which xlogy calls) may
    # round the last bit differently, so rows may differ by a few ulps
    from scipy.special import xlogy

    spectra = sample_spectra(measure, 100_000, RandomStream(25, 0))
    ref = -np.sum(xlogy(spectra, spectra), axis=1)
    ours = spectrum_functional(spectra, "entropy")
    assert np.all(np.abs(ours - ref) <= 4 * np.spacing(np.abs(ref)))


# ------------------------------------------------------------------- ternary

def test_ternary_center_mass():
    spectra = np.tile([1 / 3, 1 / 3, 1 / 3], (50, 1))
    hist = ternary_histogram(spectra, 2)
    # at resolution 2 the middle (downward) cell is (0, 1)
    assert hist.counts[0, 1] == 50 and hist.total() == 50


def test_ternary_corner_mass():
    hist = ternary_histogram(np.tile([1.0, 0.0, 0.0], (7, 1)), 4)
    assert hist.counts[3, 0] == 7


def test_ternary_cell_count():
    hist = ternary_histogram(np.tile([0.5, 0.3, 0.2], (3, 1)), 5)
    assert sum(1 for _ in hist.cells()) == 25


def test_ternary_permutation_symmetry():
    rng = np.random.default_rng(2)
    g = rng.gamma(1.0, size=(5000, 3))
    spectra = g / g.sum(axis=1, keepdims=True)
    base = sorted(c for _, _, c in ternary_histogram(spectra, 4).cells())
    for perm in ([0, 2, 1], [1, 0, 2], [2, 1, 0], [1, 2, 0], [2, 0, 1]):
        permuted = sorted(c for _, _, c in ternary_histogram(spectra[:, perm], 4).cells())
        assert permuted == base


def test_ternary_induced_concentrates_with_k():
    m = 20000
    near = sample_spectra(Induced(3, 3, 2), m, RandomStream(3, 0))
    far = sample_spectra(Induced(3, 6, 2), m, RandomStream(3, 1))
    # resolution 2: cell (0, 1) holds every spectrum with all entries < 1/2
    center_33 = ternary_histogram(near, 2).counts[0, 1]
    center_36 = ternary_histogram(far, 2).counts[0, 1]
    assert center_36 > center_33


def test_ternary_validation():
    with pytest.raises(DimensionMismatch):
        ternary_histogram(np.ones((4, 2)) / 2, 3)


@pytest.mark.parametrize("row", [
    [-0.5, 0.5, 1.0],          # negative entry
    [0.9, 0.9, 0.0],           # sums to 1.8
    [np.nan, 0.5, 0.5],        # not finite
    [np.inf, 0.0, 0.0],        # not finite
], ids=["negative", "sum_off_one", "nan", "inf"])
def test_ternary_rejects_rows_off_the_simplex(row):
    spectra = np.array([[0.2, 0.3, 0.5], row])
    with pytest.raises(ValueError):
        ternary_histogram(spectra, 4)


def _ternary_cell(a: float, b: float, c: float, resolution: int) -> tuple[int, int]:
    """Reference: the per-row cell rule the vectorised histogram replaced."""
    r = resolution
    i = min(int(a * r), r - 1)
    j = min(int(b * r), r - 1)
    k = min(int(c * r), r - 1)
    # Lattice points make the floors sum to r; push such boundary ties down to
    # the lower-index (upward) cell deterministically.
    if i + j + k == r:
        if k > 0:
            k -= 1
        elif j > 0:
            j -= 1
        else:
            i -= 1
    if i + j + k == r - 1:
        return i, 2 * j  # upward triangle
    return i, 2 * j + 1  # downward triangle


def _ternary_counts_loop(spectra, resolution: int) -> np.ndarray:
    counts = np.zeros((resolution, 2 * resolution - 1), dtype=np.int64)
    for a, b, c in spectra:
        i, j = _ternary_cell(a, b, c, resolution)
        counts[i, j] += 1
    return counts


@settings(deadline=None, max_examples=60)
@given(
    resolution=st.integers(1, 64),
    alpha=st.sampled_from([0.1, 1.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_ternary_matches_loop_oracle(resolution, alpha, seed):
    r = resolution
    dirichlet = np.random.default_rng(seed).dirichlet([alpha] * 3, size=300)
    # lattice points of the histogram's own grid hit every tie-break branch
    lattice = np.array([(i / r, j / r, (r - i - j) / r)
                        for i in range(r + 1) for j in range(r + 1 - i)])
    for rows in (dirichlet, lattice):
        for perm in itertools.permutations(range(3)):
            permuted = rows[:, list(perm)]
            hist = ternary_histogram(permuted, r)
            assert np.array_equal(hist.counts, _ternary_counts_loop(permuted, r))
            assert sum(c for _, _, c in hist.cells()) == len(rows)


# ----------------------------------------------------------------- gof tests

def test_ks_self_consistency():
    rng = np.random.default_rng(4)
    rejections = sum(
        ks_test(rng.random(500), lambda x: x).p_value < 0.01 for _ in range(500)
    )
    # binomial(500, 0.01): mean 5, four sigma is about +-9
    assert rejections <= 14


def test_ks_detects_gross_mismatch():
    rng = np.random.default_rng(5)
    samples = rng.random(10000) * 0.5
    result = ks_test(samples, lambda r: 8.0 * np.asarray(r) ** 3)
    assert result.p_value < 1e-6


def test_two_sample_ks_identical_input():
    x = np.linspace(0.0, 1.0, 100)
    result = two_sample_ks(x, x)
    assert result.statistic == 0.0 and result.p_value == pytest.approx(1.0)


def test_ks_needs_samples():
    with pytest.raises(InsufficientData):
        ks_test([0.5] * 10, lambda x: x)
    with pytest.raises(InsufficientData):
        two_sample_ks([0.5] * 10, [0.5] * 30)


def test_chi2_self_consistency():
    rng = np.random.default_rng(6)
    observed = rng.multinomial(10000, np.full(10, 0.1))
    result = chi2_test(observed, np.full(10, 1000.0))
    assert result.p_value > 0.01 and result.dof == 9


def test_chi2_requires_expected_counts():
    with pytest.raises(InsufficientData):
        chi2_test([10, 10], [1.0, 19.0])
    with pytest.raises(DimensionMismatch):
        chi2_test([1, 2, 3], [1, 2])


# ---------------------------------------------------------------- numeric cdf

def test_numeric_cdf_parabola():
    cdf = numeric_cdf(lambda r: 24.0 * r * r, 0.0, 0.5)
    assert float(cdf(0.5)) == pytest.approx(1.0, abs=1e-8)
    assert float(cdf(0.25)) == pytest.approx(1.0 / 8.0, abs=1e-8)
    assert float(cdf(0.0)) == pytest.approx(0.0, abs=1e-12)


def test_numeric_cdf_bures_singular_endpoint():
    cdf = numeric_cdf(lambda r: radial_density_n2(r, *Bures(2).radial_law()), 0.0, 0.5)
    assert float(cdf(0.5)) == pytest.approx(1.0, abs=1e-6)
    grid = np.linspace(0.0, 0.5, 200)
    vals = cdf(grid)
    assert np.all(np.diff(vals) >= -1e-12)


def test_numeric_cdf_rejects_unnormalized():
    with pytest.raises(ValueError, match="density mass"):
        numeric_cdf(lambda x: 1.0, 0.0, 2.0)


def _fresh_python(code: str, *args: str) -> str:
    """stdout of ``code`` run with ``args`` in a new interpreter that imports
    this package's sources."""
    import os
    import subprocess

    import qmeasure

    src = os.path.dirname(os.path.dirname(qmeasure.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    return done.stdout.strip()


# prints [step, exit code, scipy modules loaded after the step] per step
_SCIPY_AFTER_EACH_STEP = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = []
import qmeasure
steps.append(["import qmeasure", 0, scipy_modules()])
from qmeasure import cli
steps.append(["import qmeasure.cli", 0, scipy_modules()])
for argv in (
    ["sample", "--measure", "hs", "--n", "3", "--samples", "5"],
    ["sample", "--measure", "induced", "--n", "3", "--k", "6", "--samples", "5", "--matrices"],
    ["sample", "--measure", "bures", "--n", "2", "--samples", "5", "--matrices"],
    ["ternary", "--measure", "induced", "--n", "3", "--k", "6", "--samples", "50"],
    ["estimate", "--measure", "product", "--n", "3", "--s", "1", "--functional", "entropy",
     "--samples", "200"],
    ["estimate", "--measure", "product", "--n", "3", "--s", "1", "--functional", "trace_power",
     "--nu=-1e308"],
    ["estimate", "--measure", "bures", "--n", "3", "--functional", "trace_power", "--nu=-0.7"],
    ["estimate", "--measure", "hs", "--n", "4", "--functional", "entropy", "--samples", "200"],
    ["estimate", "--measure", "hs", "--n", "3", "--functional", "trace_power", "--nu", "0.5",
     "--samples", "200"],
    ["density", "--measure", "induced", "--n", "2", "--k", "5"],
):
    code = cli.main(argv + ["--out", sys.argv[1]])
    steps.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(steps))
"""


def test_import_loads_no_quadrature(tmp_path):
    import json

    steps = json.loads(_fresh_python(_SCIPY_AFTER_EACH_STEP, str(tmp_path / "out.txt")))
    # the two divergent moments are refused, without sampling or scipy; the
    # closed forms of the HS(4) entropy, the nu = 0.5 moment and the radial
    # density run on numpy and the stdlib
    assert [code for _, code, _ in steps] == [0] * 7 + [2, 2, 0, 0, 0]
    for name, _, modules in steps:
        assert modules == [], name


# runs the battery's quadrature and moment criteria and prints the scipy
# subpackages then loaded
_BATTERY_CRITERIA_8_9 = """
import json, sys
from qmeasure.verify import BatteryConfig, run_criterion
passed = [run_criterion(i, BatteryConfig()).passed for i in (8, 9)]
print(json.dumps([passed, sorted({".".join(m.split(".")[:2]) for m in sys.modules
                                 if m.startswith("scipy.")})]))
"""


def test_battery_quadrature_and_moments_load_no_integrate_or_linalg():
    import json

    passed, subpackages = json.loads(_fresh_python(_BATTERY_CRITERIA_8_9))
    assert passed == [True, True]
    assert not {"scipy.integrate", "scipy.optimize", "scipy.linalg"} & set(subpackages)


# samples spectra and matrices under every measure kind, evaluates every
# functional, runs the entropy estimate with 1 and 2 workers, and prints the
# estimates' bits and the scipy modules then loaded
_NUMPY_ONLY_PATHS = """
import json, sys
from qmeasure import (Bures, Induced, ProductDirichlet, RandomStream, hilbert_schmidt,
                      mc_estimate, sample_matrices, sample_spectra)
from qmeasure.stats import spectrum_functional

for measure in (Induced(2, 2), Induced(3, 5, 1), Induced(2, 3, 4), Bures(2), Bures(3),
                ProductDirichlet(2, 0.5)):
    spectra = sample_spectra(measure, 50, RandomStream(1, 0))
    for functional in ("entropy", "purity", "participation", "tangle", "concurrence"):
        if measure.n == 2 or functional not in ("tangle", "concurrence"):
            spectrum_functional(spectra, functional)
    spectrum_functional(spectra, "trace_power", 1.5)
    if measure != Induced(2, 3, 4):
        sample_matrices(measure, 5, RandomStream(1, 1))
ests = [mc_estimate(hilbert_schmidt(4), "entropy", 2000, workers=w, seed=7) for w in (1, 2)]
print(json.dumps([[e.mean.hex(), e.stderr.hex(), e.count] for e in ests]
                 + [sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))
"""


def test_sampling_and_entropy_estimates_load_no_scipy():
    import json

    *fresh, modules = json.loads(_fresh_python(_NUMPY_ONLY_PATHS))
    assert modules == []
    for (mean, stderr, count), workers in zip(fresh, (1, 2)):
        est = mc_estimate(hilbert_schmidt(4), "entropy", 2000, workers=workers, seed=7)
        assert [mean, stderr, count] == [est.mean.hex(), est.stderr.hex(), est.count]
