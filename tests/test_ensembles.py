import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import (
    BipartitePureState,
    Bures,
    HurwitzAngles,
    Induced,
    ProductDirichlet,
    RandomStream,
    bures_density_matrix,
    density_spectrum,
    gaussian_matrix,
    haar_unitary,
    induced_density_matrix,
    induced_via_purification,
    ks_test,
    partial_trace,
    product_measure_density_matrix,
    project_hs,
    pure_state_gaussian,
    pure_state_hurwitz,
    sample_matrices,
    sample_spectra,
    two_sample_ks,
)
from qmeasure import ensembles
from qmeasure.analytics import log_norm_constant, radial_cdf_n2
from qmeasure.core import EIGENVALUE_CLAMP, HERMITIAN_TOL, TRACE_TOL
from qmeasure.ensembles import (
    DIRICHLET_S_MIN,
    DIRICHLET_TOTAL_MAX,
    hurwitz_angles,
    _dirichlet_rows,
)
from qmeasure.stats import chi2_test

from oracles import numeric_cdf, product_matrix_draws


# ------------------------------------------------------------- random stream

def test_stream_determinism():
    a = gaussian_matrix(3, 3, 2, RandomStream(42, 0))
    b = gaussian_matrix(3, 3, 2, RandomStream(42, 0))
    assert np.array_equal(a, b)


def test_stream_independence():
    a = gaussian_matrix(3, 3, 2, RandomStream(42, 0))
    b = gaussian_matrix(3, 3, 2, RandomStream(42, 1))
    c = gaussian_matrix(3, 3, 2, RandomStream(43, 0))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_validates_range():
    with pytest.raises(ValueError):
        RandomStream(-1)


# ---------------------------------------------------------- gaussian matrices

def test_gaussian_moments_complex():
    a = gaussian_matrix(100, 1000, 2, RandomStream(1, 0))
    n = a.size
    # E a = 0 and E |a|^2 = 2 within 3 sigma over 1e5 draws
    assert abs(a.mean()) <= 3.0 * np.sqrt(2.0 / n)
    second = np.mean(np.abs(a) ** 2)
    assert abs(second - 2.0) <= 3.0 * np.sqrt(8.0 / n) + 0.01


def test_gaussian_moments_real():
    a = gaussian_matrix(1000, 100, 1, RandomStream(2, 0))
    assert np.all(a.imag == 0.0)
    var = np.mean(a.real**2)
    assert abs(var - 1.0) <= 3.0 * np.sqrt(2.0 / a.size) + 0.01


def test_gaussian_matrix_rejects_bad_shape():
    with pytest.raises(ValueError):
        gaussian_matrix(0, 2, 2, RandomStream(0))


# -------------------------------------------------------------- haar unitary

def test_haar_unitary_is_unitary():
    u = haar_unitary(3, RandomStream(5, 0))
    assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-10


def test_haar_phase_n1():
    s = RandomStream(6, 0)
    phases = np.array([haar_unitary(1, s)[0, 0] for _ in range(20000)])
    assert np.allclose(np.abs(phases), 1.0, atol=1e-12)
    # mean of a uniform phase tends to 0; each component has variance 1/2
    assert abs(phases.mean()) <= 3.0 / np.sqrt(2 * phases.size)


def test_haar_first_column_uniform_on_simplex():
    # P(|U_i1|^2 > x) = (1-x)^(n-1) for Haar U(n), so the marginal CDF of one
    # squared component is 1 - (1-x)^3 at n=4; chi-square against that law.
    s = RandomStream(7, 0)
    n = 4
    draws = np.array([np.abs(haar_unitary(n, s)[:, 0]) ** 2 for _ in range(8000)])
    first = draws[:, 0]
    edges = np.linspace(0.0, 1.0, 11)
    observed, _ = np.histogram(first, bins=edges)
    cdf = 1.0 - (1.0 - edges) ** (n - 1)
    expected = np.diff(cdf) * first.size
    result = chi2_test(observed, expected)
    assert result.p_value > 0.01


# --------------------------------------------------------------- pure states

def test_hurwitz_boundary_angle():
    # theta_1 = pi/2 kills the first amplitude entirely
    state = HurwitzAngles([np.pi / 2], [1.2]).state()
    assert state[0] == pytest.approx(0.0, abs=1e-15)
    assert state[1] == pytest.approx(np.exp(1.2j))


def test_hurwitz_xi_quarter_maps_to_pi_over_6():
    # xi = 1/4 at k=1: arcsin(sqrt(1/4)) = pi/6, so |psi_1|^2 = cos^2 = 3/4
    theta = np.arcsin((1.0 / 4.0) ** 0.5)
    assert theta == pytest.approx(np.pi / 6)
    state = HurwitzAngles([theta], [0.0]).state()
    assert abs(state[0]) ** 2 == pytest.approx(0.75)


def test_hurwitz_angles_ranges_and_norm():
    s = RandomStream(8, 0)
    for n in (2, 3, 5):
        ang = hurwitz_angles(n, s)
        assert ang.thetas.size == n - 1 and ang.phis.size == n - 1
        assert np.all((ang.thetas >= 0) & (ang.thetas <= np.pi / 2))
        assert np.all((ang.phis >= 0) & (ang.phis < 2 * np.pi))
        state = ang.state()
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


def test_hurwitz_matches_gaussian_construction():
    m = 30000
    s1, s2 = RandomStream(9, 0), RandomStream(9, 1)
    hur = np.array([np.abs(pure_state_hurwitz(4, s1)) ** 2 for _ in range(m)])
    gau = np.array([np.abs(pure_state_gaussian(4, s2)) ** 2 for _ in range(m)])
    assert two_sample_ks(hur[:, 0], gau[:, 0]).p_value > 0.01
    assert two_sample_ks(hur.max(axis=1), gau.max(axis=1)).p_value > 0.01


def test_pure_state_gaussian_m1():
    v = pure_state_gaussian(1, RandomStream(10, 0))
    assert abs(v[0]) == pytest.approx(1.0)


def test_pure_state_gaussian_simplex_uniform():
    from qmeasure.ensembles import _pure_state_moduli
    from qmeasure.stats import ternary_histogram

    moduli = _pure_state_moduli(3, 20000, RandomStream(11, 0).rng)
    hist = ternary_histogram(moduli, 6)
    observed = [c for _, _, c in hist.cells()]
    expected = np.full(36, 20000 / 36.0)
    assert chi2_test(observed, expected).p_value > 0.01


def test_pure_state_gaussian_two_level_uniform():
    s = RandomStream(12, 0)
    y = np.array([np.abs(pure_state_gaussian(2, s)[0]) ** 2 for _ in range(20000)])
    assert ks_test(y, lambda x: x).p_value > 0.01


# ---------------------------------------------------------- induced matrices

def _purity(values):
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(len(values)))


def test_induced_purity_2_2():
    spectra = sample_spectra(Induced(2, 2, 2), 20000, RandomStream(13, 0))
    mean, err = _purity((spectra**2).sum(axis=1))
    assert abs(mean - 0.8) <= 3 * err


def test_induced_purity_2_4():
    spectra = sample_spectra(Induced(2, 4, 2), 20000, RandomStream(14, 0))
    mean, err = _purity((spectra**2).sum(axis=1))
    assert abs(mean - 2.0 / 3.0) <= 3 * err


def test_induced_scalar_case():
    rho = induced_density_matrix(1, 1, 2, RandomStream(15, 0))
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    rho = induced_via_purification(1, 3, RandomStream(15, 1))
    assert rho.matrix[0, 0] == pytest.approx(1.0)


def test_induced_matches_purification_route():
    m = 20000
    direct = sample_spectra(Induced(2, 2, 2), m, RandomStream(16, 0))[:, 0]
    from qmeasure.ensembles import _purification_spectra

    purified = _purification_spectra(2, 2, m, RandomStream(16, 1).rng)[:, 0]
    assert two_sample_ks(direct, purified).p_value > 0.01


def test_single_draw_routes_agree_in_distribution():
    m = 4000
    s1, s2 = RandomStream(40, 0), RandomStream(40, 1)
    a = np.array(
        [density_spectrum(induced_density_matrix(2, 2, 2, s1)).values[0] for _ in range(m)]
    )
    b = np.array(
        [density_spectrum(induced_via_purification(2, 2, s2)).values[0] for _ in range(m)]
    )
    assert two_sample_ks(a, b).p_value > 0.01


def test_purification_shares_schmidt_spectrum():
    s = RandomStream(17, 0)
    psi = pure_state_gaussian(6, s).reshape(2, 3)
    state = BipartitePureState(psi)
    rho_a = partial_trace(state, "B")
    rho_b = partial_trace(state, "A")
    ev_a = np.sort(np.linalg.eigvalsh(rho_a.matrix))[::-1]
    ev_b = np.sort(np.linalg.eigvalsh(rho_b.matrix))[::-1]
    assert np.allclose(ev_a[:2], ev_b[:2], atol=1e-12)


def test_unitary_invariance_of_induced_spectra():
    m = 15000
    u = haar_unitary(2, RandomStream(18, 5))
    direct = sample_spectra(Induced(2, 2, 2), m, RandomStream(18, 0))[:, 0]
    # spectra of U rho U^dag for an independent batch, fixed U
    rotated = np.empty(m)
    stream = RandomStream(18, 1)
    for i in range(m):
        rho = induced_density_matrix(2, 2, 2, stream)
        rotated[i] = np.linalg.eigvalsh(u @ rho.matrix @ u.conj().T)[-1]
    assert two_sample_ks(direct, rotated).p_value > 0.01


# ------------------------------------------------------------------ dirichlet

def test_dirichlet_uniform_component():
    rows = _dirichlet_rows(2, 1.0, RandomStream(19, 0).rng, 20000)
    assert ks_test(rows[:, 0], lambda x: x).p_value > 0.01


def test_dirichlet_half_matches_chi1_construction():
    rows = _dirichlet_rows(2, 0.5, RandomStream(20, 0).rng, 20000)
    g = RandomStream(20, 1).rng.standard_normal((20000, 2))
    chi = g[:, 0] ** 2 / (g[:, 0] ** 2 + g[:, 1] ** 2)
    assert two_sample_ks(rows[:, 0], chi).p_value > 0.01


def test_dirichlet_large_s_concentrates():
    spec = sample_spectra(ProductDirichlet(4, 1e4), 1, RandomStream(21, 0))[0]
    assert np.all(np.abs(spec - 0.25) < 0.02)


def test_dirichlet_spectrum_is_sorted():
    spec = sample_spectra(ProductDirichlet(5, 1.0), 1, RandomStream(22, 0))[0]
    assert np.all(np.diff(spec) <= 0)
    assert spec.sum() == pytest.approx(1.0)


# ------------------------------------------------------------ product measure

def test_product_measure_purities():
    for s, target, seed in [(1.0, 2.0 / 3.0, 23), (0.5, 3.0 / 4.0, 24)]:
        spectra = sample_spectra(ProductDirichlet(2, s), 20000, RandomStream(seed, 0))
        mean, err = _purity((spectra**2).sum(axis=1))
        assert abs(mean - target) <= 3 * err


def test_product_measure_rotational_invariance():
    m = 4000
    stream = RandomStream(25, 0)
    diag = np.empty(m)
    diag_rot = np.empty(m)
    u = haar_unitary(2, RandomStream(25, 7))
    for i in range(m):
        rho = product_measure_density_matrix(2, 1.0, stream).matrix
        diag[i] = rho[0, 0].real
        diag_rot[i] = (u @ rho @ u.conj().T)[0, 0].real
    assert two_sample_ks(diag, diag_rot).p_value > 0.01


# --------------------------------------------------------------------- bures

def test_bures_radial_law():
    spectra = sample_spectra(Bures(2), 20000, RandomStream(26, 0))
    r = 0.5 * (spectra[:, 0] - spectra[:, 1])
    assert ks_test(r, lambda x: radial_cdf_n2(x, *Bures(2).radial_law())).p_value > 0.01


# the N = 2 radial laws that only a formula per measure tabulates, each with
# a wrong law the same samples must reject: the beta = 2 law at the same k,
# or the product law at 1.1 s
_NEW_RADIAL_LAWS = [
    (Induced(2, 2, 1), Induced(2, 2, 2)),
    (Induced(2, 3, 1), Induced(2, 3, 2)),
    (Induced(2, 2, 4), Induced(2, 2, 2)),
    (Induced(2, 3, 4), Induced(2, 3, 2)),
    (ProductDirichlet(2, 0.3), ProductDirichlet(2, 0.33)),
    (ProductDirichlet(2, 2.0), ProductDirichlet(2, 2.2)),
]


@pytest.mark.parametrize("stream,measure,wrong",
                         [(i, m, w) for i, (m, w) in enumerate(_NEW_RADIAL_LAWS)])
def test_radial_law_fits_samples(stream, measure, wrong):
    spectra = sample_spectra(measure, 20000, RandomStream(91, stream))
    r = 0.5 * (spectra[:, 0] - spectra[:, 1])
    assert ks_test(r, lambda x: radial_cdf_n2(x, *measure.radial_law())).p_value > 0.01
    assert ks_test(r, lambda x: radial_cdf_n2(x, *wrong.radial_law())).p_value < 0.01


def test_bures_density_matrix_moments():
    m = 20000
    spectra = sample_spectra(Bures(2), m, RandomStream(27, 0))
    purity = (spectra**2).sum(axis=1)
    mean, err = _purity(purity)
    assert abs(mean - 7.0 / 8.0) <= 3 * err
    from scipy.special import xlogy

    ent = -xlogy(spectra, spectra).sum(axis=1)
    mean_e, err_e = _purity(ent)
    assert abs(mean_e - (2 * np.log(2) - 7.0 / 6.0)) <= 3 * err_e


def test_bures_density_matrix_is_valid():
    rho = bures_density_matrix(3, RandomStream(28, 0))
    assert rho.dim == 3  # construction validates Hermiticity/trace/positivity


def test_bures_samples_at_any_dimension():
    for n, count in [(6, 200), (64, 20)]:
        _assert_valid_rows(sample_spectra(Bures(n), count, RandomStream(29, n)), count, n)
    assert sample_spectra(Bures(64), 1, RandomStream(29, 0)).shape == (1, 64)
    assert bures_density_matrix(64, RandomStream(29, 1)).dim == 64


def _bures_rejection_spectra(n, count, rng):
    # Dirichlet(1/2) proposals kept with probability
    # prod_{i<j} (l_i - l_j)^2 / (l_i + l_j) <= 1 leave the Bures law
    i, j = np.triu_indices(n, 1)
    kept, total = [], 0
    while total < count:
        g = rng.gamma(0.5, 1.0, size=(8192, n))
        lam = g / g.sum(axis=1, keepdims=True)
        acc = np.prod((lam[:, i] - lam[:, j]) ** 2 / (lam[:, i] + lam[:, j]), axis=1)
        kept.append(lam[rng.random(lam.shape[0]) < acc])
        total += kept[-1].shape[0]
    return -np.sort(-np.concatenate(kept)[:count], axis=1)


def test_bures_matches_dirichlet_rejection():
    m = 50000
    engine = sample_spectra(Bures(3), m, RandomStream(40, 0))
    oracle = _bures_rejection_spectra(3, m, RandomStream(40, 1).rng)
    assert two_sample_ks(engine[:, 0], oracle[:, 0]).p_value > 0.01
    assert two_sample_ks(engine[:, 2], oracle[:, 2]).p_value > 0.01


def test_bures_density_matrix_radial_law():
    stream = RandomStream(42, 0)
    ev = np.array([np.linalg.eigvalsh(bures_density_matrix(2, stream).matrix)
                   for _ in range(4000)])
    r = 0.5 * (ev[:, 1] - ev[:, 0])
    assert ks_test(r, lambda x: radial_cdf_n2(x, *Bures(2).radial_law())).p_value > 0.01


def test_bures_scalar():
    assert sample_spectra(Bures(1), 1, RandomStream(30, 0))[0, 0] == 1.0


# -------------------------------------------------------------- beta spectra

def test_beta2_sorted_marginal_law():
    # sorted lambda_1 of the N=K=2 unitary class has CDF (2x-1)^3 on [1/2, 1]
    stream = RandomStream(31, 0)
    lam = np.array([sample_spectra(Induced(2, 2, 2), 1, stream)[0, 0] for _ in range(8000)])
    assert ks_test(lam, lambda x: (2.0 * np.asarray(x) - 1.0) ** 3).p_value > 0.01


def test_beta1_marginal_law():
    # folded beta=1 density: 2 * C * (x(1-x))^(-1/2) |2x-1| with C = 1/2
    assert np.exp(log_norm_constant(2, 2, 1)) == pytest.approx(0.5, rel=1e-12)
    stream = RandomStream(32, 0)
    lam = np.array([sample_spectra(Induced(2, 2, 1), 1, stream)[0, 0] for _ in range(8000)])
    cdf = numeric_cdf(lambda x: (x * (1.0 - x)) ** -0.5 * abs(2.0 * x - 1.0), 0.5, 1.0)
    assert ks_test(lam, cdf).p_value > 0.01
    # chi-square against the numerically normalized density, binned by CDF
    edges = np.linspace(0.5, 1.0, 13)
    observed, _ = np.histogram(lam, bins=edges)
    expected = np.diff(cdf(edges)) * lam.size
    assert chi2_test(observed, expected).p_value > 0.01


def test_beta4_marginal_law():
    spectra = sample_spectra(Induced(2, 2, 4), 6000, RandomStream(33, 0))
    c4 = np.exp(log_norm_constant(2, 2, 4))
    cdf = numeric_cdf(lambda x: 2.0 * c4 * (x * (1.0 - x)) * (2.0 * x - 1.0) ** 4, 0.5, 1.0)
    assert ks_test(spectra[:, 0], cdf).p_value > 0.01


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_beta_symmetry_in_n_and_k(beta):
    m = 15000
    wide = sample_spectra(Induced(2, 3, beta), m, RandomStream(34, 0))
    tall = sample_spectra(Induced(3, 2, beta), m, RandomStream(34, 1))
    assert np.allclose(tall[:, 2], 0.0, atol=1e-12)  # rank deficit
    assert two_sample_ks(wide[:, 0], tall[:, 0]).p_value > 0.01
    assert two_sample_ks(wide[:, 1], tall[:, 1]).p_value > 0.01


def _assert_valid_rows(spectra, count, n):
    assert spectra.shape == (count, n)
    assert np.all(np.diff(spectra, axis=1) <= 0)
    assert np.all(spectra >= 0)
    assert np.allclose(spectra.sum(axis=1), 1.0, rtol=0.0, atol=1e-10)


def test_beta4_samples_at_any_dimension():
    for n, count in [(5, 200), (64, 20)]:
        _assert_valid_rows(sample_spectra(Induced(n, n, 4), count, RandomStream(36, n)), count, n)
    assert sample_spectra(Induced(5, 5, 4), 1, RandomStream(36, 0)).shape == (1, 5)


def _quaternion_spectra(n, k, count, rng):
    # A = [[Z1, Z2], [-conj(Z2), conj(Z1)]] is the 2n x 2k complex form of an
    # n x k quaternion Gaussian matrix; A A^dag has every eigenvalue twice
    # (Kramers pairs), so every other one is the quaternion spectrum.
    z = rng.standard_normal((4, count, n, k))
    z1, z2 = z[0] + 1j * z[1], z[2] + 1j * z[3]
    a = np.block([[z1, z2], [-np.conj(z2), np.conj(z1)]])
    ev = np.linalg.eigvalsh(a @ np.conj(np.swapaxes(a, 1, 2)))[:, ::-2]
    ev = np.clip(ev, 0.0, None)
    return ev / ev.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n, k", [(3, 4), (4, 4)])
def test_beta4_matches_quaternion_construction(n, k):
    m = 10000
    engine = sample_spectra(Induced(n, k, 4), m, RandomStream(41, n))
    oracle = _quaternion_spectra(n, k, m, RandomStream(41, 100 + n).rng)
    for j in range(n):
        assert two_sample_ks(engine[:, j], oracle[:, j]).p_value > 0.01


# ---------------------------------------------------------------- rescaling

def test_rescaled_uniform_pair_law():
    # the larger rescaled component has CDF (2y-1)/y on [1/2, 1]
    u = RandomStream(37, 0).rng.random((20000, 2))
    y = np.max(u, axis=1) / u.sum(axis=1)
    assert ks_test(y, lambda t: (2.0 * np.asarray(t) - 1.0) / np.asarray(t)).p_value > 0.01


# ------------------------------------------------------------- batch engine

def test_sample_spectra_determinism_and_validity():
    a = sample_spectra(Induced(3, 4, 2), 500, RandomStream(38, 0))
    b = sample_spectra(Induced(3, 4, 2), 500, RandomStream(38, 0))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a, axis=1) <= 0)
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(a >= 0)


def test_sample_spectra_all_measures():
    for measure in [Induced(2, 2, 1), Induced(2, 3, 4), ProductDirichlet(3, 0.7), Bures(3)]:
        spectra = sample_spectra(measure, 50, RandomStream(39, 0))
        assert spectra.shape == (50, measure.n)
        assert np.allclose(spectra.sum(axis=1), 1.0, atol=1e-10)


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        Induced(0, 2)
    with pytest.raises(ValueError):
        Induced(2, 2, 5)
    with pytest.raises(ValueError):
        ProductDirichlet(2, 0.0)
    # inf gave NaN rows; below DIRICHLET_S_MIN the all-underflow redraw takes
    # over (at 1e-300 it never ends); past DIRICHLET_TOTAL_MAX / n the Gamma
    # total overflows
    for s in (np.inf, np.nan, 1e-300, 0.99 * DIRICHLET_S_MIN, DIRICHLET_TOTAL_MAX):
        with pytest.raises(ValueError):
            ProductDirichlet(2, s)
    ProductDirichlet(1, DIRICHLET_TOTAL_MAX)
    spectra = sample_spectra(ProductDirichlet(2, DIRICHLET_S_MIN), 1000, RandomStream(3, 0))
    _assert_valid_rows(spectra, 1000, 2)
    with pytest.raises(ValueError):
        Bures(0)


@settings(deadline=None)
@given(
    n=st.integers(1, 8),
    k=st.integers(1, 10),
    beta=st.sampled_from([1, 2, 4]),
    count=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_induced_rows_are_spectra(n, k, beta, count, seed):
    spectra = sample_spectra(Induced(n, k, beta), count, RandomStream(seed, 0))
    _assert_valid_rows(spectra, count, n)
    if k < n:
        assert np.all(spectra[:, k:] == 0.0)


@settings(deadline=None)
@given(
    n=st.integers(1, 8),
    count=st.integers(1, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_bures_rows_are_spectra(n, count, seed):
    _assert_valid_rows(sample_spectra(Bures(n), count, RandomStream(seed, 0)), count, n)


_SORT_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.25, 0.5, 1.0, np.inf]),
    st.floats(min_value=0.0, allow_nan=False, allow_subnormal=True),
)


@settings(deadline=None, max_examples=200)
@given(
    n=st.integers(1, 8),
    data=st.data(),
)
def test_sort_rows_descending_matches_np_sort(n, data):
    # ties, zeros and subnormals: the compare-exchange network (rows up to
    # _SORT_NETWORK_WIDTH wide) and np.sort give the same bytes
    count = data.draw(st.integers(1, 20))
    rows = data.draw(st.lists(st.lists(_SORT_VALUES, min_size=n, max_size=n),
                              min_size=count, max_size=count))
    x = np.array(rows, dtype=np.float64).reshape(count, n)
    x[x == 0.0] = 0.0  # the network's contract excludes -0.0
    expected = -np.sort(-x, axis=1)
    assert ensembles._sort_rows_descending(x.copy()).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_product_spectra_are_sorted_dirichlet_rows(n):
    for s in (0.5, 1.0):
        spectra = sample_spectra(ProductDirichlet(n, s), 3000, RandomStream(29, n))
        rows = ensembles._dirichlet_rows(n, s, RandomStream(29, n).rng, 3000)
        assert spectra.tobytes() == (-np.sort(-rows, axis=1)).tobytes()


# ------------------------------------------------------------ batched matrices

def _matrices_one_by_one(measure, count, stream):
    """Reference: the per-sample constructions the batched sampler replaced."""
    n = measure.n
    out = []
    for _ in range(count):
        if isinstance(measure, Induced):
            rho = project_hs(gaussian_matrix(n, measure.k, measure.beta, stream)).matrix
        elif isinstance(measure, ProductDirichlet):
            lam = sample_spectra(measure, 1, stream)[0]
            u = haar_unitary(n, stream)
            w = (u * lam) @ u.conj().T
            rho = 0.5 * (w + w.conj().T)
        else:
            u = haar_unitary(n, stream)
            g = gaussian_matrix(n, n, 2, stream)
            rho = project_hs((u + np.eye(n)) @ g).matrix
        out.append(rho)
    return np.array(out)


@pytest.mark.parametrize("measure", [
    Induced(3, 5, 1), Induced(4, 2, 1), Induced(3, 6, 2), Induced(4, 2, 2),
    ProductDirichlet(3, 1.0), ProductDirichlet(3, 0.5), Bures(2), Bures(3),
], ids=repr)
@pytest.mark.parametrize("chunk_rows", [None, 7])
def test_sample_matrices_bit_equal_to_single_draws(measure, chunk_rows, monkeypatch):
    if chunk_rows is not None:
        # 20 matrices then span three chunks
        cols = getattr(measure, "k", measure.n)
        monkeypatch.setattr(ensembles, "_CHUNK_ENTRIES",
                            chunk_rows * 8 * measure.n * max(measure.n, cols))
    batch = sample_matrices(measure, 20, RandomStream(61, 2))
    assert batch.shape == (20, measure.n, measure.n) and batch.dtype == np.complex128
    assert np.array_equal(batch, _matrices_one_by_one(measure, 20, RandomStream(61, 2)))
    # three slices per chunk whatever the CPU count, down to 1-row slices
    monkeypatch.setattr(ensembles, "_SLICE_ENTRIES", 1)
    monkeypatch.setattr(ensembles, "_THREADS", 3)
    assert np.array_equal(sample_matrices(measure, 20, RandomStream(61, 2)), batch)


@pytest.mark.parametrize("n, s", [(2, 1e-5), (3, 1e-5), (3, 1.0), (3, 0.5), (5, 0.01)])
def test_product_matrices_draw_as_the_per_sample_loop(n, s):
    # at s = 1e-5 nearly every n = 2 Dirichlet row underflows to all zeros
    # and is redrawn, tens of times on average
    stream = RandomStream(79, n)
    batch = sample_matrices(ProductDirichlet(n, s), 40, stream)
    rng = RandomStream(79, n).rng
    lam, z = product_matrix_draws(n, s, rng, 40)
    u = ensembles._haar_from_ginibre(z[:, 0] + 1j * z[:, 1])
    w = (u * np.sort(lam, axis=1)[:, None, ::-1]) @ np.swapaxes(u.conj(), 1, 2)
    assert np.array_equal(batch, 0.5 * (w + np.swapaxes(w.conj(), 1, 2)))
    # and both consumed the same RNG words
    assert stream.rng.random() == rng.random()


def test_single_matrix_functions_are_first_batch_rows():
    for draw, measure in (
        (lambda s: induced_density_matrix(3, 4, 2, s), Induced(3, 4, 2)),
        (lambda s: product_measure_density_matrix(3, 0.5, s), ProductDirichlet(3, 0.5)),
        (lambda s: bures_density_matrix(3, s), Bures(3)),
    ):
        stream = RandomStream(62, 0)
        singles = np.array([draw(stream).matrix for _ in range(5)])
        assert np.array_equal(singles, sample_matrices(measure, 5, RandomStream(62, 0)))


def test_sample_matrices_rejects_beta4_and_empty_counts():
    with pytest.raises(ValueError):
        sample_matrices(Induced(2, 3, 4), 5, RandomStream(63, 0))
    with pytest.raises(ValueError):
        induced_density_matrix(2, 3, 4, RandomStream(63, 0))
    for count in (0, -2):
        with pytest.raises(ValueError):
            sample_matrices(Bures(2), count, RandomStream(63, 0))


@settings(deadline=None)
@given(
    kind=st.sampled_from(["induced_1", "induced_2", "product", "bures"]),
    n=st.integers(1, 6),
    k=st.integers(1, 8),
    s=st.floats(0.05, 3.0),
    count=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_batches_are_density_matrices(kind, n, k, s, count, seed):
    measure = {
        "induced_1": Induced(n, k, 1),
        "induced_2": Induced(n, k, 2),
        "product": ProductDirichlet(n, s),
        "bures": Bures(n),
    }[kind]
    w = sample_matrices(measure, count, RandomStream(seed, 0))
    assert w.shape == (count, n, n)
    assert np.max(np.abs(w - np.conj(np.swapaxes(w, 1, 2)))) <= HERMITIAN_TOL
    assert np.max(np.abs(np.trace(w, axis1=1, axis2=2).real - 1.0)) <= TRACE_TOL
    assert np.min(np.linalg.eigvalsh(w)) >= -EIGENVALUE_CLAMP


# ------------------------------------------------- parallel finish stage

def _laguerre_reference(n, k, beta, count, rng):
    """Reference: the single-stage engine the two-stage split replaced, with
    the tridiagonal written through fancy indexing."""
    if k < n:
        out = np.zeros((count, n))
        out[:, :k] = _laguerre_reference(k, n, beta, count, rng)
        return out
    if n == 1:
        return np.ones((count, 1))
    i = np.arange(n)
    d2 = rng.chisquare(beta * (k - i), size=(count, n))
    e2 = rng.chisquare(beta * np.arange(n - 1, 0, -1), size=(count, n - 1))
    t = np.zeros((count, n, n))
    t[:, i, i] = d2
    t[:, i[1:], i[1:]] += e2
    t[:, i[1:], i[:-1]] = np.sqrt(d2[:, :-1] * e2)
    ev = np.clip(np.linalg.eigvalsh(t), 0.0, None)
    ev /= ev.sum(axis=1, keepdims=True)
    return ev[:, ::-1]


def _bures_reference(n, count, rng):
    z = rng.standard_normal((2, count, n, n))
    a = ensembles._haar_from_ginibre(z[0] + 1j * z[1]) + np.eye(n)
    z = rng.standard_normal((2, count, n, n))
    a = a @ (z[0] + 1j * z[1])
    ev = np.clip(np.linalg.eigvalsh(a @ np.conj(np.swapaxes(a, 1, 2))), 0.0, None)
    ev /= ev.sum(axis=1, keepdims=True)
    return ev[:, ::-1]


# The closed form's eigenvalues are within 1e-13 lambda_max of eigvalsh's;
# on trace-normalised rows that is 1e-13 of the trace
CLOSED_FORM_TOL = 1e-13


@pytest.mark.parametrize("measure", [
    Induced(3, 6, 2), Induced(3, 3, 1), Induced(2, 5, 4), Induced(4, 2, 2), Induced(5, 3, 1),
    Induced(2, 2, 2), Induced(2, 1000, 1), Bures(3), Bures(5),
], ids=repr)
@pytest.mark.parametrize("chunk_rows", [None, 101])
def test_pooled_spectra_bit_equal_to_inline(measure, chunk_rows, monkeypatch):
    bures = isinstance(measure, Bures)
    sizes = [301]
    if chunk_rows is not None:
        # 301 rows then span three chunks
        n = measure.n if bures else min(measure.n, measure.k)
        monkeypatch.setattr(ensembles, "_CHUNK_ENTRIES", chunk_rows * (8 if bures else 1) * n * n)
        sizes = [101, 101, 99]
    # three slices per chunk whatever the CPU count, down to 1-row slices
    monkeypatch.setattr(ensembles, "_SLICE_ENTRIES", 1)
    monkeypatch.setattr(ensembles, "_THREADS", 3)
    pooled = sample_spectra(measure, 301, RandomStream(64, 5))
    monkeypatch.setattr(ensembles, "_THREADS", 1)
    assert np.array_equal(pooled, sample_spectra(measure, 301, RandomStream(64, 5)))
    rng = RandomStream(64, 5).rng
    reference = np.concatenate([
        _bures_reference(measure.n, m, rng) if bures else
        _laguerre_reference(measure.n, measure.k, measure.beta, m, rng) for m in sizes])
    if bures or min(measure.n, measure.k) != 3:
        assert np.array_equal(pooled, reference)
        return
    # the n = 3 closed form is within its bound of eigvalsh, and the chunks
    # give the bytes of one call over the same draws
    assert np.max(np.abs(pooled - reference)) <= CLOSED_FORM_TOL
    rng = RandomStream(64, 5).rng
    big = max(measure.n, measure.k)
    d2, e2 = (np.concatenate(x) for x in zip(*(
        _sampled_bidiagonal(3, big, measure.beta, m, rng) for m in sizes)))
    ev = np.clip(ensembles._small_tridiagonal_eigvals(d2, e2, ensembles._trigonometric_eigvals),
                 0.0, None)
    expected = np.zeros((301, measure.n))
    expected[:, :3] = (ev / ev.sum(axis=1, keepdims=True))[:, ::-1]
    assert np.array_equal(pooled, expected)


@pytest.mark.parametrize("n, k", [(2, 2), (3, 4), (4, 2)])
@pytest.mark.parametrize("chunk_rows", [None, 101])
def test_purification_spectra_pooled_and_against_partial_trace(n, k, chunk_rows, monkeypatch):
    sizes = [301]
    if chunk_rows is not None:
        monkeypatch.setattr(ensembles, "_CHUNK_ENTRIES", chunk_rows * n * k)
        sizes = [101, 101, 99]
    monkeypatch.setattr(ensembles, "_SLICE_ENTRIES", 1)
    monkeypatch.setattr(ensembles, "_THREADS", 3)
    pooled = ensembles._purification_spectra(n, k, 301, RandomStream(65, n).rng)
    monkeypatch.setattr(ensembles, "_THREADS", 1)
    assert np.array_equal(pooled, ensembles._purification_spectra(n, k, 301, RandomStream(65, n).rng))
    # the same normals, chunk by chunk, through the normalised pure state
    rng = RandomStream(65, n).rng
    z = np.concatenate([rng.standard_normal((2, m, n * k)) for m in sizes], axis=1)
    for row, v in zip(pooled, z[0] + 1j * z[1]):
        rho = partial_trace(BipartitePureState((v / np.linalg.norm(v)).reshape(n, k)), "B")
        assert np.max(np.abs(row - np.linalg.eigvalsh(rho.matrix)[::-1])) <= 1e-12


def _sample_in_child(queue):
    spectra = sample_spectra(Induced(8, 8), 50000, RandomStream(66, 1))
    queue.put(float(spectra.sum()))


def test_forked_child_samples_through_its_own_pool(monkeypatch):
    import multiprocessing

    # Induced(8, 8) takes the dense route, which runs on the pool, on one
    # CPU too
    monkeypatch.setattr(ensembles, "_THREADS", 2)
    sample_spectra(Induced(8, 8), 50000, RandomStream(66, 0))  # the pool now has threads
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_sample_in_child, args=(queue,))
    child.start()
    try:
        total = queue.get(timeout=60)
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert not child.is_alive() and child.exitcode == 0
    assert total == pytest.approx(50000.0)


# ------------------------------------------------------ N = 2 closed form

def _dense_2x2_eigvalsh(d2, e2):
    """eigvalsh of the dense T = B B^T, written independently of the engine."""
    t = np.zeros((len(d2), 2, 2))
    t[:, 0, 0] = d2[:, 0]
    t[:, 1, 1] = d2[:, 1] + e2[:, 0]
    t[:, 1, 0] = np.sqrt(d2[:, 0] * e2[:, 0])
    return np.linalg.eigvalsh(t)


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("beta", [1, 2, 4])
@pytest.mark.parametrize("k", [2, 3, 8, 1000])
def test_eigvals_2x2_bit_equal_to_eigvalsh(beta, k):
    rng = RandomStream(70 + beta, k).rng
    rows = 10**6
    d2 = rng.chisquare(beta * (k - np.arange(2)), size=(rows, 2))
    e2 = rng.chisquare([beta], size=(rows, 1))
    assert _same_bits(ensembles._small_tridiagonal_eigvals(d2, e2), _dense_2x2_eigvalsh(d2, e2))


def _dense_route_rows(monkeypatch):
    """Patch the dense route to record how many rows reach it."""
    calls = []
    dense = ensembles._tridiagonal_eigvals

    def recording(d2, e2):
        calls.append(len(d2))
        return dense(d2, e2)

    monkeypatch.setattr(ensembles, "_tridiagonal_eigvals", recording)
    return calls


@pytest.mark.parametrize("d2, e2", [
    ((1.0, 100.0), 1.0),        # |a - c| > 2b
    ((1.0, 0.5), 1.0),          # |a - c| < 2b
    ((1.0, 2.0), 1.0),          # |a - c| == 2b: a = 1, c = 3, b = 1
    ((2.0, 1.0), 1.0),          # a == c
    ((100.0, 1.0), 1.0),        # |a| > |c|
    ((1e-119, 2e-119), 3e-119),  # just inside the unscaled range
    ((1e144, 2e144), 5e143),
], ids=str)
def test_eigvals_2x2_dlae2_branches(d2, e2, monkeypatch):
    d2, e2 = np.array([d2]), np.array([[e2]])
    calls = _dense_route_rows(monkeypatch)
    assert _same_bits(ensembles._small_tridiagonal_eigvals(d2, e2), _dense_2x2_eigvalsh(d2, e2))
    assert calls == []


@pytest.mark.parametrize("d2, e2", [
    ((1.0, 2.0), 0.0),              # dsterf splits: b = 0
    ((1.0, 2.0), 1e-300),           # b = 1e-150: dsterf splits
    # dsterf splits, though b^2 is just too large for its deflation test
    ((1.528312976721042, 1.925059512745896), 2.3728190466078872e-32),
    # dsterf deflates b^2, though b is just too large for its split test
    ((1.3352532350809854, 1.651125184937635), 2.0351689187861147e-32),
    ((0.0, 0.0), 0.0),              # a + c = 0
    ((1e-200, 1e-200), 1e-200),     # b underflows to 0
    ((1e-130, 2e-130), 1e-130),     # dsterf scales up
    ((1e150, 1e150), 1e150),        # dsyevd scales down
    ((1e200, 2e200), 1e-200),       # split, and scaled down
], ids=str)
def test_eigvals_2x2_sends_other_lapack_paths_to_eigvalsh(d2, e2, monkeypatch):
    rng = RandomStream(71, 0).rng
    sampled_d2 = rng.chisquare([6, 4], size=(20000, 2))
    sampled_e2 = rng.chisquare([2], size=(20000, 1))
    # the crafted row sits in the second block of rows
    sampled_d2[9000], sampled_e2[9000] = d2, e2
    calls = _dense_route_rows(monkeypatch)
    assert _same_bits(ensembles._small_tridiagonal_eigvals(sampled_d2, sampled_e2),
                      _dense_2x2_eigvalsh(sampled_d2, sampled_e2))
    assert calls == [1]


# --------------------------------------------------- small-n dsterf kernel

def _dense_eigvalsh(d2, e2):
    """eigvalsh of the dense T = B B^T at any n, written independently of
    the engine."""
    m, n = d2.shape
    i = np.arange(n)
    t = np.zeros((m, n, n))
    t[:, i, i] = d2
    t[:, i[1:], i[1:]] += e2
    t[:, i[1:], i[:-1]] = np.sqrt(d2[:, :-1] * e2)
    return np.linalg.eigvalsh(t)


def _sampled_bidiagonal(n, k, beta, rows, rng):
    return (rng.chisquare(beta * (k - np.arange(n)), size=(rows, n)),
            rng.chisquare(beta * np.arange(n - 1, 0, -1), size=(rows, n - 1)))


# the kernel's n up to the cut, and two beyond it, which it serves as
# exactly should the cut move
@pytest.mark.parametrize("n", range(3, ensembles._DSTERF_MAX_N + 3))
@pytest.mark.parametrize("k", ["n", "n+1", "2n", 256])
@pytest.mark.parametrize("beta", [1, 2, 4])
def test_small_tridiagonal_eigvals_bit_equal_to_eigvalsh(n, k, beta, monkeypatch):
    k = {"n": n, "n+1": n + 1, "2n": 2 * n}.get(k, k)
    d2, e2 = _sampled_bidiagonal(n, k, beta, 30000, RandomStream(72 + beta, 100 * n + k).rng)
    calls = _dense_route_rows(monkeypatch)
    assert _same_bits(ensembles._small_tridiagonal_eigvals(d2, e2), _dense_eigvalsh(d2, e2))
    assert sum(calls) <= 3  # sampled rows essentially never leave the kernel


def _dsterf_shift(d, e):
    """dsterf's first QL shift for the diagonal d and squared off-diagonal e,
    in its order of operations, with Python floats."""
    rte = math.sqrt(e[0])
    sigma = (d[1] - d[0]) / (2.0 * rte)
    w, z = max(abs(sigma), 1.0), min(abs(sigma), 1.0)
    return d[0] - rte / (sigma + math.copysign(w * math.sqrt(1.0 + (z / w) ** 2), sigma))


# T's diagonal is (d2_1, d2_2 + e2_1, ...), its off-diagonal sqrt(d2_j e2_j)
_KERNEL_ROWS = {
    "QL": ((1.0, 2.0, 3.0), (1.0, 1.0)),             # diagonal (1, 3, 4)
    "QR": ((9.0, 2.0, 1.0), (1.0, 1.0)),             # diagonal (9, 3, 2)
    "QL_n4": ((1.0, 2.0, 3.0, 4.0), (0.5, 1.5, 2.5)),
    "QR_n4": ((8.0, 3.0, 2.0, 0.5), (1.0, 2.0, 0.25)),
    # diagonal (3, 3, 6): the first shift has sigma = 0
    "sigma_0": ((3.0, 2.0, 5.0), (1.0, 1.0)),
    # the first shift equals the last diagonal entry, so the sweep's first
    # step has gamma = 0 and takes dsterf's c == 0 lane
    "c_0": ((4.0, 1.0, _dsterf_shift((4.0, 2.0), (4.0,)) - 1.0), (1.0, 1.0)),
    # the top off-diagonal deflates before any sweep: the first eigenvalue
    # is found at once
    "top_deflation": ((1.3352532350809854, 1.651125184937635, 3.0),
                      (2.0351689187861147e-32, 1.0)),
}


@pytest.mark.parametrize("d2, e2", _KERNEL_ROWS.values(), ids=_KERNEL_ROWS)
def test_small_tridiagonal_eigvals_keeps_these_rows(d2, e2, monkeypatch):
    d2, e2 = np.array([d2]), np.array([e2])
    calls = _dense_route_rows(monkeypatch)
    assert _same_bits(ensembles._small_tridiagonal_eigvals(d2, e2), _dense_eigvalsh(d2, e2))
    assert calls == []


def test_crafted_kernel_rows_reach_their_paths(monkeypatch):
    # the sigma = 0 and c == 0 rows are what their comments say
    d2, e2 = _KERNEL_ROWS["sigma_0"]
    assert d2[0] == d2[1] + e2[0] and d2[2] + e2[1] >= d2[0]  # QL, and sigma = 0
    d2, e2 = _KERNEL_ROWS["c_0"]
    diag = (d2[0], d2[1] + e2[0], d2[2] + e2[1])
    assert diag[2] >= diag[0]  # QL
    assert diag[2] == _dsterf_shift(diag, (d2[0] * e2[0],))  # gamma = 0
    seen = []
    sweep = ensembles._ql_sweep

    def spy(d, e):
        seen.append((d[1] - d[0]).tolist())
        sweep(d, e)

    monkeypatch.setattr(ensembles, "_ql_sweep", spy)
    d2, e2 = _KERNEL_ROWS["sigma_0"]
    ensembles._small_tridiagonal_eigvals(np.array([d2]), np.array([e2]))
    assert seen[0] == [0.0]


_DENSE_ROWS = {
    "zero_off_diagonal": ((1.0, 2.0, 3.0), (0.0, 1.0)),
    "split": ((1.0, 2.0, 3.0), (1.0, 1e-300)),
    # the bottom off-diagonal passes the split test, but its square then
    # deflates below the top of the block (QL: the diagonal is
    # (1, 2.805.., 1.808..))
    "inner_deflation": ((1.0, 1.8050029237453802, 1.8079407897364939),
                        (1.0, 3.4630604407847324e-32)),
    # the same off-diagonal in the middle of an n = 4 block
    "inner_deflation_n4": ((1.0, 1.8050029237453802, 1.8079407897364939, 3.0),
                           (1.0, 3.4630604407847324e-32, 1.0)),
    "scaled_up_by_dsterf": ((1e-130, 2e-130, 3e-130), (1e-130, 2e-130)),
    "scaled_down_by_dsyevd": ((1e150, 2e150, 3e150), (1e150, 2e150)),
    "n4_split": ((1.0, 2.0, 3.0, 4.0), (1.0, 0.0, 1.0)),
    "n4_scaled": ((1e-130, 2e-130, 3e-130, 4e-130), (1e-130, 2e-130, 3e-130)),
}


@pytest.mark.parametrize("d2, e2", _DENSE_ROWS.values(), ids=_DENSE_ROWS)
def test_small_tridiagonal_eigvals_sends_other_lapack_paths_to_eigvalsh(d2, e2, monkeypatch):
    n = len(d2)
    sampled_d2, sampled_e2 = _sampled_bidiagonal(n, n + 2, 2, 20000, RandomStream(74, n).rng)
    # the crafted row sits in the second block of rows
    sampled_d2[9000], sampled_e2[9000] = d2, e2
    calls = _dense_route_rows(monkeypatch)
    with warnings.catch_warnings():
        # numpy's eigvalsh warns on nothing here, and neither may the kernel
        warnings.simplefilter("error")
        got = ensembles._small_tridiagonal_eigvals(sampled_d2, sampled_e2)
    assert _same_bits(got, _dense_eigvalsh(sampled_d2, sampled_e2))
    assert calls == [1]
    # and alone, when no row of the call stays in the kernel
    d2, e2 = np.array([d2]), np.array([e2])
    assert _same_bits(ensembles._small_tridiagonal_eigvals(d2, e2), _dense_eigvalsh(d2, e2))
    assert calls == [1, 1]


def _record_routes(monkeypatch):
    """Patch the three eigenvalue routes of induced spectra to record, in
    call order, which of them ran."""
    routes = []
    for name, route in (("_dsterf", "dsterf"), ("_trigonometric_eigvals", "closed form"),
                        ("_tridiagonal_eigvals", "dense")):
        def record(*args, solve=getattr(ensembles, name), route=route):
            routes.append(route)
            return solve(*args)

        monkeypatch.setattr(ensembles, name, record)
    return routes


@pytest.mark.parametrize("n, count, kernel", [
    (2, 10, True), (4, ensembles._DSTERF_MIN_ROWS, True), (4, ensembles._DSTERF_MIN_ROWS - 1, False),
    (ensembles._DSTERF_MAX_N + 1, 20000, False),
])
def test_laguerre_spectra_route(n, count, kernel, monkeypatch):
    # the dsterf kernel's cut and row floor, and the same bytes on either route
    routes = _record_routes(monkeypatch)
    got = sample_spectra(Induced(n, n + 1), count, RandomStream(75, n))
    assert routes[0] == ("dsterf" if kernel else "dense")
    rng = RandomStream(75, n).rng
    assert np.array_equal(got, _laguerre_reference(n, n + 1, 2, count, rng))


# ------------------------------------------------------- n = 3 closed form

@pytest.mark.parametrize("count", [1, ensembles._DSTERF_MIN_ROWS - 1, ensembles._DSTERF_MIN_ROWS, 20000])
@pytest.mark.parametrize("n, k", [(3, 4), (5, 3)])
def test_laguerre_spectra_closed_form_route(n, k, count, monkeypatch):
    # n = 3, and k = 3 < n, take the closed form at any count
    routes = _record_routes(monkeypatch)
    got = sample_spectra(Induced(n, k), count, RandomStream(75, 3))
    assert routes and set(routes) == {"closed form"}
    reference = _laguerre_reference(n, k, 2, count, RandomStream(75, 3).rng)
    assert np.max(np.abs(got - reference)) <= CLOSED_FORM_TOL
    assert np.all(got[:, 3:] == 0.0)


@settings(deadline=None, max_examples=60)
@given(
    k=st.integers(1, 40),
    beta=st.sampled_from([1, 2, 4]),
    count=st.integers(1, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_n3_rows_are_spectra(k, beta, count, seed):
    spectra = sample_spectra(Induced(3, k, beta), count, RandomStream(seed, 0))
    _assert_valid_rows(spectra, count, 3)


@pytest.mark.parametrize("k, beta", [(3, 1), (3, 2), (6, 2), (3, 4), (4, 1)])
def test_closed_form_within_bound_of_eigvalsh(k, beta):
    d2, e2 = _sampled_bidiagonal(3, k, beta, 10**5, RandomStream(76 + beta, k).rng)
    got = ensembles._small_tridiagonal_eigvals(d2, e2, ensembles._trigonometric_eigvals)
    reference = ensembles._tridiagonal_eigvals(d2, e2)
    assert np.all(np.abs(got - reference) <= 1e-13 * reference[:, 2:])
    assert np.all(np.diff(got, axis=1) >= 0)


def _mpmath_eigvals(d2, e2):
    """Ascending eigenvalues of one row's T = B B^T by 40-digit mpmath."""
    import mpmath

    with mpmath.workdps(40):
        x, y = [mpmath.mpf(v) for v in d2], [mpmath.mpf(v) for v in e2]
        t = mpmath.matrix(3, 3)
        t[0, 0], t[1, 1], t[2, 2] = x[0], x[1] + y[0], x[2] + y[1]
        t[0, 1] = t[1, 0] = mpmath.sqrt(x[0] * y[0])
        t[1, 2] = t[2, 1] = mpmath.sqrt(x[1] * y[1])
        return sorted(mpmath.eigsy(t, eigvals_only=True))


@pytest.mark.parametrize("k, beta", [(3, 1), (4, 1), (3, 2)])
def test_closed_form_smallest_eigenvalue_against_mpmath(k, beta):
    # lambda_min = det T / (lambda_max lambda_mid) keeps relative accuracy
    # where eigvalsh keeps it only relative to lambda_max: check the ten rows
    # where the two differ most
    d2, e2 = _sampled_bidiagonal(3, k, beta, 10**5, RandomStream(77, 10 * k + beta).rng)
    got = ensembles._small_tridiagonal_eigvals(d2, e2, ensembles._trigonometric_eigvals)
    dense = ensembles._tridiagonal_eigvals(d2, e2)
    for i in np.argsort(np.abs(got[:, 0] / dense[:, 0] - 1.0))[-10:]:
        smallest = _mpmath_eigvals(d2[i], e2[i])[0]
        assert abs(got[i, 0] / float(smallest) - 1.0) <= 1e-13


_CLOSED_FORM_DENSE_ROWS = {
    "zero_off_diagonal": ((1.0, 2.0, 3.0), (0.0, 1.0)),
    "entries_near_1e-130": ((1e-130, 2e-130, 3e-130), (1e-130, 2e-130)),
    "one_entry_near_1e-130": ((1.0, 1e-130, 3.0), (1.0, 2.0)),
    "entries_near_1e150": ((1e150, 2e150, 3e150), (1e150, 2e150)),
    # in range, but det T = d_1^2 d_2^2 d_3^2 leaves the normal doubles
    "det_subnormal": ((1e-110, 2e-110, 3e-110), (1e-110, 2e-110)),
    "det_overflows": ((1e110, 2e110, 3e110), (1e110, 2e110)),
    # T is nearly diag(1, 1, 10), r -> 1, and nearly diag(10, 10, 1), r -> -1
    "r_near_1": ((1.0, 1.0, 10.0), (1e-12, 1e-12)),
    "r_near_minus_1": ((10.0, 10.0, 1.0), (1e-12, 1e-12)),
}


@pytest.mark.parametrize("d2, e2", _CLOSED_FORM_DENSE_ROWS.values(), ids=_CLOSED_FORM_DENSE_ROWS)
def test_closed_form_sends_these_rows_to_eigvalsh(d2, e2, monkeypatch):
    if e2 == (1e-12, 1e-12):
        # the r rows are what their comment says (without the margin the
        # closed form keeps them, 6e-11 lambda_max off)
        centred = _dense_eigvalsh(np.array([d2]), np.array([e2]))[0]
        centred -= centred.mean()
        r = np.prod(centred) / (2.0 * (np.sum(centred**2) / 6.0) ** 1.5)
        assert 1.0 - abs(r) < ensembles._ACOS_MARGIN
    sampled_d2, sampled_e2 = _sampled_bidiagonal(3, 5, 2, 20000, RandomStream(78, 3).rng)
    # the crafted row sits in the second block of rows
    sampled_d2[9000], sampled_e2[9000] = d2, e2
    calls = _dense_route_rows(monkeypatch)
    with warnings.catch_warnings():
        # numpy's eigvalsh warns on nothing here, and neither may the closed form
        warnings.simplefilter("error")
        got = ensembles._small_tridiagonal_eigvals(sampled_d2, sampled_e2,
                                                   ensembles._trigonometric_eigvals)
    assert calls == [1]
    dense = _dense_eigvalsh(sampled_d2, sampled_e2)
    assert _same_bits(got[9000], dense[9000])
    assert np.all(np.abs(got - dense) <= 1e-13 * dense[:, 2:])
