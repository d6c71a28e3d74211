import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeasure import (
    BipartitePureState,
    DensityMatrix,
    RandomStream,
    Spectrum,
    density_spectrum,
    entropy,
    n2_entanglement,
    partial_trace,
    project_hs,
    purity_functionals,
    schmidt_spectrum,
)
from qmeasure.core import EIGENVALUE_CLAMP, HERMITIAN_TOL, TRACE_TOL, _row_sums
from qmeasure.errors import DimensionMismatch, ZeroMatrix


def bell_state():
    return BipartitePureState(np.array([[1, 0], [0, 1]]) / np.sqrt(2))


# ---------------------------------------------------------------- project_hs

def test_project_hs_identity():
    rho = project_hs(np.eye(2))
    assert np.allclose(rho.matrix, np.diag([0.5, 0.5]))


def test_project_hs_rank_one():
    rho = project_hs(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))


def test_project_hs_hand_multiplied():
    # A A^dag = [[2, 1], [1, 1]] with trace 3
    rho = project_hs(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(rho.matrix, np.array([[2.0, 1.0], [1.0, 1.0]]) / 3.0)


def test_project_hs_rectangular_is_allowed():
    rho = project_hs(np.ones((2, 5)))
    assert rho.dim == 2
    assert rho.matrix.trace().real == pytest.approx(1.0)


def test_project_hs_zero_matrix():
    with pytest.raises(ZeroMatrix):
        project_hs(np.zeros((2, 2)))


def test_project_hs_matches_singular_values():
    # independent oracle: eigenvalues equal rescaled squared singular values
    rng = np.random.default_rng(11)
    for n in range(2, 6):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sv = np.linalg.svd(a, compute_uv=False)
        expected = np.sort(sv**2 / np.sum(sv**2))[::-1]
        got = density_spectrum(project_hs(a)).values
        assert np.allclose(got, expected, atol=1e-10)


# ------------------------------------------------------------- partial_trace

def test_partial_trace_product_state():
    psi = BipartitePureState(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(partial_trace(psi, "B").matrix, np.diag([1.0, 0.0]))


def test_partial_trace_bell():
    assert np.allclose(partial_trace(bell_state(), "B").matrix, np.eye(2) / 2)


def test_partial_trace_generic_two_qubit():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    x, y, z, t = v
    psi = BipartitePureState(v.reshape(2, 2))
    expected = np.array(
        [
            [abs(x) ** 2 + abs(y) ** 2, x * np.conj(z) + y * np.conj(t)],
            [z * np.conj(x) + t * np.conj(y), abs(z) ** 2 + abs(t) ** 2],
        ]
    )
    assert np.allclose(partial_trace(psi, "B").matrix, expected)


def test_partial_trace_sides_share_positive_spectrum():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        for k in range(2, 7):
            v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
            psi = BipartitePureState(v / np.linalg.norm(v))
            ev_a = np.linalg.eigvalsh(partial_trace(psi, "B").matrix)[::-1]
            ev_b = np.linalg.eigvalsh(partial_trace(psi, "A").matrix)[::-1]
            m = min(n, k)
            assert np.allclose(ev_a[:m], ev_b[:m], atol=1e-12)


def test_partial_trace_right_unitary_invariance():
    rng = np.random.default_rng(3)
    from qmeasure import haar_unitary

    v = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    v /= np.linalg.norm(v)
    psi = BipartitePureState(v)
    u = haar_unitary(4, RandomStream(9))
    rotated = BipartitePureState(v @ u)
    assert np.allclose(
        partial_trace(psi, "B").matrix, partial_trace(rotated, "B").matrix, atol=HERMITIAN_TOL
    )


def test_partial_trace_bad_side():
    with pytest.raises(ValueError):
        partial_trace(bell_state(), "C")


# ----------------------------------------------------------- density_spectrum

def test_eigensystem_diagonal():
    assert np.allclose(density_spectrum(DensityMatrix(np.diag([0.7, 0.3]))).values, [0.7, 0.3])


def test_eigensystem_rank_one_projector():
    spec = density_spectrum(DensityMatrix(np.full((2, 2), 0.5)))
    assert np.allclose(spec.values, [1.0, 0.0], atol=1e-12)
    assert spec.values[-1] >= 0.0  # roundoff below 0 is clipped


def test_eigensystem_degenerate():
    assert np.allclose(density_spectrum(DensityMatrix(np.eye(3) / 3)).values, [1 / 3] * 3)


def test_eigensystem_descending_order():
    rng = np.random.default_rng(12)
    for _ in range(5):
        rho = project_hs(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        v = density_spectrum(rho).values
        assert np.all(np.diff(v) <= 0)


def _assert_simplex_point(values, n):
    assert values.shape == (n,)
    assert np.all(np.diff(values) <= 0)
    assert np.all(values >= 0)
    assert abs(values.sum() - 1.0) <= TRACE_TOL


@settings(deadline=None)
@given(n=st.integers(1, 6), k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_density_and_schmidt_spectra_are_simplex_points(n, k, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    psi = BipartitePureState(v / np.linalg.norm(v))
    _assert_simplex_point(density_spectrum(partial_trace(psi, "B")).values, n)
    _assert_simplex_point(density_spectrum(partial_trace(psi, "A")).values, k)
    _assert_simplex_point(density_spectrum(project_hs(v)).values, n)
    _assert_simplex_point(schmidt_spectrum(psi).values, min(n, k))


# ------------------------------------------------------------ schmidt_spectrum

def test_schmidt_spectrum_cos_sin():
    alpha = np.pi / 6
    amp = np.array([[np.cos(alpha), 0.0], [0.0, np.sin(alpha)]])
    spec = schmidt_spectrum(BipartitePureState(amp))
    assert np.allclose(spec.values, [0.75, 0.25])


def test_schmidt_spectrum_product_state():
    amp = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(schmidt_spectrum(BipartitePureState(amp)).values, [1.0, 0.0])


def test_schmidt_spectrum_wide_state_truncates():
    rng = np.random.default_rng(8)
    v = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    psi = BipartitePureState(v / np.linalg.norm(v))
    spec = schmidt_spectrum(psi)
    assert len(spec) == 2
    ev_b = np.sort(np.linalg.eigvalsh(partial_trace(psi, "A").matrix))[::-1]
    assert np.allclose(spec.values, ev_b[:2], atol=1e-12)


# --------------------------------------------------------------- functionals

def test_entropy_pure():
    assert entropy(Spectrum([1.0, 0.0])) == 0.0


def test_entropy_maximally_mixed():
    assert entropy(Spectrum([0.5, 0.5])) == pytest.approx(np.log(2), abs=1e-15)


def test_entropy_hand_value():
    # -0.75 ln 0.75 - 0.25 ln 0.25
    assert entropy(Spectrum([0.75, 0.25])) == pytest.approx(0.5623351446188083, abs=1e-15)


def test_entropy_range_and_edges():
    for n in (2, 3, 8):
        assert entropy(Spectrum(np.full(n, 1.0 / n))) == pytest.approx(np.log(n), abs=1e-12)
    # spectra pure up to the eigenvalue clamp have entropy at the clamp noise
    # scale eps * ln(1/eps); anything genuinely mixed sits far above it
    noise_floor = 2 * EIGENVALUE_CLAMP * abs(np.log(EIGENVALUE_CLAMP))
    nearly_pure = Spectrum([1.0 - EIGENVALUE_CLAMP / 2, EIGENVALUE_CLAMP / 2])
    assert entropy(nearly_pure) < noise_floor
    assert entropy(Spectrum([1.0 - 1e-6, 1e-6])) > noise_floor


def test_purity_functionals():
    assert purity_functionals(Spectrum([1.0, 0.0])) == (1.0, 1.0)
    p, r = purity_functionals(Spectrum(np.full(4, 0.25)))
    assert p == pytest.approx(0.25) and r == pytest.approx(4.0)
    p, r = purity_functionals(Spectrum([0.7, 0.3]))
    assert p == pytest.approx(0.58) and r == pytest.approx(1 / 0.58)


def test_n2_entanglement_values():
    e = n2_entanglement(Spectrum([1.0, 0.0]))
    assert e == pytest.approx((0.5, 0.0, 0.0, 0.0))
    e = n2_entanglement(Spectrum([0.5, 0.5]))
    assert e.r == pytest.approx(0.0)
    assert e.alpha == pytest.approx(np.pi / 4)
    assert e.tangle == pytest.approx(1.0) and e.concurrence == pytest.approx(1.0)
    e = n2_entanglement(Spectrum([0.75, 0.25]))
    assert e.tangle == pytest.approx(0.75)
    assert e.concurrence == pytest.approx(np.sqrt(3) / 2)
    # cross-check: tangle equals sin^2(2 alpha) at alpha = pi/6
    assert e.tangle == pytest.approx(np.sin(2 * np.pi / 6) ** 2)


def test_n2_entanglement_needs_two_levels():
    with pytest.raises(DimensionMismatch):
        n2_entanglement(Spectrum([0.5, 0.3, 0.2]))


# ----------------------------------------------------------- type invariants

def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.8, 0.8]))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_density_matrix_rejects_non_finite():
    # NaN compares false with every tolerance, so it needs its own check
    for bad in (np.full((2, 2), np.nan), np.diag([np.inf, 0.5])):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(bad)


def test_density_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        DensityMatrix(np.ones((2, 3)) / 6)


def test_pure_state_requires_normalization():
    with pytest.raises(ValueError):
        BipartitePureState(np.ones((2, 2)))


def test_spectrum_invariants():
    with pytest.raises(ValueError):
        Spectrum([0.3, 0.7])  # not descending
    with pytest.raises(ValueError):
        Spectrum([1.2, -0.2])  # negative entry
    with pytest.raises(ValueError):
        Spectrum([0.5, 0.4])  # wrong sum


def test_spectrum_rejects_non_finite():
    for bad in ([np.nan, np.nan], [np.inf, 0.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="non-finite"):
            Spectrum(bad)


def test_values_are_frozen():
    rho = project_hs(np.eye(2))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0
    spec = Spectrum([0.6, 0.4])
    with pytest.raises(ValueError):
        spec.values[0] = 0.0


# ----------------------------------------------------------------- _row_sums

def _same_bits(x, y):
    return x.dtype == y.dtype and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def _adversarial_rows(width):
    rows = [
        [1e16] + [1.0] * (width - 1),   # left-to-right and pairwise sums differ from width 8
        [-0.0] * width,                  # numpy's sum is +0.0
        [0.0, -0.0] * width,
        [-0.0, 0.0] * width,
        [np.inf] + [1.0] * (width - 1),
        [-np.inf] + [np.inf] * (width - 1),
        [np.nan] + [-0.0] * (width - 1),
        [1.0] * (width - 1) + [np.nan],
        [1e308] * width,
        [5e-324, -0.0] * width,
    ]
    return np.array([r[:width] for r in rows])


@pytest.mark.parametrize("width", range(1, 13))
def test_row_sums_bit_equal_to_numpy(width):
    rng = np.random.default_rng(width)
    scales = 10.0 ** rng.integers(-30, 30, size=(2000, width))
    rows = [rng.standard_normal((2000, width)) * scales, rng.random((2000, width)),
            _adversarial_rows(width)]
    with np.errstate(invalid="ignore", over="ignore"):
        for a in rows + [np.asfortranarray(a) for a in rows] + [rows[0][::3, ::-1]]:
            assert _same_bits(_row_sums(a), a.sum(axis=1))


def test_row_sums_falls_back_outside_narrow_float64_rows():
    rng = np.random.default_rng(3)
    wide = np.array([[1e16] + [1.0] * 7])
    assert _row_sums(wide)[0] == 1e16 + 6.0  # pairwise: numpy's value, not left to right
    z = rng.standard_normal((50, 3)) + 1j * rng.standard_normal((50, 3))
    assert _row_sums(z).dtype == np.complex128
    assert np.array_equal(_row_sums(z), z.sum(axis=1))
    f32 = rng.random((50, 3)).astype(np.float32)
    assert _row_sums(f32).dtype == np.float32
    assert np.array_equal(_row_sums(f32), f32.sum(axis=1))
    ints = np.arange(12).reshape(4, 3)
    assert _row_sums(ints).dtype == ints.sum(axis=1).dtype
    assert np.array_equal(_row_sums(ints), [3, 12, 21, 30])
    assert _row_sums(np.empty((4, 0))).shape == (4,)
    cube = rng.random((4, 3, 2))
    assert _same_bits(_row_sums(cube), cube.sum(axis=1))
    with pytest.raises(Exception) as numpy_error:
        np.arange(3.0).sum(axis=1)
    with pytest.raises(type(numpy_error.value)):
        _row_sums(np.arange(3.0))
