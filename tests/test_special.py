import numpy as np
import pytest
from scipy.special import eval_laguerre

from qmeasure.errors import DomainError
from qmeasure.special import (
    EULER_GAMMA,
    digamma,
    gauss_laguerre_nodes,
    laguerre_sum_sq,
    log_gamma,
)


def test_laguerre_sum_sq_consistent():
    x = np.linspace(0.0, 20.0, 25)
    # L_0 = 1, L_1 = 1 - x and L_2 = 1 - 2x + x^2/2 by hand
    by_hand = 1.0 + (1.0 - x) ** 2 + (1.0 - 2.0 * x + 0.5 * x**2) ** 2
    assert np.allclose(laguerre_sum_sq(3, x), by_hand, rtol=1e-12)
    x = np.linspace(0.0, 30.0, 50)
    for nmax in (6, 21):
        direct = sum(eval_laguerre(m, x) ** 2 for m in range(nmax))
        assert np.allclose(laguerre_sum_sq(nmax, x), direct, rtol=1e-10)
    assert laguerre_sum_sq(2, 2.0) == pytest.approx(2.0)  # scalar: 1 + L_1(2)^2
    with pytest.raises(DomainError):
        laguerre_sum_sq(0, x)


def test_log_gamma_values():
    assert log_gamma(5.0) == pytest.approx(np.log(24.0), abs=1e-14)
    assert log_gamma(1.0) == 0.0
    with pytest.raises(DomainError):
        log_gamma(0.0)


def test_digamma_euler_constant():
    # series oracle: psi(1) = -lim (H_n - ln n), Euler-Maclaurin corrected
    n = 10**6
    harmonic = np.sum(1.0 / np.arange(1, n + 1))
    gamma_oracle = harmonic - np.log(n) - 0.5 / n + 1.0 / (12.0 * n**2)
    assert digamma(1.0) == pytest.approx(-gamma_oracle, abs=1e-12)
    assert EULER_GAMMA == pytest.approx(gamma_oracle, abs=1e-12)


def test_digamma_recurrence():
    for x in (0.5, 1.0, 2.7, 9.0):
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)
    with pytest.raises(DomainError):
        digamma(-1.0)


def test_gauss_laguerre_factorial_moments():
    import math

    x, w = gauss_laguerre_nodes(32)
    for k in range(0, 16):
        got = np.sum(w * x**k)
        assert got == pytest.approx(float(math.factorial(k)), rel=1e-12)


def test_gauss_laguerre_matches_numpy_at_small_count():
    x1, w1 = gauss_laguerre_nodes(64)
    x2, w2 = np.polynomial.laguerre.laggauss(64)
    assert np.allclose(x1, x2, atol=1e-10)
    assert np.allclose(w1, w2, rtol=1e-10)


def test_gauss_laguerre_large_count_is_finite():
    x, w = gauss_laguerre_nodes(1024)
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
    assert np.all(np.diff(x) > 0) and np.all(x > 0)
    assert np.all(w >= 0)
    # weight accuracy degrades mildly with count; 1e-9 still leaves plenty of
    # headroom over the 1e-8 moment-stability gate
    assert np.sum(w) == pytest.approx(1.0, abs=1e-9)  # integral of e^{-x}


def test_gauss_laguerre_single_node():
    x, w = gauss_laguerre_nodes(1)
    assert x[0] == pytest.approx(1.0) and w[0] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        gauss_laguerre_nodes(0)
