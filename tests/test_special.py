import math

import mpmath
import numpy as np
import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeasure.errors import DomainError
from qmeasure.special import (
    EULER_GAMMA,
    digamma,
    digamma_difference,
    gamma_ratio,
    log_gamma,
)


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
    for bad in (-1.0, math.nan):
        with pytest.raises(DomainError):
            digamma(bad)


def _ulps(got: float, want: float, floor: float = 0.0) -> float:
    return abs(got - want) / math.ulp(max(abs(want), floor))


# psi is within 2 ulps of max(|psi(x)|, 1) and the scipy oracle within 1.5
PSI_ULPS = 4.5


@given(x=st.integers(1, 10**6).map(float) | st.integers(2, 2 * 10**6).map(lambda i: i / 2)
       | st.floats(0.5, 1e8))
def test_digamma_matches_scipy_oracle(x):
    assert _ulps(digamma(x), oracles.digamma(x), 1.0) <= PSI_ULPS


@pytest.mark.parametrize("x, want", [
    # 400-digit mpmath values, outside the oracle's range or at psi's root
    (1e-8, -100000000.57721564636),
    (0.01, -100.56088545786867242),
    (1.4616321449683622, -9.2412655217294275168e-17),
    (1e12, 27.631021115928048208),
    (1e300, 690.77552789821370526),
])
def test_digamma_mpmath_values(x, want):
    assert _ulps(digamma(x), want, 1.0) <= PSI_ULPS


def _ratio_ulps(a: float) -> float:
    # the fractional part is within 4 ulps and each of the |floor(a)| factors
    # of the integer part adds at most one; the oracle is within 3.5
    return 7.5 + abs(math.floor(a))


@st.composite
def _ratio_args(draw):
    x = draw(st.floats(0.5, 5000.0) | st.integers(1, 10000).map(lambda i: i / 2))
    a = draw(st.floats(-x, 200.0, exclude_min=True)
             | st.integers(math.floor(-2.0 * x), 400).map(lambda i: i / 2))
    # stay inside the double range, where the oracle is finite
    assume(x + a > 0 and abs(math.lgamma(x + a) - math.lgamma(x)) < 700)
    return x, a


@settings(deadline=None)
@given(args=_ratio_args())
def test_gamma_ratio_matches_oracle(args):
    x, a = args
    assert _ulps(gamma_ratio(x, a), oracles.gamma_ratio(x, a)) <= _ratio_ulps(a)


@pytest.mark.parametrize("x, a, want", [
    # 400-digit mpmath values; scipy's poch is 41,000 ulps off at (4096, 0.5)
    (4096.0, 0.5, 63.998046904806869715),
    (4096.0, -0.5, 0.015626430693396867224),
    (1000000.25, 0.75, 31622.779566319485748),
    (25000000.0, -3.5, 1.280000403200085008e-26),
    (1e300, 0.5, 1.0000000000000000263e150),
    (1e-5, 0.5, 0.00001772429279939591658),
    (0.3, -0.2999, 3342.534611231557626),
    (7.25, -7.0, 0.0031380210203739615504),
])
def test_gamma_ratio_mpmath_values(x, a, want):
    assert _ulps(gamma_ratio(x, a), want) <= _ratio_ulps(a)


def test_gamma_ratio_small_x_bound_against_mpmath():
    # the bound the docstring states below x = 1/2, on its grid
    rng = np.random.default_rng(0)
    xs = np.exp(rng.uniform(math.log(1e-5), math.log(0.5), 3000))
    worst = 0.0
    with mpmath.workdps(40):
        for x, a in zip(xs.tolist(), rng.uniform(0.0, 1.0, 3000).tolist()):
            want = mpmath.gammaprod([mpmath.mpf(x) + mpmath.mpf(a)], [mpmath.mpf(x)])
            worst = max(worst, float(abs(mpmath.mpf(gamma_ratio(x, a)) / want - 1)))
    assert worst <= 9 * 2.0**-52


def test_gamma_ratio_integer_a_is_the_product():
    assert gamma_ratio(4.0, 2.0) == 20.0
    assert gamma_ratio(0.5, 3.0) == 0.5 * 1.5 * 2.5
    assert gamma_ratio(5.0, -2.0) == 1.0 / 12.0
    assert gamma_ratio(7.0, 0.0) == 1.0


def test_gamma_ratio_range_and_domain():
    assert gamma_ratio(123456.5, 150.5) == math.inf  # 2.05e766
    assert gamma_ratio(1000.0, -999.5) == 0.0
    assert gamma_ratio(3.0, 1e308) == math.inf  # ends after a few factors
    assert gamma_ratio(3.0, math.inf) == math.inf
    for x, a in ((0.0, 1.0), (-1.0, 2.5), (2.0, -2.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            gamma_ratio(x, a)



@pytest.mark.parametrize("s", [1e-5, 1e-3, 0.5, 1.0, 7.0, 1e3, 1e6, 1e12])
@pytest.mark.parametrize("n", [2, 3, 16, 64])
def test_digamma_difference_against_mpmath(s, n):
    # the product-Dirichlet mean entropy psi(ns + 1) - psi(s + 1), against
    # 40-digit mpmath at the exact binary values of s and ns
    with mpmath.workdps(40):
        want = mpmath.digamma(n * mpmath.mpf(s) + 1) - mpmath.digamma(mpmath.mpf(s) + 1)
        got = digamma_difference(s + 1.0, (n - 1) * s)
        assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(float(want))


def test_digamma_difference_values_and_domain():
    assert digamma_difference(2.0, 1.0) == 0.5  # psi(3) - psi(2) = 1/2
    assert digamma_difference(1.5, 0.5) == float.fromhex("0x1.8b90bfbe8e7bdp-2")  # 2 ln 2 - 1
    assert digamma_difference(3.7, 0.0) == 0.0
    # psi(x + 1) - psi(x) = 1/x at every scale
    for y in (1e-300, 0.25, 9.5, 1e8, 1e300):
        assert _ulps(digamma_difference(y, 1.0), 1.0 / y) <= 2
    for y, d in ((0.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError):
            digamma_difference(y, d)
