"""Special functions backing the closed forms, on the stdlib and numpy; only
:func:`gauss_laguerre_nodes`, which the battery's quadrature check calls,
imports scipy, inside the function.

ln Gamma is ``math.lgamma``. The digamma function lifts its argument by
psi(x) = psi(x + 1) - 1/x to y >= 10 and sums the asymptotic series there with
``math.fsum``, ln y split as ln f + e ln 2 so that only ln f rounds. The Gamma
ratio Gamma(x + a)/Gamma(x) takes the integer part of a as a product and the
fractional part d from Stirling's series at y >= 24, where
y^d exp((y + d - 1/2) log1p(d/y) - d + ...) keeps every term of the exponent
small, so no ln Gamma difference cancels.

Laguerre polynomials use the three-term recurrence
x L_m = -(m+1) L_{m+1} + (1+2m) L_m - m L_{m-1},
which is stable forward in m. Gauss-Laguerre nodes come from the eigenvalues
of the Jacobi matrix with a vectorized Newton polish; weights are evaluated
through a running-rescaled recurrence so that the exponentially small weights
deep in the tail keep full relative accuracy (the stock numpy/scipy weight
routines overflow above roughly 150 nodes).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)

# B_2k/(2k), k = 1..7: psi(y) = ln y - 1/(2y) - sum_k B_2k/(2k y^2k); the first
# term left out is below 5e-17 at y >= 10
_PSI_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
_PSI_FROM = 10.0
# B_2k/(2k (2k - 1)), k = 1..5: ln Gamma(y) - (y - 1/2) ln y + y - ln(2 pi)/2;
# the first term left out is below 2e-18 at y >= 24
_STIRLING_SERIES = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_RATIO_FROM = 24.0
# ln 2 split so that e * _LN2_HI is exact for every binary exponent e
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _series(coeffs, w: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * w + c
    return total


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def digamma(x: float) -> float:
    """Logarithmic derivative of the Gamma function for x > 0.

    The recurrence lifts x to y >= 10, where the asymptotic series is summed
    with its recurrence terms -1/(x + i) by ``math.fsum``. The error is within
    2 ulps of max(|psi(x)|, 1): relative to |psi(x)| except near its root
    x = 1.4616..., where it is absolute.
    """
    if not x > 0:
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    x = float(x)
    lift = max(0, math.ceil(_PSI_FROM - x))
    y = x + lift
    w = 1.0 / (y * y)
    terms = [-1.0 / (x + i) for i in range(lift)]
    # ln y = ln(f) + e ln 2 with f in [1/2, 1): only ln f, below 0.7, rounds
    f, e = math.frexp(y)
    terms += [math.log(f), e * _LN2_HI, e * _LN2_LO, -0.5 / y, -w * _series(_PSI_SERIES, w)]
    return math.fsum(terms)


def _stirling_tail(y: float) -> float:
    return _series(_STIRLING_SERIES, 1.0 / (y * y)) / y


def gamma_ratio(x: float, a: float) -> float:
    """Gamma(x + a)/Gamma(x) for x > 0 and x + a > 0; inf or 0 where the
    ratio leaves the double range.

    With m = floor(a) and d = a - m (both exact), the integer part
    Gamma(x + a)/Gamma(x + d) is the product of x + d + i over i < m, or the
    reciprocal product of x + a + i over i < -m. The fractional part
    Gamma(x + d)/Gamma(x) is lifted by its recurrence to y = x + s >= 24:

        y^d exp((y + d - 1/2) log1p(d/y) - d + S(y + d) - S(y)
                - sum_{i<s} log1p(d/(x + i)))

    with S Stirling's series, every term of the exponent summed by
    ``math.fsum``. At integer a the ratio is the product alone. The error is
    within 4 ulps for the fractional part, and each factor of the integer
    part adds at most one.
    """
    x, a = float(x), float(a)
    if not (x > 0 and x + a > 0):
        raise DomainError(f"gamma_ratio requires x > 0 and x + a > 0, got x={x!r}, a={a!r}")
    if a == math.inf:
        return math.inf
    m = math.floor(a)
    d = a - m
    ratio = 1.0
    if d:
        lift = max(0, math.ceil(_RATIO_FROM - x))
        y = x + lift
        terms = [-math.log1p(d / (x + i)) for i in range(lift)]
        terms += [(y + d - 0.5) * math.log1p(d / y), -d, _stirling_tail(y + d), -_stirling_tail(y)]
        ratio = y**d * math.exp(math.fsum(terms))
    # the loop stops once the ratio leaves the double range, so a huge |a| ends
    z = x + d if m >= 0 else x + a
    for i in range(abs(m)):
        if not 0.0 < ratio < math.inf:
            break
        ratio = ratio * (z + i) if m >= 0 else ratio / (z + i)
    return ratio


def laguerre_sum_sq(nmax: int, x):
    """Kernel sum_{m < nmax} L_m(x)^2, evaluated in one recurrence sweep."""
    if nmax < 1:
        raise DomainError(f"laguerre_sum_sq requires nmax >= 1, got {nmax}")
    x = np.asarray(x, dtype=np.float64)
    lm1 = np.zeros_like(x)
    l = np.ones_like(x)
    total = l * l
    for m in range(nmax - 1):
        lm1, l = l, ((2 * m + 1 - x) * l - m * lm1) / (m + 1)
        total += l * l
    return total


def _scaled_laguerre_pair(n: int, x: np.ndarray):
    """Return (L_n, L_{n-1}, log_scale) with both values divided by e^{log_scale}."""
    lm1 = np.zeros_like(x)
    l = np.ones_like(x)
    logs = np.zeros_like(x)
    for m in range(n):
        lm1, l = l, ((2 * m + 1 - x) * l - m * lm1) / (m + 1)
        big = np.abs(l)
        mask = big > 1e100
        if mask.any():
            l[mask] /= big[mask]
            lm1[mask] /= big[mask]
            logs[mask] += np.log(big[mask])
    return l, lm1, logs


@lru_cache(maxsize=16)
def gauss_laguerre_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrating f(x) e^{-x} on [0, inf).

    Exact for polynomials f of degree <= 2*count - 1. Weights whose magnitude
    underflows double precision come back as zero.
    """
    if count < 1:
        raise DomainError(f"need count >= 1, got {count}")
    if count == 1:
        return np.array([1.0]), np.array([1.0])
    from scipy.linalg import eigh_tridiagonal

    k = np.arange(count)
    # Jacobi matrix of the monic Laguerre recurrence.
    x = eigh_tridiagonal(2.0 * k + 1.0, np.arange(1.0, count), eigvals_only=True)
    for _ in range(3):
        l, lm1, _ = _scaled_laguerre_pair(count, x)
        # Newton step using x L'_n = n (L_n - L_{n-1}); scale factors cancel.
        x = x - l * x / (count * (l - lm1))
    l, lm1, logs = _scaled_laguerre_pair(count, x)
    lnext = ((2 * count + 1 - x) * l - count * lm1) / (count + 1)
    with np.errstate(divide="ignore"):
        logw = np.log(x) - 2.0 * np.log(count + 1.0) - 2.0 * (np.log(np.abs(lnext)) + logs)
    w = np.exp(logw)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w
