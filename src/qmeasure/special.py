"""Special functions backing the closed forms, on the stdlib and numpy.

ln Gamma is ``math.lgamma``. The digamma function lifts its argument by
psi(x) = psi(x + 1) - 1/x to y >= 10 and sums the asymptotic series there with
``math.fsum``, ln y split as ln f + e ln 2 so that only ln f rounds. The Gamma
ratio Gamma(x + a)/Gamma(x) takes the integer part of a as a product and the
fractional part d from Stirling's series at y >= 24, where
y^d exp((y + d - 1/2) log1p(d/y) - d + ...) keeps every term of the exponent
small, so no ln Gamma difference cancels.
"""

from __future__ import annotations

import math

from .errors import DomainError

EULER_GAMMA = 0.5772156649015329

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


def digamma_difference(y: float, d: float) -> float:
    """psi(y + d) - psi(y) for y > 0 and d >= 0, free of cancellation: the
    lift to y' >= 10 adds d/((y + d + i)(y + i)), and at y' and x' = y' + d
    the series gives log1p(d/y'), d/(2x'y') and the divided difference of its
    tail in w = 1/y^2 times w_y - w_x = d (x' + y')/(x'^2 y'^2). For
    psi(ns + 1) - psi(s + 1) it was within 2 ulps of 40-digit mpmath at s in
    {1e-5, 1e-3, 1/2, 1, 7, 1e3, 1e6, 1e12} and n in {2, 3, 16, 64}, and 3.1
    ulps at 4000 log-uniform s in [1e-5, 1e12], n <= 200; two digammas'
    difference was 8.4e4 ulps off at s = 1e-5."""
    if not (y > 0 and d >= 0):
        raise DomainError(f"digamma_difference requires y > 0 and d >= 0, got y={y!r}, d={d!r}")
    lift = max(0, math.ceil(_PSI_FROM - y))
    terms = [d / ((y + d + i) * (y + i)) for i in range(lift)]
    y, x = y + lift, y + lift + d
    w_y, w_x = 1.0 / (y * y), 1.0 / (x * x)
    # Horner on (p(w_x) - p(w_y))/(w_x - w_y) for p(w) = w * sum_k c_k w^k
    p = slope = 0.0
    for c in reversed((0.0, *_PSI_SERIES)):
        slope = slope * w_y + p
        p = p * w_x + c
    terms += [math.log1p(d / y), d / (2.0 * x * y), slope * (d * w_x) * ((x + y) * w_y)]
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
    ``math.fsum``. At integer a the ratio is the product alone. The error of
    the fractional part is within 4 ulps for x >= 1/2, and each factor of the
    integer part adds at most one. Below x = 1/2 the lift's first term
    log1p(d/x) grows to ln(1/x), and exp() turns its rounding into relative
    error: on 3000 log-uniform x in [1e-5, 1/2] with a uniform in (0, 1) the
    fractional part was within 9 * 2^-52 relative of 40-digit mpmath (8.4 *
    2^-52 at x = 3.5e-5, a = 0.263).
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

