"""Numerical oracles the tests check closed forms and samplers against."""

import math
from fractions import Fraction

import numpy as np
from qmeasure.core import ZERO_TRACE_GUARD
from scipy import integrate, special
from scipy.interpolate import PchipInterpolator


def numeric_cdf(density, lo: float, hi: float):
    """Turn an integrable density on [lo, hi] into a monotone CDF callable.

    The density is integrated piecewise with adaptive quadrature over a
    cosine-clustered grid (dense near both endpoints, where these densities
    may be singular) and interpolated monotonically. Raises ValueError if
    the total mass misses 1 by more than 1e-8.
    """
    nodes = 1600
    t = np.linspace(0.0, np.pi, nodes + 1)
    grid = lo + (hi - lo) * 0.5 * (1.0 - np.cos(t))
    masses = np.empty(nodes)
    for i in range(nodes):
        masses[i], _ = integrate.quad(density, grid[i], grid[i + 1], limit=200)
    cum = np.concatenate([[0.0], np.cumsum(masses)])
    total = cum[-1]
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"density mass is {total!r}, not 1")
    cum = np.maximum.accumulate(cum) / total
    interp = PchipInterpolator(grid, cum)

    def cdf(x):
        return np.clip(interp(np.clip(x, lo, hi)), 0.0, 1.0)

    return cdf


def digamma(x: float) -> float:
    """psi(x) from scipy, within 3e-16 relative of 50-digit mpmath on 3,000
    integer, half-integer and log-uniform points of [0.5, 1e8]."""
    return float(special.psi(x))


def _product(factors) -> int:
    factors = list(factors)
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0] if factors else 1


def gamma_ratio(x: float, a: float) -> float:
    """Gamma(x + a)/Gamma(x) for x > 0 and x + a > 0, with scipy called only
    where it is accurate and exact rational arithmetic for the rest.

    scipy's poch(x, d) is exp(lgamma(x + d) - lgamma(x)) times a product, so
    its error grows with lgamma(x): 2e-11 relative at x ~ 4000, but within
    5e-16 of 50-digit mpmath for x in [0.5, 2) and 0 <= d < 1 (1.4e-15 down to
    x = 0.01). So the fractional part d = a - floor(a) is taken at
    x0 = x - n in [1, 2) (or x0 = x below 2), and the recurrences
    Gamma(x + d)/Gamma(x) = Gamma(x0 + d)/Gamma(x0) prod_{i<n} (x0 + d + i)/(x0 + i)
    and Gamma(x + a)/Gamma(x + d) are evaluated exactly on the binary
    fractions the floats are, then rounded once. Raises OverflowError where
    the ratio leaves the double range.
    """
    m = math.floor(a)
    d = a - m
    n = max(math.floor(x) - 1, 0)
    x0 = x - n  # exact
    # every float here is an integer multiple of 1/q
    q = max(Fraction(v).denominator for v in (x0, d, x, a))
    x0q, dq, xq, aq = (int(Fraction(v) * q) for v in (x0, d, x, a))
    num = _product(x0q + dq + i * q for i in range(n))
    den = _product(x0q + i * q for i in range(n))
    if m >= 0:
        num *= _product(xq + dq + i * q for i in range(m))
        den *= q**m
    else:
        num *= q**-m
        den *= _product(xq + aq + i * q for i in range(-m))
    return float(special.poch(x0, d)) * (num / den)  # num / den rounds once


def radial_density_n2(r, a: float, b: float):
    """The N = 2 radial density 4 (2r)^(2a - 1) (1 - 4r^2)^(b - 1)/B(a, b),
    with 1/B(a, b) = [Gamma(b + a)/Gamma(b)]/Gamma(a) from :func:`gamma_ratio`
    and scipy's gamma, where scipy's own poch(b, a)/gamma(a) loses up to 2e-12
    relative at b ~ 800."""
    r = np.asarray(r, dtype=np.float64)
    shape = 4.0 * (2.0 * r) ** (2.0 * a - 1.0) * (1.0 - 4.0 * r * r) ** (b - 1.0)
    return shape * (gamma_ratio(b, a) / float(special.gamma(a)))


def rational_moment(n: int, nu: int) -> Fraction:
    """The Hilbert-Schmidt moments <Tr rho^nu> at nu = 2, 3, 4, as exact
    fractions."""
    n2 = n * n
    if nu == 2:
        return Fraction(2 * n, n2 + 1)
    if nu == 3:
        return Fraction(5 * n2 + 1, (n2 + 1) * (n2 + 2))
    return Fraction(14 * n**3 + 10 * n, (n2 + 1) * (n2 + 2) * (n2 + 3))


def bidiagonal_purity(n: int, k: int, beta: int) -> Fraction:
    """<Tr rho^2> under the induced measure of symmetry class beta, exactly,
    from the bidiagonal model the sampler draws: B is lower bidiagonal with
    squared diagonal entries x_i ~ chi^2_{beta (k - i)} and squared subdiagonal
    entries y_i ~ chi^2_{beta (n - 1 - i)} (n <= k), all independent, and
    W = B B^T. Tr W is independent of rho = W / Tr W, so the purity is
    E Tr W^2 / E (Tr W)^2, and both are sums of E chi^2_m = m and
    E (chi^2_m)^2 = m (m + 2)."""
    n, k = min(n, k), max(n, k)
    diag = [beta * (k - i) for i in range(n)]
    sub = [beta * (n - 1 - i) for i in range(n - 1)] + [0]
    # T_ii = x_i + y_{i-1} and T_{i+1,i}^2 = x_i y_i
    tr_w2 = sum(Fraction(p * (p + 2)) for p in diag + sub)
    tr_w2 += sum(2 * diag[i] * sub[i - 1] for i in range(1, n))
    tr_w2 += sum(2 * diag[i] * sub[i] for i in range(n))
    total = sum(diag) + sum(sub)
    return tr_w2 / (total * total + 2 * total)


def product_matrix_draws(n: int, s: float, rng: np.random.Generator, count: int):
    """The random draws behind ``count`` ProductDirichlet(n, s) matrices, made
    one sample at a time as the matrix sampler first made them: a row of n
    Gamma(s) variates, redrawn while it sums below ZERO_TRACE_GUARD and then
    divided by its sum, then the sample's 2 n^2 Haar normals. Returns the
    rows (count, n) and the normals (count, 2, n, n)."""
    lam = np.empty((count, n))
    z = np.empty((count, 2, n, n))
    for i in range(count):
        row = rng.gamma(s, 1.0, size=(1, n))
        total = row.sum(axis=1)
        while np.any(total < ZERO_TRACE_GUARD):
            bad = total < ZERO_TRACE_GUARD
            row[bad] = rng.gamma(s, 1.0, size=(int(bad.sum()), n))
            total = row.sum(axis=1)
        lam[i] = (row / total[:, None])[0]
        rng.standard_normal(out=z[i])
    return lam, z
