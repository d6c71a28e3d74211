"""Closed-form densities, normalization constants and exact moments.

Joint eigenvalue densities are reported with respect to Lebesgue measure on
the (N-1)-dimensional simplex (the trace delta is already eliminated) and
describe unordered eigenvalues; comparisons against descending-sorted samples
must multiply by N!. All normalization constants are assembled in log space
so they stay finite at any dimension. Every exact value is a closed form.

Functions take a measure's parameters, never its name: the N = 2 radial laws
take the Beta parameters (a, b) of u = (l1 - l2)^2, from which the measure
specs of :mod:`qmeasure.ensembles` (``exact_mean``, ``radial_law``) also take
every N = 2 tangle and concurrence mean; they answer which closed form belongs
to which measure.

Every function here runs on numpy and the stdlib, through the kernels of
:mod:`qmeasure.special`; only :func:`radial_cdf_n2`, which the verification
battery calls, imports scipy, inside the function.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError
from .special import digamma, gamma_ratio, log_gamma


def log_norm_constant(n: int, k: int, beta: float) -> float:
    """ln C of the induced joint eigenvalue density for symmetry class beta,
    from the Selberg-integral product of Gamma functions in log space."""
    if not 1 <= n <= k:
        raise DomainError(f"need k >= n >= 1, got n={n}, k={k}")
    if not beta > 0:
        raise DomainError(f"need beta > 0, got {beta}")
    total = log_gamma(k * n * beta / 2.0) + n * log_gamma(1.0 + beta / 2.0)
    for j in range(n):
        total -= log_gamma((k - j) * beta / 2.0) + log_gamma(1.0 + (n - j) * beta / 2.0)
    return total


def _lam_checked(lam, n: int) -> np.ndarray:
    v = np.asarray(lam.values if hasattr(lam, "values") else lam, dtype=np.float64)
    if v.ndim != 1 or v.size != n:
        raise DomainError(f"expected {n} eigenvalues, got shape {v.shape}")
    if np.any(v < 0):
        raise DomainError("eigenvalues must be nonnegative")
    return v


def joint_eigenvalue_density(lam, n: int, k: int, beta: int) -> float:
    """Normalized joint density of unordered eigenvalues on the simplex:

        C * prod_i l_i^((beta(k-n) + beta - 2)/2) * prod_{i<j} |l_i - l_j|^beta
    """
    v = _lam_checked(lam, n)
    if not 1 <= n <= k:
        raise DomainError(f"need k >= n >= 1, got n={n}, k={k}")
    a = (beta * (k - n) + beta - 2) / 2.0
    diffs = v[:, None] - v[None, :]
    off = np.abs(diffs[np.triu_indices(n, 1)])
    if np.any(off == 0.0) and n > 1:
        return 0.0
    zero = v == 0.0
    if np.any(zero):
        if a > 0:
            return 0.0
        if a < 0:
            return math.inf
    log_dens = log_norm_constant(n, k, beta) + beta * np.sum(np.log(off))
    if a != 0:
        log_dens += a * np.sum(np.log(v[~zero]))
    return float(np.exp(log_dens))


def _bures_log_density(v: np.ndarray, n: int) -> float:
    if n == 1:
        return 0.0
    iu = np.triu_indices(n, 1)
    diffs = (v[:, None] - v[None, :])[iu]
    if np.any(diffs == 0.0):
        return -math.inf
    if np.any(v == 0.0):
        return math.inf
    sums = (v[:, None] + v[None, :])[iu]
    return float(-0.5 * np.sum(np.log(v)) + np.sum(2.0 * np.log(np.abs(diffs)) - np.log(sums)))


def log_bures_norm_constant(n: int) -> float:
    """ln C_N of the Bures eigenvalue density, from the closed form

        C_N = 2^(N^2 - N) Gamma(N^2/2) / (pi^(N/2) prod_{j=1}^N j!)

    of Sommers and Zyczkowski (quant-ph/0304041), entirely in log space.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    total = (n * n - n) * math.log(2.0) + log_gamma(n * n / 2.0) - (n / 2.0) * math.log(math.pi)
    for j in range(1, n + 1):
        total -= log_gamma(j + 1.0)
    return total


def bures_norm_constant(n: int) -> float:
    """Normalization constant C_N of the Bures eigenvalue density: 2/pi,
    35/pi and 71680/pi^2 for N = 2, 3, 4. From N = 20 on it exceeds the
    double range; :func:`log_bures_norm_constant` covers every N."""
    try:
        return math.exp(log_bures_norm_constant(n))
    except OverflowError:
        raise DomainError(f"Bures constant overflows a double at n={n}") from None


def bures_joint_density(lam, n: int) -> tuple[float, float]:
    """(unnormalized, normalized) Bures joint density; the normalized value
    adds ln C_N to the log density, so it is finite wherever it is
    representable, at every n."""
    log_dens = _bures_log_density(_lam_checked(lam, n), n)
    return float(np.exp(log_dens)), float(np.exp(log_dens + log_bures_norm_constant(n)))


def bures_purity_exact(n: int) -> float:
    """<Tr rho^2> = (5n^2 + 1)/(2n(n^2 + 2)) under the Bures measure (Osipov,
    Sommers and Zyczkowski, arXiv:0909.5094); 7/8 at n = 2."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return (5.0 * n * n + 1.0) / (2.0 * n * (n * n + 2.0))


def bures_mean_entropy_exact(n: int) -> float:
    """Mean von Neumann entropy psi(n^2/2 + 1) - psi(n + 1/2) under the Bures
    measure (Sarkar and Kumar, arXiv:1901.09587); 2 ln 2 - 7/6 at n = 2."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return digamma(n * n / 2.0 + 1.0) - digamma(n + 0.5)


def _scalar_or_array(x, out):
    out = np.asarray(out, dtype=np.float64)
    return float(out) if np.ndim(x) == 0 else out


def _need_beta_params(a: float, b: float) -> None:
    if not (a > 0 and b > 0):
        raise DomainError(f"need Beta parameters a, b > 0, got a={a}, b={b}")


def radial_density_n2(r, a: float, b: float):
    """Radial (Bloch-ball) eigenvalue density for N=2 on r in [0, 1/2), for
    the law under which u = 4r^2 = (l1 - l2)^2 is a Beta(a, b) variate; a
    measure spec gives its (a, b) by ``radial_law()``. The density in r,
    4 (2r)^(2a-1) (1 - 4r^2)^(b-1)/B(a, b), accepts scalars or arrays.
    """
    rv = np.asarray(r, dtype=np.float64)
    if np.any((rv < 0.0) | (rv >= 0.5)):
        raise DomainError(f"radius must lie in [0, 1/2), got {r!r}")
    _need_beta_params(a, b)
    shape = 4.0 * (2.0 * rv) ** (2.0 * a - 1.0) * (1.0 - 4.0 * rv * rv) ** (b - 1.0)
    # 1/B(a, b) = [Gamma(b + a)/Gamma(b)]/Gamma(a) stays finite where
    # Gamma(a + b) overflows
    return _scalar_or_array(r, shape * (gamma_ratio(b, a) / math.gamma(a)))


def radial_cdf_n2(r, a: float, b: float):
    """CDF of :func:`radial_density_n2`: the regularized incomplete Beta
    function I_{4r^2}(a, b), on r in [0, 1/2]."""
    from scipy.special import betainc

    rv = np.asarray(r, dtype=np.float64)
    if np.any((rv < 0.0) | (rv > 0.5)):
        raise DomainError(f"radius must lie in [0, 1/2], got {r!r}")
    _need_beta_params(a, b)
    return _scalar_or_array(r, betainc(a, b, 4.0 * rv * rv))


def induced_moment_exact(n: int, k: int, nu: float) -> float:
    """<Tr rho^nu> under the induced measure (beta = 2), from the Laguerre
    kernel: with N = min(n, k) and a = |k - n| it is Gamma(nk)/Gamma(nk + nu)
    sum_{m<N} m!/Gamma(m+a+1) sum_{j<=m} C(nu, m-j)^2 Gamma(a+nu+j+1)/j!.
    Every term is nonnegative and comes from its m = j neighbour by a ratio
    recurrence in d = m - j, so no factorial overflows. The Gamma ratios come
    from :func:`~qmeasure.special.gamma_ratio`, a plain product at integer nu.
    Where Gamma(nk + nu)/Gamma(nk) leaves the double range (from nu ~ 140 at
    nk = 64, or at large negative nu), the m = j seeds carry it instead:
    Gamma(a + j + 1 + nu)/Gamma(a + j + 1) over Gamma(nk + nu)/Gamma(nk) is
    the product of x/(x + nu) over the integers x from a + j + 1 to nk - 1,
    and no partial product exceeds the largest seed. It needs nu > n - k - 1
    for k >= n, and nu > 0 for k < n, where rho has n - k zero eigenvalues.
    DomainError is raised where a seed underflows, which would lose the terms
    grown from it (huge nu, from ~1e39 at n = k = 3, and nu = inf wherever
    min(n, k) > 1; at min(n, k) = 1 rho is pure and the moment is 1), and
    where the moment exceeds the double range."""
    if n < 1 or k < 1:
        raise DomainError(f"need n, k >= 1, got n={n}, k={k}")
    lowest = n - k - 1 if k >= n else 0
    if not nu > lowest:
        raise DomainError(f"need nu > {lowest} at n={n}, k={k}, got {nu}")
    size, a = min(n, k), abs(k - n)
    j = np.arange(size, dtype=np.float64)
    scale = gamma_ratio(n * k, nu)
    # an overflow leaves inf in the value, which is refused below
    with np.errstate(over="ignore"):
        if 0 < scale < math.inf:
            # one division at the end keeps integer nu exact: (2, 2, 2) gives
            # 0.8; d = 0: Gamma(a + nu + j + 1)/Gamma(a + j + 1)
            terms = np.array([gamma_ratio(a + i + 1.0, nu) for i in range(size)])
        else:
            # suffix products of x/(x + nu); the empty product is 1 when N = 1
            x = np.arange(a + 1.0, n * k)
            terms = np.append(np.cumprod((x / (x + nu))[::-1])[::-1], 1.0)[:size]
            if not terms.min() >= sys.float_info.min:
                raise DomainError(f"<Tr rho^nu> at n={n}, k={k}, nu={nu} cannot be "
                                  "evaluated in double precision: its terms underflow")
            scale = 1.0
        total = terms.sum()
        for d in range(1, size):
            jd = j[: size - d] + d
            c = (nu - d + 1) / d  # c * c rounds correctly; c ** 2 calls libm's pow
            # a nu above 1e154, whose square overflows, has underflowed a seed
            terms = terms[:-1] * (c * c) * jd / (a + jd)
            total += terms.sum()
    value = float(total / scale)
    if not value < math.inf:
        raise DomainError(f"<Tr rho^nu> at n={n}, k={k}, nu={nu} exceeds the double range")
    if (nu > 0 and not value > 0) or (nu == 1 and abs(value - 1.0) > 1e-10):
        raise ValueError(f"<Tr rho^nu> at nu={nu} must be positive, and 1 at nu=1; got {value!r}")
    return value


def hs_moment_exact(n: int, nu: float) -> float:
    """<Tr rho^nu> under the Hilbert-Schmidt measure (k = n)."""
    return induced_moment_exact(n, n, nu)


def purity_induced_exact(n: int, k: int, beta: int = 2) -> float:
    """<Tr rho^2> = (beta (n + k) + 2 - beta)/(beta nk + 2) under the induced
    measure of symmetry class beta; (n + k)/(nk + 1) at beta = 2, to the
    bit. Symmetric in n and k."""
    if n < 1 or k < 1:
        raise DomainError(f"need n, k >= 1, got n={n}, k={k}")
    return (beta * (n + k) + 2 - beta) / (beta * n * k + 2)


def dirichlet_moment_exact(n: int, s: float, nu: float) -> float | None:
    """<Tr rho^nu> = n Gamma(s + nu) Gamma(ns)/(Gamma(s) Gamma(ns + nu)) for
    Dirichlet(s) eigenvalues, each a Beta(s, (n - 1) s) variate; finite for
    nu > -s, and 1 at n = 1. None where the moment leaves the normal double
    range. Against 40-digit mpmath at n in {2, 3, 16, 64} and nu in
    {-0.9 s, -s/2, 0.3, 0.5, 1, 1.5, 2, 2.5, 3, 4, 7.3, 20} it was within
    6 ulps for s from 0.3 to 1e12 and within 18 ulps at s = 1e-5, where the
    Gamma ratios of tiny arguments lose the most. Where one of the two Gamma
    ratios leaves the double range, :func:`_dirichlet_moment_by_products`
    takes over."""
    if n == 1:
        return 1.0
    if not nu > -s:
        raise DomainError(f"need nu > {-s} at n={n}, s={s}, got {nu}")
    top, bottom = gamma_ratio(s, nu), gamma_ratio(n * s, nu)
    if min(top, bottom) >= sys.float_info.min and max(top, bottom) < math.inf:
        moment = n * (top / bottom)
    elif nu == math.inf:
        return None  # every eigenvalue below 1 vanishes
    else:
        moment = _dirichlet_moment_by_products(n, s, nu)
    return moment if sys.float_info.min <= moment < math.inf else None


def _dirichlet_moment_by_products(n: int, s: float, nu: float) -> float:
    """The moment of :func:`dirichlet_moment_exact` where a Gamma ratio
    leaves the double range though the moment may not.

    It is n [Gamma(x + t)/Gamma(x)]/[Gamma(y + t)/Gamma(y)] with x = s and
    either (y, t) = (ns, nu), or (s + nu, c) when nu > c = (n - 1) s: the
    smaller shift. The fractional part f of t comes from ``gamma_ratio``; its
    integer part k is one product of (x + f + i)/(y + f + i) over i < k (of
    (y + t + i)/(x + t + i) over i < -k when t < 0), exact over the binary
    fractions the floats are, and the whole is rounded once. Each factor is
    at most 3/4, or at least 2 when t < 0, so the loop stops within about
    2600 factors, once the product has left the double range for good.
    Within 4 ulps of 40-digit mpmath on the cases the tests check; 0 or inf
    out of range."""
    from fractions import Fraction

    x, t, c = Fraction(s), Fraction(nu), (n - 1) * Fraction(s)
    y = n * x
    if t > c:
        y, t = x + t, c
    k = math.floor(t)
    f = t - k
    q = max(v.denominator for v in (x, y, f))
    xq, yq, tq = (int(v * q) for v in (x, y, t))
    if k >= 0:
        xq, yq = xq + tq - k * q, yq + tq - k * q  # x + f and y + f
    else:
        xq, yq = yq + tq, xq + tq  # the reciprocal: y + t over x + t
    num = den = 1
    for i in range(abs(k)):
        num *= xq + i * q
        den *= yq + i * q
        # the product moves away from 1 with every factor; n times the
        # fractional part's ratio is at most n, and at least 1/2 when t < 0
        bits = num.bit_length() - den.bit_length()
        if bits < -1076 - n.bit_length():
            return 0.0
        if bits > 1027:
            return math.inf
    ratio = gamma_ratio(float(x), float(f)) / gamma_ratio(float(y), float(f))
    ratio_num, ratio_den = ratio.as_integer_ratio()
    try:
        return n * ratio_num * num / (ratio_den * den)
    except OverflowError:
        return math.inf


def induced_mean_entropy_exact(n: int, k: int) -> float:
    """Mean von Neumann entropy under the induced measure, Page's formula
    (PRL 71 (1993) 1291) psi(nk + 1) - psi(K + 1) - (N - 1)/(2K) with
    N = min(n, k) and K = max(n, k); symmetric in n and k."""
    if n < 1 or k < 1:
        raise DomainError(f"need n, k >= 1, got n={n}, k={k}")
    small, big = min(n, k), max(n, k)
    return digamma(n * k + 1.0) - digamma(big + 1.0) - (small - 1) / (2.0 * big)


def hs_mean_entropy_exact(n: int) -> float:
    """Mean entropy under the Hilbert-Schmidt measure (k = n); ~ ln n - 1/2."""
    return induced_mean_entropy_exact(n, n)


def pure_state_mean_entropy_exact(n: int) -> float:
    """Mean Shannon entropy -sum p_i ln p_i of the squared moduli of a random
    n-dimensional pure state (uniform on the simplex): psi(n + 1) - psi(2),
    which is the harmonic number H_n minus 1; ~ ln n - 1 + gamma."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return digamma(n + 1.0) - digamma(2.0)


def uniform_rescale_cdf_n2(y):
    """CDF of y1/(y1+y2) for independent uniform y1, y2, whose density is
    1/(2(1-y)^2) below 1/2 and its mirror image above."""
    yv = np.asarray(y, dtype=np.float64)
    if np.any((yv < 0.0) | (yv > 1.0)):
        raise DomainError(f"argument must lie in [0, 1], got {y!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(yv <= 0.5, 0.5 * yv / (1.0 - yv), 1.0 - 0.5 * (1.0 - yv) / yv)
    return _scalar_or_array(y, out)
