"""Special functions backing the moment engine.

Laguerre polynomials use the three-term recurrence
x L_m = -(m+1) L_{m+1} + (1+2m) L_m - m L_{m-1},
which is stable forward in m. Gauss-Laguerre nodes come from the eigenvalues
of the Jacobi matrix with a vectorized Newton polish; weights are evaluated
through a running-rescaled recurrence so that the exponentially small weights
deep in the tail keep full relative accuracy (the stock numpy/scipy weight
routines overflow above roughly 150 nodes).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import gammaln, psi

from .errors import DomainError

EULER_GAMMA = float(np.euler_gamma)


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return float(gammaln(x))


def digamma(x: float) -> float:
    """Logarithmic derivative of the Gamma function for x > 0."""
    if x <= 0:
        raise DomainError(f"digamma requires x > 0, got {x!r}")
    return float(psi(x))


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
