"""Numerical oracles the tests check closed forms and samplers against."""

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from qmeasure.errors import QuadratureFailure


def numeric_cdf(density, lo: float, hi: float):
    """Turn an integrable density on [lo, hi] into a monotone CDF callable.

    The density is integrated piecewise with adaptive quadrature over a
    cosine-clustered grid (dense near both endpoints, where these densities
    may be singular) and interpolated monotonically. Raises QuadratureFailure
    if the total mass misses 1 by more than 1e-8.
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
        raise QuadratureFailure(f"density mass is {total!r}, not 1")
    cum = np.maximum.accumulate(cum) / total
    interp = PchipInterpolator(grid, cum)

    def cdf(x):
        return np.clip(interp(np.clip(x, lo, hi)), 0.0, 1.0)

    return cdf
