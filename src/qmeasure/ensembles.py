"""Random ensembles: Gaussian matrices, Haar unitaries, pure states and
density matrices drawn under induced, product-Dirichlet and Bures measures.

All randomness flows through :class:`RandomStream`, a counter-based Philox
generator keyed on a (seed, stream) pair. Identical pairs replay identical
sequences; distinct stream indices give statistically independent substreams,
which is how parallel workers stay reproducible.

Complex Gaussian entries have independent unit-variance real and imaginary
parts, so E|a|^2 = 2. The overall scale cancels in every normalized output.

:func:`sample_spectra`, :func:`sample_matrices` and the battery's
purification route share one batch loop, which uses every CPU the process may
run on for the per-row linear algebra. Their output does not depend on the
CPU count: each chunk's RNG draws are made on the calling thread in stream
order, and only the matrix formation, eigensolve, normalisation and checks of
independent rows are spread over one shared, lazily created thread pool.
Induced spectra at n <= 4 are the exception: their eigenvalues come from
column arithmetic over blocks of rows on the calling thread
(:func:`_small_tridiagonal_eigvals`). At n = 3 that is O. K. Smith's
trigonometric closed form, within 1e-13 of the largest eigenvalue from
``eigvalsh`` and more accurate in the smallest; at n = 2 and 4 it is a copy
of LAPACK's dsterf with ``eigvalsh``'s bits.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import analytics
from .core import (
    BipartitePureState,
    DensityMatrix,
    ZERO_TRACE_GUARD,
    _row_sums,
    partial_trace,
    validate_density_matrices,
)
from .errors import ZeroMatrix
from .special import digamma_difference, gamma_ratio


@dataclass
class RandomStream:
    """Reproducible randomness source keyed on (seed, stream)."""

    seed: int
    stream: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 <= self.seed < 2**64 and 0 <= self.stream < 2**64):
            raise ValueError("seed and stream must be unsigned 64-bit integers")
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    @property
    def rng(self) -> np.random.Generator:
        return self._gen


def _need_n2(measure) -> None:
    if measure.n != 2:
        raise ValueError(f"radial densities are defined for N=2 only, got n={measure.n}")


class _Measure:
    """What a measure spec answers for itself besides its samples: its JSON
    record (``to_json``), its closed-form means (``exact_mean``), the Beta law
    of its N = 2 radial variable (``radial_law``) and the exponents at which
    its moments are finite (``moment_domain``)."""

    def exact_mean(self, functional: str, nu: float | None = None) -> float | None:
        """The closed-form mean of ``functional`` under this measure
        (``trace_power`` with exponent ``nu``), or None where none is known.
        The participation ratio is 1 / <Tr rho^2>. At N = 2 the tangle 1 - u
        and concurrence (1 - u)^(1/2), with u ~ Beta(a, b) the ``radial_law``,
        have the means b/(a + b) and B(a, b + 1/2)/B(a, b), the latter within
        2.5 ulps of 40-digit mpmath on the tested laws. An exponent outside
        the moment's domain raises DomainError."""
        if functional == "participation_ratio":
            purity = self._exact("purity", None)
            return None if purity is None else 1.0 / purity
        if functional in ("tangle", "concurrence"):
            try:
                a, b = self.radial_law()
            except ValueError:
                return None
            if functional == "tangle":
                return b / (a + b)
            return gamma_ratio(b, 0.5) / gamma_ratio(a + b, 0.5)
        if functional == "trace_power" and nu is None:
            return None
        return self._exact(functional, nu)


@dataclass(frozen=True)
class Induced(_Measure):
    """Spectra of reduced states of Haar pure states on an n x k system.

    beta=2 is the complex (unitary) symmetry class; k=n reproduces the
    Hilbert-Schmidt measure. beta=1 is the real class, beta=4 symplectic.
    Every (n, k, beta) is sampled exactly by one beta-Laguerre bidiagonal
    model; for k < n the trailing n - k eigenvalues are exactly zero.
    """

    n: int
    k: int
    beta: int = 2

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n, k >= 1, got n={self.n}, k={self.k}")
        if self.beta not in (1, 2, 4):
            raise ValueError(f"beta must be 1, 2 or 4, got {self.beta}")

    def to_json(self) -> dict:
        return {"kind": "induced", "n": self.n, "k": self.k, "beta": self.beta}

    def _exact(self, functional: str, nu: float | None) -> float | None:
        # the purity at every beta; Page's entropy and the Laguerre-sum moment at beta = 2
        n, k = self.n, self.k
        if functional == "purity":
            return analytics.purity_induced_exact(n, k, self.beta)
        if self.beta != 2:
            return None
        if functional == "entropy":
            return analytics.induced_mean_entropy_exact(n, k)
        if functional == "trace_power":
            return analytics.induced_moment_exact(n, k, nu)
        return None

    def radial_law(self) -> tuple[float, float]:
        """(a, b) of the Beta law of u = (l1 - l2)^2 at n = 2 and k >= 2:
        ((beta + 1)/2, beta (k - 1)/2), from the joint density
        (l1 l2)^(beta (k - 1)/2 - 1) |l1 - l2|^beta."""
        _need_n2(self)
        if self.k < 2:
            raise ValueError(f"the induced radial law needs k >= 2, got k={self.k}")
        return (self.beta + 1) / 2.0, self.beta * (self.k - 1) / 2.0

    def moment_domain(self) -> float:
        """<Tr rho^nu> is finite iff nu exceeds this: -beta (k - n + 1)/2 for
        k >= n, where the smallest eigenvalue has density
        ~ l^(beta (k - n + 1)/2 - 1) near 0, and 0 for k < n, where n - k
        eigenvalues are exactly 0."""
        return -self.beta * (self.k - self.n + 1) / 2.0 if self.k >= self.n else 0.0


# The Dirichlet exponents that can be sampled. Below DIRICHLET_S_MIN most
# Gamma(s) variates underflow to 0 and redrawing the all-zero rows dominates:
# 10^4 rows at n = 2 took 0.004 s at s = 1e-3, 0.16 s at 1e-5 and 1.7 s at
# 1e-6 (2 CPUs), and at 1e-300 the redraw never ends. A row's variates sum
# to about n * s, which must stay below DIRICHLET_TOTAL_MAX to stay finite.
DIRICHLET_S_MIN, DIRICHLET_TOTAL_MAX = 1e-5, 1e300


@dataclass(frozen=True)
class ProductDirichlet(_Measure):
    """Haar eigenvectors with Dirichlet(s) eigenvalues; s=1 is the unitary
    product measure, s=1/2 the orthogonal one. Needs
    DIRICHLET_S_MIN <= s <= DIRICHLET_TOTAL_MAX / n."""

    n: int
    s: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if not DIRICHLET_S_MIN <= self.s <= DIRICHLET_TOTAL_MAX / self.n:
            raise ValueError(f"need {DIRICHLET_S_MIN:g} <= s <= "
                             f"{DIRICHLET_TOTAL_MAX:g} / n, got {self.s}")

    def to_json(self) -> dict:
        return {"kind": "product", "n": self.n, "s": self.s}

    def _exact(self, functional: str, nu: float | None) -> float | None:
        # from the Beta(s, (n - 1) s) law of each eigenvalue
        n, s = self.n, self.s
        if functional == "purity":
            return (s + 1.0) / (n * s + 1.0)
        if functional == "entropy":
            return digamma_difference(s + 1.0, (n - 1) * s)
        if functional == "trace_power":
            return analytics.dirichlet_moment_exact(n, s, nu)
        return None

    def radial_law(self) -> tuple[float, float]:
        """(1/2, s): l1 is Beta(s, s), so l1 - l2 has density
        ~ (1 - x^2)^(s - 1) on [-1, 1]."""
        _need_n2(self)
        return 0.5, self.s

    def moment_domain(self) -> float:
        """-s, from the Beta(s, (n - 1) s) marginal of each eigenvalue; -inf at
        n = 1, where the spectrum is (1)."""
        return -self.s if self.n > 1 else -math.inf


@dataclass(frozen=True)
class Bures(_Measure):
    """Bures-metric measure, sampled exactly at any n: a closed form for
    n = 2, the (1 + U) G construction of arXiv:0909.5094 above it."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")

    def to_json(self) -> dict:
        return {"kind": "bures", "n": self.n}

    def _exact(self, functional: str, nu: float | None) -> float | None:
        if functional == "purity":
            return analytics.bures_purity_exact(self.n)
        if functional == "entropy":
            return analytics.bures_mean_entropy_exact(self.n)
        return None

    def radial_law(self) -> tuple[float, float]:
        """(3/2, 1/2), the density 32 r^2 / (pi sqrt(1 - 4 r^2)) in r."""
        _need_n2(self)
        return 1.5, 0.5

    def moment_domain(self) -> float:
        """-1/2, from the factor prod l_i^(-1/2) of the joint density; -inf at
        n = 1."""
        return -0.5 if self.n > 1 else -math.inf


MeasureSpec = Union[Induced, ProductDirichlet, Bures]


def hilbert_schmidt(n: int) -> Induced:
    """Alias: the Hilbert-Schmidt measure equals Induced(n, n, beta=2)."""
    return Induced(n, n, 2)


def gaussian_matrix(rows: int, cols: int, beta: int, stream: RandomStream) -> np.ndarray:
    """Ginibre-type random matrix: complex entries for beta=2 (independent
    standard-normal real and imaginary parts), real entries for beta=1."""
    if rows < 1 or cols < 1:
        raise ValueError(f"need rows, cols >= 1, got {rows} x {cols}")
    if beta == 2:
        z = stream.rng.standard_normal((2, rows, cols))
        return np.ascontiguousarray(z[0] + 1j * z[1])
    if beta == 1:
        return stream.rng.standard_normal((rows, cols)).astype(np.complex128)
    raise ValueError(f"beta must be 1 or 2 for matrix sampling, got {beta}")


def haar_unitary(n: int, stream: RandomStream) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    z = stream.rng.standard_normal((2, n, n))
    return _haar_from_ginibre((z[0] + 1j * z[1])[None])[0]


@dataclass(frozen=True)
class HurwitzAngles:
    """Angle coordinates of a pure state: n-1 azimuthal thetas in [0, pi/2]
    and n-1 polar phis in [0, 2pi)."""

    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        t = np.ascontiguousarray(self.thetas, dtype=np.float64)
        p = np.ascontiguousarray(self.phis, dtype=np.float64)
        if t.ndim != 1 or t.shape != p.shape or t.size < 1:
            raise ValueError("thetas and phis must be equal-length 1-D arrays")
        if np.any((t < 0) | (t > np.pi / 2)):
            raise ValueError("thetas must lie in [0, pi/2]")
        if np.any((p < 0) | (p >= 2 * np.pi)):
            raise ValueError("phis must lie in [0, 2pi)")
        t.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "thetas", t)
        object.__setattr__(self, "phis", p)

    def state(self) -> np.ndarray:
        """Assemble the pure-state amplitudes

            psi_1 = cos(theta_{n-1})
            psi_j = sin(theta_{n-1}) .. sin(theta_{n-j+1}) cos(theta_{n-j}) e^{i phi_{n-j+1}}

        with theta_0 = 0, so the trailing component carries phi_1.
        """
        n = self.thetas.size + 1
        sines = np.sin(self.thetas)
        cosines = np.cos(self.thetas)
        psi = np.empty(n, dtype=np.complex128)
        psi[0] = cosines[n - 2]
        tail = 1.0
        for j in range(2, n + 1):
            tail *= sines[n - j]
            cos_fac = cosines[n - j - 1] if j < n else 1.0
            psi[j - 1] = tail * cos_fac * np.exp(1j * self.phis[n - j])
        return psi


def hurwitz_angles(n: int, stream: RandomStream) -> HurwitzAngles:
    """Draw Hurwitz angles for the natural measure: phi_k uniform on [0, 2pi)
    and theta_k = arcsin(xi_k^(1/2k)) with xi_k uniform on [0, 1], realizing
    the azimuthal density k sin(2 theta) (sin theta)^(2k-2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = stream.rng
    xi = rng.random(n - 1)
    phi = rng.random(n - 1) * 2.0 * np.pi
    k = np.arange(1, n)
    theta = np.arcsin(xi ** (1.0 / (2.0 * k)))
    return HurwitzAngles(theta, phi)


def pure_state_hurwitz(n: int, stream: RandomStream) -> np.ndarray:
    """Random pure state assembled from Hurwitz angles; same distribution as
    :func:`pure_state_gaussian` of matching dimension."""
    return hurwitz_angles(n, stream).state()


def pure_state_gaussian(m: int, stream: RandomStream) -> np.ndarray:
    """Random pure state: m standard complex Gaussians scaled to unit norm.

    The squared moduli are uniform on the (m-1)-simplex, so this agrees with
    the Hurwitz construction in distribution.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    rng = stream.rng
    while True:
        z = rng.standard_normal((2, m))
        v = z[0] + 1j * z[1]
        norm = np.linalg.norm(v)
        if norm > ZERO_TRACE_GUARD:
            return v / norm


def induced_density_matrix(n: int, k: int, beta: int, stream: RandomStream) -> DensityMatrix:
    """Density matrix A A^dag / tr(A A^dag) of an n x k Gaussian matrix, real
    for beta=1 and complex for beta=2: the count=1 case of
    :func:`sample_matrices`."""
    return DensityMatrix(sample_matrices(Induced(n, k, beta), 1, stream)[0])


def induced_via_purification(n: int, k: int, stream: RandomStream) -> DensityMatrix:
    """Same induced measure obtained by partial-tracing a random pure state
    of the n x k composite system."""
    psi = pure_state_gaussian(n * k, stream).reshape(n, k)
    return partial_trace(BipartitePureState(psi), side="B")


def product_measure_density_matrix(n: int, s: float, stream: RandomStream) -> DensityMatrix:
    """Rotationally invariant state with Dirichlet(s) spectrum and Haar
    eigenvectors: the count=1 case of :func:`sample_matrices`."""
    return DensityMatrix(sample_matrices(ProductDirichlet(n, s), 1, stream)[0])


def bures_density_matrix(n: int, stream: RandomStream) -> DensityMatrix:
    """Bures-distributed state (1 + U) G G^dag (1 + U)^dag / tr(.), with U
    Haar and G an n x n complex Ginibre matrix (Osipov, Sommers and
    Zyczkowski, arXiv:0909.5094): the count=1 case of
    :func:`sample_matrices`."""
    return DensityMatrix(sample_matrices(Bures(n), 1, stream)[0])


def sample_spectra(measure: MeasureSpec, count: int, stream: RandomStream) -> np.ndarray:
    """Draw ``count`` spectra under ``measure`` as a (count, n) array, each row
    sorted descending. This is the bulk engine behind the Monte Carlo layer.

    Induced spectra come from the beta-Laguerre bidiagonal model for every
    beta, product-Dirichlet spectra from normalized Gamma variates, and Bures
    spectra from a closed form at n = 2 and the (1 + U) G construction above.
    Every route is exact and rejection-free. Large calls run their per-row
    linear algebra on every CPU the process may run on, except induced
    spectra at n <= 4, whose eigensolve runs on the calling thread; the
    output is the same on any number of CPUs. Induced spectra at n = 3 (and
    k = 3 < n) take their eigenvalues from a closed form, which agrees with
    a dense ``eigvalsh`` within 1e-13 of the largest eigenvalue and keeps the
    smallest accurate to relative rounding; every other induced spectrum has
    ``eigvalsh``'s bits.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    rng = stream.rng
    if isinstance(measure, Induced):
        return _laguerre_spectra(measure.n, measure.k, measure.beta, count, rng)
    if isinstance(measure, ProductDirichlet):
        return _sort_rows_descending(_dirichlet_rows(measure.n, measure.s, rng, count))
    if isinstance(measure, Bures):
        return _bures_spectra(measure.n, count, rng)
    raise TypeError(f"unknown measure spec: {measure!r}")


def sample_matrices(measure: MeasureSpec, count: int, stream: RandomStream) -> np.ndarray:
    """Draw ``count`` density matrices under ``measure`` as a validated
    (count, n, n) complex128 array, the batched twin of :func:`sample_spectra`.

    Matrix i is bit-identical to the i-th of ``count`` successive
    single-matrix draws (``induced_density_matrix`` and its siblings) from
    the same stream: each sample consumes the same RNG words in the same
    order, and the linear algebra runs on row slices of whole chunks, on
    every CPU for large calls, with the same bytes on any number of CPUs.

    - Induced, beta = 1 or 2: A A^dag / tr(A A^dag) for an n x k real or
      complex Gaussian A. beta = 4 has no matrix-level sampler.
    - ProductDirichlet: U diag(lambda) U^dag with lambda a Dirichlet(s) point
      sorted descending and U Haar.
    - Bures: (1 + U) G G^dag (1 + U)^dag / tr(.), U Haar, G complex Ginibre.

    Every matrix is then scrubbed to (W + W^dag)/2 and checked Hermitian,
    unit-trace and positive semidefinite.
    """
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    rng = stream.rng
    n = measure.n
    cols = n
    # draw(m) makes one chunk's RNG calls; form(*row_slices) builds those
    # rows' matrices and consumes no RNG words
    if isinstance(measure, Induced):
        if measure.beta == 4:
            raise ValueError("beta=4 has no matrix-level sampler")
        cols, beta = measure.k, measure.beta

        def draw(m: int) -> tuple[np.ndarray]:
            if beta == 2:
                return (rng.standard_normal((m, 2, n, cols)),)
            return (rng.standard_normal((m, n, cols)),)

        def form(z: np.ndarray) -> np.ndarray:
            return _normalized_gram(z[:, 0] + 1j * z[:, 1] if beta == 2 else z.astype(np.complex128))
    elif isinstance(measure, ProductDirichlet):
        s = measure.s

        def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
            # Gamma variates take a variable number of RNG words, so the
            # per-sample order (Dirichlet row, redrawn as _dirichlet_rows
            # does, then 2 n^2 normals) is kept
            lam = np.empty((m, n))
            z = np.empty((m, 2, n, n))
            gamma, normal = rng.gamma, rng.standard_normal
            for i in range(m):
                row = gamma(s, 1.0, size=(1, n))
                while _row_sums(row)[0] < ZERO_TRACE_GUARD:
                    row = gamma(s, 1.0, size=(1, n))
                lam[i] = row[0]
                normal(out=z[i])
            return lam / _row_sums(lam)[:, None], z

        def form(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
            u = _haar_from_ginibre(z[:, 0] + 1j * z[:, 1])
            u_lam = u * np.sort(lam, axis=1)[:, None, ::-1]
            return u_lam @ np.swapaxes(u.conj(), 1, 2)
    elif isinstance(measure, Bures):

        def draw(m: int) -> tuple[np.ndarray]:
            return (rng.standard_normal((m, 4, n, n)),)

        def form(z: np.ndarray) -> np.ndarray:
            u = _haar_from_ginibre(z[:, 0] + 1j * z[:, 1])
            return _normalized_gram((u + np.eye(n)) @ (z[:, 2] + 1j * z[:, 3]))
    else:
        raise TypeError(f"unknown measure spec: {measure!r}")

    def finish(*drawn: np.ndarray) -> np.ndarray:
        w = form(*drawn)
        w = 0.5 * (w + np.swapaxes(w.conj(), 1, 2))  # scrub roundoff asymmetry
        validate_density_matrices(w)
        return w

    out = np.empty((count, n, n), dtype=np.complex128)
    return _batched(out, max(1, _CHUNK_ENTRIES // (8 * n * max(n, cols))), draw, finish)


# ---------------------------------------------------------------------------
# batched internals

_CHUNK_ENTRIES = 2 * 10**7


# CPUs this process may run on: its affinity mask where the OS has one
if hasattr(os, "sched_getaffinity"):
    _THREADS = len(os.sched_getaffinity(0))
else:
    _THREADS = os.cpu_count() or 1
# The fewest matrix entries (rows x n^2) worth a slice of their own. Timed on
# 2 CPUs (median of 7-60 alternating calls, sample_spectra at 2^14..2^17
# entries per call), the pool against the inline finish took 0.92-1.36x the
# time at 2^14 entries, 0.75-1.28x at 2^15 (Induced(64,64) the slowest) and
# 0.70-0.97x at 2^16 for every Induced n <= 64 and Bures n = 3, 5, 8. So two
# slices of 2^15 entries each are the smallest split that paid everywhere.
# The finishes that use the pool are the dense eigvalsh of induced spectra
# (n > _DSTERF_MAX_N, or n = 4 with fewer than _DSTERF_MIN_ROWS rows), Bures
# n >= 3 spectra, the purification route and every sample_matrices measure;
# the n = 3 closed form and the dsterf kernel run inline (see _DSTERF_MAX_N).
_SLICE_ENTRIES = 2**15
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The process's one finish-stage pool, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_THREADS, thread_name_prefix="qmeasure-finish")
        return _pool


def _forget_pool_after_fork() -> None:
    # a forked child inherits the pool object but none of its threads, so a
    # task submitted to it would never run; the child makes its own pool
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool_after_fork)


def _finish_rows(finish, rows: int, n: int) -> None:
    """Run ``finish(lo, hi)`` over [0, rows) of n x n matrices: as up to one
    contiguous slice per CPU on the shared pool, each of at least
    ``_SLICE_ENTRIES`` entries, or inline when that makes one slice."""
    parts = min(_THREADS, rows * n * n // _SLICE_ENTRIES)
    if parts <= 1:
        finish(0, rows)
        return
    bounds = [rows * p // parts for p in range(parts + 1)]
    pool = _executor()
    futures = [pool.submit(finish, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    wait(futures)
    for f in futures:
        f.result()


def _laguerre_spectra(n: int, k: int, beta: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted, trace-normalized beta-Wishart spectra, in batches.

    Dumitriu-Edelman model (arXiv:math-ph/0206043): B is lower bidiagonal
    with diagonal chi_{beta k}, chi_{beta (k-1)}, ..., chi_{beta (k-n+1)} and
    subdiagonal chi_{beta (n-1)}, ..., chi_beta, and the eigenvalues of the
    tridiagonal T = B B^T have the n x k beta-Wishart law. For k < n the
    nonzero eigenvalues are those of the k x n problem, padded with zeros.
    """
    if k < n:
        out = np.zeros((count, n))
        out[:, :k] = _laguerre_spectra(k, n, beta, count, rng)
        return out
    if n == 1:
        return np.ones((count, 1))
    diag_df = beta * (k - np.arange(n))
    sub_df = beta * np.arange(n - 1, 0, -1)

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        return rng.chisquare(diag_df, size=(m, n)), rng.chisquare(sub_df, size=(m, n - 1))

    chunk = max(1, _CHUNK_ENTRIES // (n * n))
    if n == 3:
        solve = _trigonometric_eigvals
    elif n == 2 or (n <= _DSTERF_MAX_N and count >= _DSTERF_MIN_ROWS):
        solve = _dsterf
    else:
        return _batched_spectra(n, count, chunk, draw, _tridiagonal_eigvals)
    eigvals = functools.partial(_small_tridiagonal_eigvals, solve=solve)
    return _batched_spectra(n, count, chunk, draw, eigvals, pooled=False)


# n = 3 takes the closed form at any count. The dsterf kernel serves every
# call at n = 2, and calls of at least _DSTERF_MIN_ROWS rows at n = 4; both
# run inline, as their numpy calls on blocks of rows hold the GIL between
# them. Timed on 2 CPUs (sample_spectra, median of 21-25 alternating calls)
# against the dense route on the pool, the kernel took 0.80x the time at
# (n, k) = (4, 4) with 2048 rows and 0.87x from 2500 to 10^5 rows, but 1.42x
# at 512 rows, where its fixed cost of some hundred numpy calls per stage
# dominates. At n = 5 it took 0.88-1.11x, a tie, and at n = 6 1.03-1.19x.
# On the pool, in slices of at least 2^15 entries, it took 1.7-1.9x at 5000
# rows and 0.74-1.05x at 10^5 rows, no better than inline.
_DSTERF_MAX_N, _DSTERF_MIN_ROWS = 4, 2048


def _tridiagonal_eigvals(d2: np.ndarray, e2: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of T = B B^T for the lower bidiagonal B with
    squared diagonals ``d2`` (m, n) and squared subdiagonals ``e2``
    (m, n - 1), by a batched ``eigvalsh`` of the dense T."""
    # eigvalsh reads only the lower triangle, so the superdiagonal stays 0;
    # the diagonal and subdiagonal are strided views of the flat rows
    m, n = d2.shape
    t = np.zeros((m, n, n))
    flat = t.reshape(m, n * n)
    flat[:, :: n + 1] = d2
    flat[:, n + 1 :: n + 1] += e2
    flat[:, n :: n + 1] = np.sqrt(d2[:, :-1] * e2)
    return np.linalg.eigvalsh(t)


# LAPACK's unit roundoff dlamch('E'), which dsterf's split and deflation
# tests use
_EPS = np.finfo(np.float64).eps / 2
# Largest matrix entry for which neither dsyevd nor dsterf rescales, rounded
# inward: dsterf scales below sqrt(safmin)/eps^2 ~ 1.2e-122, dsyevd above
# sqrt(eps/safmin) ~ 1.0e146 and dsterf above sqrt(1/safmin)/3 ~ 2.2e153
_UNSCALED_MIN, _UNSCALED_MAX = 1e-120, 1e145
# the smallest normal double
_DOUBLE_MIN = np.finfo(np.float64).tiny
# dsterf gives up after 30 n QL sweeps in all. A row of the kernel may take
# 30 at each of its n - 2 sweeping stages, which stays below that cap.
_STAGE_SWEEPS = 30


# Rows per block of _small_tridiagonal_eigvals: the temporaries of 64 kB
# each stay in the CPU caches. At 10^5 rows on 2 CPUs, dsterf's blocks of
# 2^12..2^14 rows took 0.35-0.5x the time of one pass over all rows at n = 2,
# and the memory they hold is bounded. At n = 3..5, 2^13 and 2^14 rows took
# the same time within 10%, and 2^11 rows 1.3-1.5x that. The n = 3 closed
# form took 6-9 ms per 10^5 rows at 2^13 and 9-12 ms at 2^11, 2^12 and 2^14.
_BLOCK_ROWS = 2**13


def _dsterf(d2: np.ndarray, e2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write dsterf's ascending eigenvalues of each row's T into ``out`` and
    return the mask of the rows on which dsterf takes the path repeated
    here; the other rows of ``out`` are meaningless.

    For this T numpy's eigvalsh runs dsyevd, whose dsytrd leaves a
    tridiagonal matrix as it is, then dsterf. This repeats dsterf's
    operations in its order on the path that an unsplit, unscaled T takes:
    square the off-diagonal, choose QL or QR, run implicit QL sweeps until
    the top off-diagonal deflates, solve the last 2 x 2 by dlae2 and sort.
    At n = 2 that path has no sweep. The rows on which LAPACK would do
    something else (an initial split, a deflation below the top of the
    active block or of the last 2 x 2, a rescaling by dsyevd or dsterf,
    dsterf's sweep cap) are left out; sampled rows essentially never are.
    The bits match LAPACK built without fused multiply-adds, as the x86-64
    numpy wheels are.
    """
    m, n = d2.shape
    # the rows of extreme or degenerate input go to the dense route, which
    # raises the warnings numpy always raised for them
    with np.errstate(all="ignore"):
        # T's diagonal and off-diagonal, one array per entry
        diag = [d2[:, 0]] + [d2[:, j] + e2[:, j - 1] for j in range(1, n)]
        off = [np.sqrt(d2[:, j] * e2[:, j]) for j in range(n - 1)]
        esq = [x * x for x in off]
        if n == 2:
            live, (a, c), last = None, diag, esq[0]
        else:
            # dsterf runs QR where |d_n| < |d_1| (d >= 0 here), and QR is QL
            # on the reversed arrays; dlae2 is symmetric in a and c, so at
            # n = 2 the direction does not matter
            d, e = np.empty((n, m)), np.empty((n - 1, m))
            d[:], e[:] = diag, esq
            qr = d[-1] < d[0]
            d = np.where(qr, d[::-1], d)
            e = np.where(qr, e[::-1], e)
            # from here on d and e hold only the columns in ``live``
            live = np.flatnonzero(_unsplit_unscaled(diag, off))
            if live.size < m:
                d, e = d.take(live, axis=1), e.take(live, axis=1)
            for top in range(n - 2):
                d, e, live = _ql_stage(d, e, live, top)
            a, last, c = d[-2], e[-1], d[-1]
        rt1, rt2 = _dlae2(a, np.sqrt(last), c)
        if live is None:
            # dsterf's ascending sort
            np.minimum(rt1, rt2, out=out[:, 0])
            np.maximum(rt1, rt2, out=out[:, 1])
            # the masks come last, which keeps fewer arrays in the CPU
            # caches at once; the 2 x 2 does not deflate (a, c >= 0 here)
            return _unsplit_unscaled(diag, off) & (last > _EPS**2 * (a * c))
        # the last 2 x 2 does not deflate; a + c > 0 picks dlae2's branch,
        # as the split test does at n = 2; and so that the sort meets no tie
        # of zeros of either sign, where its bits could differ from
        # dlasrt's, no eigenvalue but dlae2's smaller one is 0 (none is NaN)
        ok = (last > _EPS**2 * np.abs(a * c)) & (a + c > 0) & np.all(d[:-2] != 0, axis=0)
        d[-2], d[-1] = rt1, rt2
        # the network on d's rows in reverse order sorts them ascending
        _sort_network(d[::-1])
    out[live] = d.T
    kept = np.zeros(m, dtype=bool)
    kept[live[ok]] = True
    return kept


def _unsplit_unscaled(diag: list[np.ndarray], off: list[np.ndarray]) -> np.ndarray:
    """The mask of the rows of T, given by its diagonal and off-diagonal
    entries, on which neither dsyevd nor dsterf rescales and dsterf's split
    test fails."""
    largest = functools.reduce(np.maximum, diag + off)
    kept = (largest >= _UNSCALED_MIN) & (largest <= _UNSCALED_MAX)
    for j, x in enumerate(off):
        kept &= x > np.sqrt(diag[j]) * np.sqrt(diag[j + 1]) * _EPS
    return kept


def _ql_stage(d: np.ndarray, e: np.ndarray, live: np.ndarray,
              top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run dsterf's QL loop on rows ``top`` .. n - 1 of each column of d and
    e until its deflation test holds for the top off-diagonal, and return
    those columns and their ``live`` entries. A column on which the test
    holds lower down first, or that needs more than ``_STAGE_SWEEPS``
    sweeps, is left out."""
    if not live.size:
        return d, e, live
    parts = []
    for sweeps in range(_STAGE_SWEEPS + 1):
        small = e[top:] <= _EPS**2 * np.abs(d[top:-1] * d[top + 1:])
        settled = small.any(axis=0)
        if sweeps == _STAGE_SWEEPS:
            settled[:] = True
        if settled.any():
            done = np.flatnonzero(small[0])
            parts.append((d.take(done, axis=1), e.take(done, axis=1), live[done]))
            more = np.flatnonzero(~settled)
            d, e, live = d.take(more, axis=1), e.take(more, axis=1), live[more]
            if not live.size:
                break
        _ql_sweep(d[top:], e[top:])
    d, e, live = zip(*parts)
    return np.concatenate(d, axis=1), np.concatenate(e, axis=1), np.concatenate(live)


def _ql_sweep(d: np.ndarray, e: np.ndarray) -> None:
    """One implicit QL sweep of dsterf, in place, over the whole of each
    column of d (diagonal) and e (squared off-diagonal)."""
    p = d[0]
    rte = np.sqrt(e[0])
    sigma = (d[1] - p) / (2.0 * rte)
    # dlapy2(sigma, 1)
    w = np.abs(sigma)
    z = np.minimum(w, 1.0)
    w = np.maximum(w, 1.0)
    r = w * np.sqrt(1.0 + (z / w) ** 2)
    sigma = p - rte / (sigma + np.copysign(r, sigma))
    c, s = 1.0, 0.0
    gamma = d[-1] - sigma
    p = gamma * gamma
    for i in range(len(d) - 2, -1, -1):
        bb = e[i]
        r = p + bb
        if i < len(d) - 2:
            e[i + 1] = s * r
        oldc = c
        c = p / r
        s = bb / r
        oldgam = gamma
        alpha = d[i]
        gamma = c * (alpha - sigma) - s * oldgam
        d[i + 1] = oldgam + (alpha - gamma)
        p = gamma * gamma / c
        lane = c == 0
        if lane.any():
            p[lane] = (oldc * bb)[lane]
    e[0] = s * p
    d[0] = sigma + gamma


def _dlae2(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK dlae2's eigenvalues (rt1, rt2) of [[a, b], [b, c]], in its
    order of operations, for b > 0 and a + c > 0."""
    sm = a + c
    # dlae2's three branches for rt in one: the larger of |a - c| and 2b
    # times sqrt(1 + (smaller/larger)^2), which is larger * sqrt(2) when
    # the two are equal
    adf = np.abs(a - c)
    ab = b + b
    larger = np.maximum(adf, ab)
    rt = larger * np.sqrt(1.0 + (np.minimum(adf, ab) / larger) ** 2)
    rt1 = 0.5 * (sm + rt)
    # a + c > 0, so dlae2's larger and smaller of |a| and |c| are max and min
    rt2 = (np.maximum(a, c) / rt1) * np.minimum(a, c) - (b / rt1) * b
    return rt1, rt2


# The closed form leaves out the rows with |r| >= 1 - _ACOS_MARGIN, where
# arccos(r) loses digits as the two eigenvalues on one side of q close up.
# Against eigvalsh on 10^6 sampled rows of Induced(3, 3, beta = 1) (2 CPUs,
# numpy 2.4.6), the rows kept were within 9.5e-15, 5.1e-14, 1.1e-13 and
# 1.6e-13 of lambda_max with margins 1e-4, 1e-6, 1e-7 and 0, while 1574, 24,
# 4 and 0 rows were left out; at (3, 4, 1) 3.8e-14 with 9 rows left out at
# 1e-6, and 1.1e-13 at 1e-7. At 1e-6 no row of (3, 3) or (3, 6) at beta = 2,
# or of (3, 3, 4), was left out, and every kept row was within 2.8e-14.
_ACOS_MARGIN = 1e-6
_THIRD_TURN = 2.0 * math.pi / 3.0


def _trigonometric_eigvals(d2: np.ndarray, e2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the ascending eigenvalues of each row's 3 x 3 T into ``out`` by
    O. K. Smith's trigonometric form (Commun. ACM 4 (1961) 168) and return
    the mask of the rows it keeps; the other rows of ``out`` are meaningless.

    With q = tr T/3, p^2 = |T - q I|_F^2/6 and r = det((T - q I)/p)/2, the
    eigenvalues are q + 2 p cos(arccos(r)/3 + 2 pi j/3), j = 0, 1, 2; j = 0 is
    the largest and j = 1 the smallest. The middle one is tr T less those
    two, and the smallest is then taken again as det T/(lambda_max
    lambda_mid), where det T = d_1^2 d_2^2 d_3^2 is the product of the
    bidiagonal's squared diagonal: that keeps it accurate to relative
    rounding however small it is, where eigvalsh is accurate only to
    rounding of lambda_max. A row is kept if every squared entry of the
    bidiagonal lies in [_UNSCALED_MIN, _UNSCALED_MAX], which keeps p^2
    positive and normal, if det T is a normal double, which keeps every
    eigenvalue finite and det T/(lambda_max lambda_mid) exact to rounding,
    and if |r| < 1 - _ACOS_MARGIN.
    """
    x1, x2, x3 = d2.T
    y1, y2 = e2.T
    with np.errstate(all="ignore"):
        a2, a3 = x2 + y1, x3 + y2
        trace = x1 + a2 + a3
        q = trace / 3.0
        # T - q I: its diagonal, and its squared off-diagonal
        b1, b2, b3 = x1 - q, a2 - q, a3 - q
        c1, c2 = x1 * y1, x2 * y2
        p2 = (b1 * b1 + b2 * b2 + b3 * b3 + 2.0 * (c1 + c2)) / 6.0
        p = np.sqrt(p2)
        b1, b2, b3, c1, c2 = b1 / p, b2 / p, b3 / p, c1 / p2, c2 / p2
        r = 0.5 * (b1 * (b2 * b3 - c2) - b3 * c1)
        phi = np.arccos(r) / 3.0
        two_p = p + p
        top = q + two_p * np.cos(phi)
        mid = trace - top - (q + two_p * np.cos(phi + _THIRD_TURN))
        det = x1 * x2 * x3
        out[:, 0] = det / (top * mid)
        out[:, 1] = mid
        out[:, 2] = top
        # the smallest two meet as |r| -> 1, which the mask leaves out, but
        # rounding may still swap them
        _sort_network(out.T[::-1])
        entries = (x1, x2, x3, y1, y2)
        return ((np.abs(r) < 1.0 - _ACOS_MARGIN) & (det >= _DOUBLE_MIN) & (det < math.inf)
                & (functools.reduce(np.minimum, entries) >= _UNSCALED_MIN)
                & (functools.reduce(np.maximum, entries) <= _UNSCALED_MAX))


def _small_tridiagonal_eigvals(d2: np.ndarray, e2: np.ndarray, solve=_dsterf) -> np.ndarray:
    """:func:`_tridiagonal_eigvals` as column arithmetic over blocks of
    rows instead of one LAPACK call per row.

    ``solve(d2, e2, out)`` writes a block's ascending eigenvalues into
    ``out`` and returns the mask of the rows it keeps; the rows it does not
    keep go to the dense route. :func:`_dsterf`, the default, has the bits
    of eigvalsh; :func:`_trigonometric_eigvals` serves n = 3.
    """
    out = np.empty(d2.shape)
    for lo in range(0, d2.shape[0], _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        kept = solve(d2[block], e2[block], out[block])
        if not kept.all():
            other = np.flatnonzero(~kept) + lo
            out[other] = _tridiagonal_eigvals(d2[other], e2[other])
    return out


def _batched(out: np.ndarray, chunk: int, draw, finish, pooled: bool = True) -> np.ndarray:
    """Fill the preallocated (count, ..., n) ``out`` in chunks of at most
    ``chunk`` rows, in two stages.

    ``draw(m)`` makes one chunk's RNG draws on the calling thread, so the
    stream is consumed in the same order whatever the CPU count, and returns
    a tuple of arrays whose first axis runs over the chunk's m rows.
    ``finish`` maps any contiguous row slice of those arrays to the same rows
    of ``out``; it runs per row slice, on every CPU once the chunk holds
    enough n x n matrices (see :func:`_finish_rows`), or on the whole chunk
    on the calling thread when ``pooled`` is false. Rows are independent, so
    the output does not depend on how the chunk is sliced.
    """
    count, n = out.shape[0], out.shape[-1]
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        drawn = draw(stop - start)

        def rows(lo: int, hi: int, start=start, drawn=drawn) -> None:
            out[start + lo : start + hi] = finish(*(a[lo:hi] for a in drawn))

        if pooled:
            _finish_rows(rows, stop - start, n)
        else:
            rows(0, stop - start)
    return out


def _batched_spectra(n: int, count: int, chunk: int, draw, eigvals,
                     pooled: bool = True) -> np.ndarray:
    """(count, n) spectra through :func:`_batched`: ``eigvals`` maps a row
    slice of the drawn arrays to the ascending eigenvalues of its random
    matrices, which are clipped at 0, trace-normalised and reversed to
    descending order."""

    def finish(*drawn: np.ndarray) -> np.ndarray:
        ev = np.clip(eigvals(*drawn), 0.0, None)
        ev /= _row_sums(ev)[:, None]
        return ev[:, ::-1]

    return _batched(np.empty((count, n)), chunk, draw, finish, pooled)


def _dirichlet_rows(n: int, s: float, rng: np.random.Generator, count: int) -> np.ndarray:
    """Unsorted Dirichlet(s) rows. For small s every Gamma variate of a row
    can underflow to 0; such rows are redrawn, which leaves the law of the
    normalised rows unchanged because they are independent of the totals."""
    lam = rng.gamma(s, 1.0, size=(count, n))
    total = _row_sums(lam)
    while np.any(total < ZERO_TRACE_GUARD):
        bad = total < ZERO_TRACE_GUARD
        lam[bad] = rng.gamma(s, 1.0, size=(int(bad.sum()), n))
        total = _row_sums(lam)
    return lam / total[:, None]


# Rows up to this wide are sorted by a compare-exchange network of column
# maximum/minimum pairs instead of np.sort. On 8e4 Dirichlet rows (2 CPUs,
# best of 7, two sessions) the network took 0.3 against 4.4-5.1 ms at n = 2,
# 1.1-1.3 against 3.6-5.2 ms at n = 3 and 2.3-2.4 against 3.7-5.7 ms at
# n = 4; at n = 5 it won one session and lost the other, and from n = 6 it
# lost (15 against 8 ms at n = 7).
_SORT_NETWORK_WIDTH = 4


def _sort_rows_descending(x: np.ndarray) -> np.ndarray:
    """``-np.sort(-x, axis=1)`` with the same bytes for a (count, n) float
    array free of NaN and -0.0. Rows up to ``_SORT_NETWORK_WIDTH`` wide are
    sorted in place by :func:`_sort_network` on their columns."""
    if x.shape[1] > _SORT_NETWORK_WIDTH:
        return -np.sort(-x, axis=1)
    _sort_network(x.T)
    return x


def _sort_network(x: np.ndarray) -> None:
    """Order the rows of the 2-D ``x`` so that ``x[0] >= x[1] >= ...`` entry
    by entry, in place, by an insertion network; each compare-exchange puts
    the larger of two rows first and copies, never computes, a value."""
    for i in range(1, len(x)):
        for j in range(i, 0, -1):
            hi = np.maximum(x[j - 1], x[j])
            np.minimum(x[j - 1], x[j], out=x[j])
            x[j - 1] = hi


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar unitaries via batched QR of a (m, n, n) complex Ginibre stack.

    Column j of each Q is multiplied by the phase R_jj/|R_jj|, which makes
    the R factor's diagonal positive and the Q factor exactly Haar.
    """
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _normalized_gram(a: np.ndarray) -> np.ndarray:
    """A A^dag / tr(A A^dag) for each matrix of a (m, n, k) stack."""
    w = a @ np.swapaxes(a.conj(), 1, 2)
    t = np.trace(w, axis1=1, axis2=2).real
    if np.any(t < ZERO_TRACE_GUARD):
        raise ZeroMatrix("matrix norm is numerically zero")
    w /= t[:, None, None]
    return w


def _bures_spectra(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted Bures spectra, in batches.

    n = 2: with z = (z_0, .., z_3) standard normal, s = |(z_1, z_2, z_3)| / |z|
    is the sine of the polar angle of a uniform point of S^3, and
    ((1 + s)/2, (1 - s)/2) has the Bures radial density
    32 r^2 / (pi sqrt(1 - 4 r^2)) in r = s/2. n >= 3: eigenvalues of A A^dag
    with A = (1 + U) G, U Haar and G complex Ginibre (arXiv:0909.5094).
    """
    if n == 1:
        return np.ones((count, 1))
    if n == 2:
        z2 = rng.standard_normal((count, 4)) ** 2
        s = np.sqrt(_row_sums(z2[:, 1:]) / _row_sums(z2))
        return np.column_stack([0.5 * (1.0 + s), 0.5 * (1.0 - s)])
    i = np.arange(n)

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        # the Haar normals, then the Ginibre normals; QR consumes no RNG words
        haar = rng.standard_normal((2, m, n, n))
        ginibre = rng.standard_normal((2, m, n, n))
        return np.moveaxis(haar, 0, 1), np.moveaxis(ginibre, 0, 1)

    def eigvals(haar: np.ndarray, ginibre: np.ndarray) -> np.ndarray:
        a = _haar_from_ginibre(haar[:, 0] + 1j * haar[:, 1])
        a[:, i, i] += 1.0
        a = a @ (ginibre[:, 0] + 1j * ginibre[:, 1])
        return np.linalg.eigvalsh(a @ np.conj(np.swapaxes(a, 1, 2)))

    # each complex n x n batch (Gaussians, Q, R, A, A A^dag) holds 16 bytes
    # an entry, so a chunk of 1/8 the entries keeps the peak near that of
    # _laguerre_spectra's one real batch
    return _batched_spectra(n, count, max(1, _CHUNK_ENTRIES // (8 * n * n)), draw, eigvals)


def _purification_spectra(n: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted spectra via the purification route: reshape a complex Gaussian
    vector psi of length n*k to n x k and take the eigenvalues of the partial
    trace psi psi^dag. The engine's trace normalisation stands in for
    normalising psi, as tr(psi psi^dag) = |psi|^2."""

    def draw(m: int) -> tuple[np.ndarray]:
        return (np.moveaxis(rng.standard_normal((2, m, n * k)), 0, 1),)

    def eigvals(z: np.ndarray) -> np.ndarray:
        psi = (z[:, 0] + 1j * z[:, 1]).reshape(-1, n, k)
        return np.linalg.eigvalsh(psi @ np.conj(np.swapaxes(psi, 1, 2)))

    return _batched_spectra(n, count, max(1, _CHUNK_ENTRIES // (n * k)), draw, eigvals)


def _pure_state_moduli(m: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Squared moduli |c_i|^2 of normalized complex Gaussian vectors."""
    out = np.empty((count, m))
    chunk = max(1, _CHUNK_ENTRIES // m)
    done = 0
    while done < count:
        c = min(chunk, count - done)
        z = rng.standard_normal((2, c, m))
        p = z[0] ** 2 + z[1] ** 2
        out[done : done + c] = p / _row_sums(p)[:, None]
        done += c
    return out
