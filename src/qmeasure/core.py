"""Domain types and scalar operations on quantum states.

Complex matrices are plain numpy ``complex128`` arrays (C-contiguous, so the
in-memory layout is interleaved re/im pairs in row-major order). The wrapper
types below validate the physical invariants once at construction and freeze
their buffers, after which instances are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, ZeroMatrix

# Construction tolerances, sized for double precision at dimensions <= 64.
HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-12
ZERO_TRACE_GUARD = 1e-300


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _row_sums(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)`` with the same bits, as column adds when that is faster.

    numpy adds a float64 row narrower than 8 entries from left to right
    starting at +0.0 (pairwise summation starts at 8 entries), so for such
    arrays the sum is rebuilt one column at a time, which avoids numpy's
    per-row reduction overhead; ``+ 0.0`` gives numpy's +0.0 for rows of
    -0.0. Every other input, complex ones included, goes to ``a.sum(axis=1)``.
    """
    if a.ndim != 2 or a.dtype != np.float64 or not 1 <= a.shape[1] < 8:
        return a.sum(axis=1)
    total = a[:, 0] + 0.0
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def as_complex_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D C-contiguous complex128 array."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def validate_density_matrices(w: np.ndarray) -> None:
    """Check a (m, n, n) stack of matrices: raise ValueError unless every one
    is finite, Hermitian, unit-trace and positive semidefinite within the
    construction tolerances. The message names the first failing check."""
    if not np.isfinite(w).all():
        raise ValueError("matrix has non-finite entries")
    if abs(w - w.conj().swapaxes(1, 2)).max() > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    traces = w.trace(axis1=1, axis2=2).real
    if abs(traces - 1.0).max() > TRACE_TOL:
        first = traces[abs(traces - 1.0) > TRACE_TOL][0]
        raise ValueError(f"trace is {first!r}, not 1")
    if np.linalg.eigvalsh(w)[:, 0].min() < -EIGENVALUE_CLAMP:
        raise ValueError("matrix has a negative eigenvalue beyond tolerance")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        validate_density_matrices(m[None])
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BipartitePureState:
    """Normalized pure state of an n x k composite system.

    Stored as the n x k coefficient matrix psi[i, k] in a product basis.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        a = as_complex_matrix(self.amplitudes)
        norm2 = np.sum(np.abs(a) ** 2)
        if abs(norm2 - 1.0) > TRACE_TOL:
            raise ValueError(f"state is not normalized: |psi|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", _freeze(a))

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def k(self) -> int:
        return self.amplitudes.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue vector on the probability simplex, sorted descending."""

    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise DimensionMismatch(f"spectrum must be a 1-D sequence, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("spectrum has non-finite entries")
        if np.any(np.diff(v) > 0):
            raise ValueError("spectrum must be sorted in descending order")
        if v[-1] < 0:
            raise ValueError("spectrum has a negative entry")
        if abs(v.sum() - 1.0) > TRACE_TOL:
            raise ValueError(f"spectrum sums to {v.sum()!r}, not 1")
        object.__setattr__(self, "values", _freeze(v))

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)


def project_hs(a) -> DensityMatrix:
    """Project a nonzero matrix A onto density matrices via A A^dag / tr(A A^dag)."""
    m = as_complex_matrix(a)
    w = m @ m.conj().T
    t = w.trace().real
    if t < ZERO_TRACE_GUARD:
        raise ZeroMatrix("matrix norm is numerically zero")
    w /= t
    w = 0.5 * (w + w.conj().T)  # scrub roundoff asymmetry
    return DensityMatrix(w)


def partial_trace(psi: BipartitePureState, side: str = "B") -> DensityMatrix:
    """Reduced density matrix of a bipartite pure state.

    ``side`` names the subsystem that is traced out: "B" yields the n x n
    reduction rho_A[i, j] = sum_k psi[i, k] conj(psi[j, k]); "A" yields the
    k x k reduction rho_B[k, l] = sum_i psi[i, k] conj(psi[i, l]).
    """
    a = psi.amplitudes
    if side == "B":
        w = a @ a.conj().T
    elif side == "A":
        w = a.T @ a.conj()
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    w = 0.5 * (w + w.conj().T)
    return DensityMatrix(w)


def density_spectrum(rho: DensityMatrix) -> Spectrum:
    """Eigenvalues of ``rho`` sorted descending and clipped into [0, 1]; the
    clip only removes roundoff, as ``DensityMatrix`` has already rejected
    eigenvalues below -EIGENVALUE_CLAMP of the same frozen matrix."""
    return Spectrum(np.clip(np.linalg.eigvalsh(rho.matrix)[::-1], 0.0, 1.0))


def schmidt_spectrum(psi: BipartitePureState) -> Spectrum:
    """Squared Schmidt coefficients: the min(n, k) positive eigenvalues shared
    by both reductions of the state."""
    return Spectrum(density_spectrum(partial_trace(psi)).values[: min(psi.n, psi.k)])
