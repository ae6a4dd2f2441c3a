"""Upper-triangular oscillation-propagation matrices and a certified bound on their norm."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

PROVENANCES = ("contractive", "ergodic", "brute_force_tv")


@dataclass(frozen=True)
class GammaMatrix:
    """Upper-triangular nonnegative matrix with unit diagonal.

    Row i bounds how an oscillation injected at coordinate i propagates to
    later coordinates; the provenance records which construction produced it.
    """

    entries: np.ndarray
    provenance: str

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"gamma matrix must be square, got shape {m.shape}")
        if self.provenance not in PROVENANCES:
            raise ValidationError(f"unknown gamma provenance {self.provenance!r}")
        if np.any(m < 0):
            raise ValidationError("gamma matrix entries must be nonnegative")
        if not np.all(np.abs(np.diagonal(m) - 1.0) <= 1e-12):
            raise ValidationError("gamma matrix must have unit diagonal")
        if np.any(np.tril(m, -1) != 0):
            raise ValidationError("gamma matrix must be upper triangular")
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_dict(self) -> dict:
        return {
            "shape": list(self.entries.shape),
            "provenance": self.provenance,
            "entries": self.entries.tolist(),
        }


def gamma_contractive(thetas) -> GammaMatrix:
    """Gamma from per-step contraction coefficients: entry (i, j) is the running
    product of thetas[i..j-1], which specializes to theta^(j-i) for constant theta.
    """
    th = np.asarray(thetas, dtype=float)
    if th.ndim != 1:
        raise ValidationError("thetas must be a 1-d sequence")
    if np.any(~((th >= 0) & (th <= 1))):  # NaN fails both comparisons
        raise ValidationError("contraction coefficients must lie in [0, 1]")
    m = np.zeros((th.size + 1, th.size + 1))
    # row i of the block right of the diagonal is 1, ..., 1, theta_i, theta_{i+1},
    # ...: the leading ones are exact, so its cumulative product is bitwise
    # np.cumprod(th[i:])
    upper, below = m[:-1, 1:], np.tri(th.size, k=-1, dtype=bool)
    upper[:] = th
    upper[below] = 1.0
    np.cumprod(upper, axis=1, out=upper)
    upper[below] = 0.0
    m.flat[::th.size + 2] = 1.0
    return GammaMatrix(m, "contractive")


def gamma_ergodic(n_blocks: int, eps: float) -> GammaMatrix:
    """Block-level Gamma for a chain partitioned into mixing-time blocks.

    Adjacent blocks get entry 1; block pairs (i, j) with j > i+1 get
    eps^(j-i-1).
    """
    if n_blocks < 1:
        raise ValidationError(f"n_blocks = {n_blocks} must be >= 1")
    if not 0 <= eps < 1:
        raise ValidationError(f"eps = {eps} must lie in [0, 1)")
    # entry (i, j) depends on j - i alone: row i is the window of
    # (0, ..., 0, 1 | 1, eps, eps^2, ...) that puts the diagonal 1 at column i.
    # Python's ** keeps the bits of the per-entry formula; np.power does not.
    diagonals = [0.0] * (n_blocks - 1) + [1.0] + [eps ** k for k in range(n_blocks - 1)]
    windows = np.lib.stride_tricks.sliding_window_view(np.array(diagonals), n_blocks)
    return GammaMatrix(windows[::-1].copy(), "ergodic")


# OpenBLAS splits an LU or Cholesky factorization across threads from an order
# of about 100 up, and the split changes the rounding with the thread count.
# Factorizations below this order run on one thread.
_BLOCK = 64


def _cholesky_in_place(a: np.ndarray) -> None:
    """Overwrite the lower triangle of a symmetric positive definite a with its Cholesky factor."""
    n = a.shape[0]
    for k in range(0, n, _BLOCK):
        e = min(k + _BLOCK, n)
        a[k:e, k:e] = np.linalg.cholesky(a[k:e, k:e])
        if e < n:
            a[e:, k:e] = np.linalg.solve(a[k:e, k:e], a[e:, k:e].T).T
            for j in range(e, n, _BLOCK):  # lower triangle, one block column at a time
                a[j:, j:j + _BLOCK] -= a[j:, k:e] @ a[j:j + _BLOCK, k:e].T


def _cholesky_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve low low^T y = b for the factor left by _cholesky_in_place, block by block."""
    y = b.copy()
    starts = range(0, b.size, _BLOCK)
    for k in starts:
        e = k + _BLOCK
        y[k:e] = np.linalg.solve(low[k:e, k:e], y[k:e] - low[k:e, :k] @ y[:k])
    for k in reversed(starts):
        e = k + _BLOCK
        y[k:e] = np.linalg.solve(low[k:e, k:e].T, y[k:e] - low[e:, k:e].T @ y[e:])
    return y


def operator_norm(g: GammaMatrix) -> float:
    """Certified upper bound on the spectral norm ||Gamma||, never below it.

    S = Gamma^T Gamma is entrywise nonnegative, so for every x > 0 the
    Collatz-Wielandt inequality bounds its largest eigenvalue by
    max_i (S x)_i / x_i. The result is the square root of that bound times
    (1 + 2 (n + 1) eps), a factor that covers the rounding of S x, computed as
    Gamma^T (Gamma x) (sums of at most n nonnegative terms, each off by about
    n eps / 2 relative at most), and of the last product and square root.

    x approximates the Perron vector of S: two steps of inverse iteration,
    shifted just above LAPACK's largest eigenvalue of S (eigvalsh, no
    eigenvectors), then one power step. The shift is rounded up to 2^22 ulps
    and the shifted matrix is factored in blocks of order 64, so that the
    thread count of a threaded BLAS does not reach x through LAPACK. A LAPACK
    failure raises ConvergenceError.
    """
    m = g.entries
    if not np.all(np.isfinite(m)):
        raise ValidationError("gamma matrix entries must be finite")
    n = m.shape[0]
    if n == 0:
        return 0.0
    a = m.T @ m
    try:
        lam = float(np.linalg.eigvalsh(a)[-1])
        grid = math.ulp(lam) * 2**22
        a *= -1.0  # a = sigma I - S, positive definite
        a.flat[:: n + 1] += math.ceil(lam * (1.0 + 1e-10) / grid) * grid
        _cholesky_in_place(a)
        x = np.ones(n)
        for _ in range(2):
            x = np.abs(_cholesky_solve(a, x))
            x /= x.max()
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK failed on the {n}x{n} Gram matrix: {exc}") from exc
    # one power step never raises the bound, and lifts the entries that the
    # inverse iteration left near rounding level
    x = m.T @ (m @ x)
    np.maximum(x / x.max(), np.finfo(float).tiny, out=x)
    bound = float((m.T @ (m @ x) / x).max())
    return math.sqrt(bound * (1.0 + 2 * (n + 1) * np.finfo(float).eps))
