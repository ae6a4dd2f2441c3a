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
    factors, when the construction knows them, are the superdiagonals (a, b)
    of unit upper-bidiagonal A and B with Gamma = A B^-1; operator_norm then
    needs no Gram matrix. They only steer the norm's search vector, so wrong
    factors can loosen the bound but never make it unsound.
    """

    entries: np.ndarray
    provenance: str
    factors: tuple[np.ndarray, np.ndarray] | None = None

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
        # in blocks of rows, each holding about 2^16 entries: np.tril(m, -1)
        # would copy the whole matrix
        rows = max(1, (1 << 16) // max(1, m.shape[1]))
        if any(np.any(np.tril(m[lo:lo + rows], lo - 1) != 0) for lo in range(0, len(m), rows)):
            raise ValidationError("gamma matrix must be upper triangular")
        object.__setattr__(self, "entries", m)
        if self.factors is not None:
            a, b = (np.asarray(f, dtype=float) for f in self.factors)
            if a.shape != (max(m.shape[0] - 1, 0),) or b.shape != a.shape:
                raise ValidationError(f"gamma factors must be two superdiagonals of length "
                                      f"{max(m.shape[0] - 1, 0)}, got {a.shape} and {b.shape}")
            object.__setattr__(self, "factors", (a, b))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def to_dict(self) -> dict:
        # the zeros below the diagonal share one +0.0 object, where tolist makes
        # a float object for each. A row holding a -0.0 there keeps its own
        # floats, and so its bytes.
        rows = [row.tolist() if np.signbit(row[:i]).any() else [0.0] * i + row[i:].tolist()
                for i, row in enumerate(self.entries)]
        return {"shape": list(self.entries.shape), "provenance": self.provenance, "entries": rows}


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
    # np.cumprod(th[i:]). The ones are set and cleared row by row: a mask of
    # the triangle would cost an n x n temporary
    upper = m[:-1, 1:]
    upper[:] = th
    for i in range(1, th.size):
        upper[i, :i] = 1.0
    np.cumprod(upper, axis=1, out=upper)
    for i in range(1, th.size):
        upper[i, :i] = 0.0
    m.flat[::th.size + 2] = 1.0
    return GammaMatrix(m, "contractive", (np.zeros(th.size), -th))  # A = I, B = I - N_theta


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
    # A = I + (1 - eps) N, B = I - eps N
    factors = (np.full(n_blocks - 1, 1.0 - eps), np.full(n_blocks - 1, -eps))
    return GammaMatrix(windows[::-1].copy(), "ergodic", factors)


def _shifted_solve(a: list, b: list, sigma: float, x: list) -> list | None:
    """(sigma I - Gamma^T Gamma)^-1 x for Gamma = A B^-1, where A and B are unit
    upper bidiagonal with superdiagonals a and b: B (sigma B^T B - A^T A)^-1 B^T x.

    The middle matrix is tridiagonal. Its LDL^T factorization runs top down
    together with B^T x and the forward substitution, and B z together with the
    back substitution. Returns None at a pivot that is not positive, where
    sigma is not above the spectrum as far as rounding can tell.
    """
    s1 = d = sigma - 1.0
    if not d > 0:
        return None
    y = prev = x[0]
    pivots, ys = [d], [y]
    for ai, bi, xi in zip(a, b, x[1:]):
        e = sigma * bi - ai  # the off-diagonal entry above this row
        ratio = e / d
        d = s1 + sigma * bi * bi - ai * ai - ratio * e
        if not d > 0:
            return None
        y = xi + bi * prev - ratio * y
        prev = xi
        pivots.append(d)
        ys.append(y)
    z = y / d
    out = [z]
    for ai, bi, pivot, yi in zip(reversed(a), reversed(b), reversed(pivots[:-1]),
                                 reversed(ys[:-1])):
        zi = (yi - (sigma * bi - ai) * z) / pivot
        out.append(zi + bi * z)
        z = zi
    out.reverse()
    return out


# Noda iteration converges quadratically, so a step that lowers sigma by less
# than this share leaves it about the square of that share (below an ulp) above
# its limit; the iteration stops there
_NODA_TOL = 2.0**-30
_NODA_STEPS = 30


def _noda_vector(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """Near-Perron vector of Gamma^T Gamma from the factors of Gamma, by Noda iteration.

    Starting from x = 1 and a sigma above ||Gamma||^2, each step sets
    y = (sigma I - Gamma^T Gamma)^-1 x, then sigma to the Collatz-Wielandt bound
    at y, which is sigma - min_i x_i / y_i because Gamma^T Gamma y = sigma y - x
    (Noda 1971). The iteration stops when sigma stalls, or keeps the last x
    when rounding makes a pivot or an entry of y nonpositive.
    """
    a, b = a.tolist(), b.tolist()
    x = [1.0] * (len(a) + 1)
    tiny = np.finfo(float).tiny
    for _ in range(_NODA_STEPS):
        y = _shifted_solve(a, b, sigma, x)
        if y is None:
            break
        top = max(y)
        if not 0.0 < min(y) <= top < math.inf:
            break
        bound = sigma - min(map(float.__truediv__, x, y))
        if not bound < sigma:
            break
        x = [max(v / top, tiny) for v in y]
        if sigma - bound <= sigma * _NODA_TOL:
            break
        sigma = bound
    return np.array(x)


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


def _gram_vector(m: np.ndarray) -> np.ndarray:
    """Near-Perron vector of S = m^T m from the dense Gram matrix.

    Two steps of inverse iteration, shifted just above LAPACK's largest
    eigenvalue of S (eigvalsh, no eigenvectors). The shift is rounded up to
    2^22 ulps and the shifted matrix is factored in blocks of order 64, so
    that the thread count of a threaded BLAS does not reach x through LAPACK;
    only S itself can differ in its last bits. A LAPACK failure raises
    ConvergenceError.
    """
    n = m.shape[0]
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
    return x


def operator_norm(g: GammaMatrix) -> float:
    """Certified upper bound on the spectral norm ||Gamma||, never below it.

    S = Gamma^T Gamma is entrywise nonnegative, so for every x > 0 the
    Collatz-Wielandt inequality bounds its largest eigenvalue by
    max_i (S x)_i / x_i. The result is the square root of that bound times
    (1 + 2 (n + 1) eps), a factor that covers the rounding of S x, computed as
    Gamma^T (Gamma x) (sums of at most n nonnegative terms, each off by about
    n eps / 2 relative at most), and of the last product and square root.

    x approximates the Perron vector of S, and then takes one power step. A
    Gamma with factors (contractive and ergodic) finds x by Noda iteration on
    them, one tridiagonal solve a step in pure Python, with no n x n array
    besides Gamma: no BLAS thread count can reach it. Any other Gamma (brute
    force) forms S and finds x with LAPACK (_gram_vector).
    """
    m = g.entries
    n = m.shape[0]
    if n == 0:
        return 0.0
    if not math.isfinite(m.max()):  # the max of an array holding a NaN is NaN
        raise ValidationError("gamma matrix entries must be finite")
    if g.factors is None:
        x = _gram_vector(m)
    else:
        # ||Gamma||_1 ||Gamma||_inf >= ||Gamma||^2 starts the shifts above the spectrum
        x = _noda_vector(*g.factors, float(m.sum(axis=0).max() * m.sum(axis=1).max()))
    # one power step never raises the bound, and lifts the entries that the
    # inverse iteration left near rounding level
    x = m.T @ (m @ x)
    np.maximum(x / x.max(), np.finfo(float).tiny, out=x)
    bound = float((m.T @ (m @ x) / x).max())
    return math.sqrt(bound * (1.0 + 2 * (n + 1) * np.finfo(float).eps))
