"""Upper-triangular oscillation-propagation matrices and a certified bound on their norm."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, json_native

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

    def document(self) -> dict:
        """The report of this Gamma, its entries left as the array."""
        return {"shape": list(self.entries.shape), "provenance": self.provenance,
                "entries": self.entries}

    def to_dict(self) -> dict:
        return json_native(self.document())


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
_POWER_STEPS = 64  # before Noda iteration on a dense Gram matrix


def _noda_vector(solve, x: list, sigma: float) -> list:
    """Near-Perron vector of S = Gamma^T Gamma by Noda iteration.

    From a positive x and a sigma above ||Gamma||^2, each step sets
    y = solve(sigma, x) = (sigma I - S)^-1 x, then sigma to the Collatz-Wielandt
    bound at y, sigma - min_i x_i / y_i, since S y = sigma y - x (Noda 1971). It
    stops when sigma stalls, or keeps the last x when solve returns None or an
    entry of y is not positive.
    """
    tiny = np.finfo(float).tiny
    for _ in range(_NODA_STEPS):
        y = solve(sigma, x)
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
    return x


# OpenBLAS splits an LU or Cholesky factorization across threads from an order
# of about 100 up, and the split changes the rounding with the thread count;
# factorizations below this order run on one thread
_BLOCK = 64


def _gram(m: np.ndarray) -> np.ndarray:
    """S = m^T m for an upper-triangular m, one block column of its lower
    triangle at a time, mirrored above. numpy's m.T @ m is one SYRK, whose
    rounding changes with the BLAS thread count."""
    n = m.shape[0]
    s = np.empty((n, n))
    for j in range(0, n, _BLOCK):
        e = min(j + _BLOCK, n)
        s[j:, j:e] = m[:e, j:].T @ m[:e, j:e]
        s[j:e, e:] = s[e:, j:e].T
    return s


def _dense_solve(s: np.ndarray, sigma: float, x: list) -> list | None:
    """(sigma I - s)^-1 x by a blocked Cholesky factorization of sigma I - s, or
    None if it fails: then sigma is not above the spectrum as far as rounding can tell."""
    n = s.shape[0]
    a = np.negative(s)  # its lower triangle becomes the factor L
    a.flat[:: n + 1] += sigma
    starts = range(0, n, _BLOCK)
    try:
        for k in starts:
            e = k + _BLOCK
            a[k:e, k:e] = np.linalg.cholesky(a[k:e, k:e])
            a[e:, k:e] = np.linalg.solve(a[k:e, k:e], a[e:, k:e].T).T
            for j in range(e, n, _BLOCK):  # lower triangle, one block column at a time
                a[j:, j:j + _BLOCK] -= a[j:, k:e] @ a[j:j + _BLOCK, k:e].T
    except np.linalg.LinAlgError:
        return None
    y = np.array(x)
    for k in starts:  # L z = x, then L^T y = z
        e = k + _BLOCK
        y[k:e] = np.linalg.solve(a[k:e, k:e], y[k:e] - a[k:e, :k] @ y[:k])
    for k in reversed(starts):
        e = k + _BLOCK
        y[k:e] = np.linalg.solve(a[k:e, k:e].T, y[k:e] - a[e:, k:e].T @ y[e:])
    return y.tolist()


def operator_norm(g: GammaMatrix) -> float:
    """Certified upper bound on the spectral norm ||Gamma||, never below it.

    S = Gamma^T Gamma is entrywise nonnegative, so for every x > 0 the
    Collatz-Wielandt inequality bounds its largest eigenvalue by
    max_i (S x)_i / x_i. The result is the square root of that bound times
    (1 + 2 (n + 1) eps), a factor that covers the rounding of S x, computed as
    Gamma^T (Gamma x) (sums of at most n nonnegative terms, each off by about
    n eps / 2 relative at most), and of the last product and square root.

    x is the near-Perron vector of Noda iteration, after one power step. A
    Gamma with factors (contractive, ergodic) solves with them in pure Python
    from x = 1 and sigma = ||Gamma||_1 ||Gamma||_inf. Any other (brute force)
    forms S (_gram) and solves by blocked Cholesky, from the Collatz-Wielandt
    bound after a few power steps on S. No BLAS thread count reaches x.
    """
    m = g.entries
    n = m.shape[0]
    if n == 0:
        return 0.0
    if not math.isfinite(m.max()):  # the max of an array holding a NaN is NaN
        raise ValidationError("gamma matrix entries must be finite")
    tiny = np.finfo(float).tiny
    x = np.ones(n)
    if g.factors is None:
        # each Noda step is a dense factorization: 2-3 steps from the bound
        # after the power steps, 6-7 from ||Gamma||_1 ||Gamma||_inf
        s = _gram(m)
        for _ in range(_POWER_STEPS):
            x = s @ x
            np.maximum(x / x.max(), tiny, out=x)
        solve, sigma = functools.partial(_dense_solve, s), float((s @ x / x).max())
    else:
        solve = functools.partial(_shifted_solve, *(f.tolist() for f in g.factors))
        # ||Gamma||_1 ||Gamma||_inf >= ||Gamma||^2 starts the shifts above the spectrum
        sigma = float(m.sum(axis=0).max() * m.sum(axis=1).max())
    x = np.array(_noda_vector(solve, x.tolist(), sigma))
    # one power step never raises the bound, and lifts the entries that the
    # inverse iteration left near rounding level
    x = m.T @ (m @ x)
    np.maximum(x / x.max(), tiny, out=x)
    bound = float((m.T @ (m @ x) / x).max())
    if not bound < math.inf:  # S x overflowed: inf, or NaN through inf / inf
        return math.inf
    return math.sqrt(bound * (1.0 + 2 * (n + 1) * np.finfo(float).eps))
