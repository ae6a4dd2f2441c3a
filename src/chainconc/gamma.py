"""Upper-triangular oscillation-propagation matrices and a certified bound on their norm."""

from __future__ import annotations

import array
import functools
import math

import numpy as np

from .errors import RowStream, ValidationError, json_native

PROVENANCES = ("contractive", "ergodic", "brute_force_tv")


class GammaMatrix:
    """Upper-triangular nonnegative matrix with unit diagonal.

    Row i bounds how an oscillation injected at coordinate i propagates to
    later coordinates; the provenance records which construction produced it.
    Every Gamma answers three operations: rows() yields its rows as 1-D float
    arrays, matvec(x) is Gamma x and rmatvec(z) is Gamma^T z. This class
    stores its entries (brute force, or a matrix given by hand) and answers
    from them. gamma_contractive and gamma_ergodic return a factored Gamma,
    which stores O(n) numbers and builds a row, or the dense entries, only
    when asked.

    factors, when known, are the superdiagonals (a, b) of unit upper-bidiagonal
    A and B with Gamma = A B^-1; operator_norm then needs no Gram matrix. They
    only steer the norm's search vector, so wrong factors can loosen the bound
    but never make it unsound.
    """

    def __init__(self, entries, provenance: str, factors=None):
        m = np.asarray(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"gamma matrix must be square, got shape {m.shape}")
        if provenance not in PROVENANCES:
            raise ValidationError(f"unknown gamma provenance {provenance!r}")
        if np.any(m < 0):
            raise ValidationError("gamma matrix entries must be nonnegative")
        if not np.all(np.abs(np.diagonal(m) - 1.0) <= 1e-12):
            raise ValidationError("gamma matrix must have unit diagonal")
        # in blocks of rows, each holding about 2^16 entries: np.tril(m, -1)
        # would copy the whole matrix
        rows = max(1, (1 << 16) // max(1, m.shape[1]))
        if any(np.any(np.tril(m[lo:lo + rows], lo - 1) != 0) for lo in range(0, len(m), rows)):
            raise ValidationError("gamma matrix must be upper triangular")
        if factors is not None:
            a, b = (np.asarray(f, dtype=float) for f in factors)
            if a.shape != (max(m.shape[0] - 1, 0),) or b.shape != a.shape:
                raise ValidationError(f"gamma factors must be two superdiagonals of length "
                                      f"{max(m.shape[0] - 1, 0)}, got {a.shape} and {b.shape}")
            factors = (a, b)
        self.entries, self.provenance, self.factors = m, provenance, factors
        # the max of an array holding a NaN is NaN
        self.finite = not m.size or math.isfinite(m.max())

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def rows(self):
        return iter(self.entries)

    def matvec(self, x) -> np.ndarray:
        return self.entries @ np.asarray(x, dtype=float)

    def rmatvec(self, z) -> np.ndarray:
        return self.entries.T @ np.asarray(z, dtype=float)

    def document(self) -> dict:
        """The report of this Gamma, its entries as a RowStream of rows(): a
        factored Gamma builds each row as it is written."""
        return {"shape": [self.n, self.n], "provenance": self.provenance,
                "entries": RowStream(self.rows)}

    def to_dict(self) -> dict:
        return json_native(self.document())


class _FactoredGamma(GammaMatrix):
    """A Gamma known by its parameters, with n >= 1: every entry lies in [0, 1].

    matvec and rmatvec are O(n) recurrences in pure Python whose terms are all
    nonnegative: each term of an output reaches it through at most 2n - 1
    roundings. The dense entries are built row by row when read.
    """

    finite = True

    def __init__(self, n: int, provenance: str, factors):
        self._n, self.provenance, self.factors = n, provenance, factors

    @property
    def n(self) -> int:
        return self._n

    @property
    def entries(self) -> np.ndarray:
        """The dense n x n matrix, built from rows() anew on each read."""
        m = np.empty((self.n, self.n))
        for i, row in enumerate(self.rows()):
            m[i] = row
        return m


class ContractiveGamma(_FactoredGamma):
    """Gamma = (I - N_theta)^-1: entry (i, j) is the product of thetas[i..j-1]."""

    def __init__(self, thetas: np.ndarray):
        super().__init__(thetas.size + 1, "contractive", (np.zeros(thetas.size), -thetas))
        self.thetas = thetas

    def rows(self):
        # bitwise the rows of the dense running product: the leading 1 is exact
        th, n = self.thetas, self.n
        for i in range(n):
            row = np.zeros(n)
            row[i] = 1.0
            np.cumprod(th[i:], out=row[i + 1:])
            yield row

    def matvec(self, x) -> np.ndarray:
        # y_i = x_i + theta_i y_{i+1}, from the last entry up
        th = self.thetas.tolist()
        return np.array(_recurrence(_floats(x)[::-1], [0.0] + th[::-1])[::-1])

    def rmatvec(self, z) -> np.ndarray:
        # w_j = z_j + theta_{j-1} w_{j-1}
        return np.array(_recurrence(_floats(z), [0.0] + self.thetas.tolist()))


class ErgodicGamma(_FactoredGamma):
    """Block Gamma: 1 on the diagonal and the superdiagonal, eps^(j-i-1) right of it."""

    def __init__(self, n_blocks: int, eps: float):
        # A = I + (1 - eps) N, B = I - eps N
        super().__init__(n_blocks, "ergodic",
                         (np.full(n_blocks - 1, 1.0 - eps), np.full(n_blocks - 1, -eps)))
        self.n_blocks, self.eps = n_blocks, eps

    def rows(self):
        # entry (i, j) depends on j - i alone: row i is the window of
        # (0, ..., 0, 1 | 1, eps, eps^2, ...) that puts the diagonal 1 at column i.
        # Python's ** keeps the bits of the per-entry formula; np.power does not.
        n = self.n
        diagonals = np.array([0.0] * (n - 1) + [1.0] + [self.eps ** k for k in range(n - 1)])
        diagonals.flags.writeable = False
        for i in range(n):
            yield diagonals[n - 1 - i:2 * n - 1 - i]

    def matvec(self, x) -> np.ndarray:
        # y_i = x_i + s_i, where s_i = x_{i+1} + eps s_{i+1} is the sum right of the diagonal
        x = _floats(x)
        s = _recurrence(x[:0:-1], [float(self.eps)] * (self.n - 1))[::-1]
        return np.array([xi + si for xi, si in zip(x, s)] + x[-1:])

    def rmatvec(self, z) -> np.ndarray:
        # w_j = z_j + t_j, where t_j = z_{j-1} + eps t_{j-1} is the sum above the diagonal
        z = _floats(z)
        t = _recurrence(z[:-1], [float(self.eps)] * (self.n - 1))
        return np.array(z[:1] + [zj + tj for zj, tj in zip(z[1:], t)])


def _floats(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def _recurrence(values: list, weights: list) -> list:
    """r_k = values[k] + weights[k] r_{k-1} from r_{-1} = 0, in order: one sweep
    of a unit bidiagonal solve, two roundings a step."""
    r, out = 0.0, []
    for v, w in zip(values, weights):
        r = v + w * r
        out.append(r)
    return out


def gamma_contractive(thetas) -> GammaMatrix:
    """Gamma from per-step contraction coefficients: entry (i, j) is the running
    product of thetas[i..j-1], which specializes to theta^(j-i) for constant theta.
    """
    th = np.array(thetas, dtype=float)
    if th.ndim != 1:
        raise ValidationError("thetas must be a 1-d sequence")
    if np.any(~((th >= 0) & (th <= 1))):  # NaN fails both comparisons
        raise ValidationError("contraction coefficients must lie in [0, 1]")
    return ContractiveGamma(th)


def gamma_ergodic(n_blocks: int, eps: float) -> GammaMatrix:
    """Block-level Gamma for a chain partitioned into mixing-time blocks.

    Adjacent blocks get entry 1; block pairs (i, j) with j > i+1 get
    eps^(j-i-1).
    """
    if n_blocks < 1:
        raise ValidationError(f"n_blocks = {n_blocks} must be >= 1")
    if not 0 <= eps < 1:
        raise ValidationError(f"eps = {eps} must lie in [0, 1)")
    return ErgodicGamma(n_blocks, eps)


def _shifted_solve(a, b, sigma: float, x: list) -> list | None:
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
    pivots, ys = array.array("d", [d]), array.array("d", [y])
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
    max_i (S x)_i / x_i; _certified_norm takes its square root with a
    rounding guard, at the x of _search_vector.

    x is the near-Perron vector of Noda iteration, after one power step. A
    Gamma with factors (contractive, ergodic) solves with them in pure Python
    from x = 1 and sigma = ||Gamma||_1 ||Gamma||_inf. Any other (brute force)
    forms S (_gram) and solves by blocked Cholesky, from the Collatz-Wielandt
    bound after a few power steps on S. No BLAS thread count reaches x.
    """
    if g.n == 0:
        return 0.0
    if not g.finite:
        raise ValidationError("gamma matrix entries must be finite")
    return _certified_norm(g, _search_vector(g))


def _search_vector(g: GammaMatrix) -> np.ndarray:
    """The positive x of operator_norm, scaled so that its largest entry is
    2^512 and the others at least 2^-510, as _certified_norm needs (an x with
    a NaN, where Gamma^T Gamma x overflowed, gives an infinite bound there)."""
    tiny = np.finfo(float).tiny
    x = np.ones(g.n)
    if g.factors is None:
        # each Noda step is a dense factorization: 2-3 steps from the bound
        # after the power steps, 6-7 from ||Gamma||_1 ||Gamma||_inf
        s = _gram(g.entries)
        for _ in range(_POWER_STEPS):
            x = s @ x
            np.maximum(x / x.max(), tiny, out=x)
        solve, sigma = functools.partial(_dense_solve, s), float((s @ x / x).max())
    else:
        a, b = (array.array("d", f.tobytes()) for f in g.factors)  # 8 bytes a float, not 32
        solve = functools.partial(_shifted_solve, a, b)
        # ||Gamma||_1 ||Gamma||_inf >= ||Gamma||^2 starts the shifts above the spectrum
        sigma = float(g.rmatvec(x).max() * g.matvec(x).max())
    x = np.array(_noda_vector(solve, x.tolist(), sigma))
    # one power step never raises the bound, and lifts the entries that the
    # inverse iteration left near rounding level
    x = g.rmatvec(g.matvec(x))
    return np.maximum(x / x.max(), tiny) * 2.0**512


def _certified_norm(g: GammaMatrix, x: np.ndarray) -> float:
    """sqrt(r (1 + (4n + 8) eps)) >= ||Gamma||, where r is the Collatz-Wielandt
    bound max_i (S x)_i / x_i at x, computed as Gamma^T (Gamma x) by g.matvec
    and g.rmatvec. x must lie in [2^-510, 2^512] entrywise.

    The guard, with u = eps / 2 = 2^-53 and gamma_k = k u / (1 - k u) (Higham
    2002, sections 2.2 and 3.1). Every entry of Gamma and of x is nonnegative,
    and V is the exact Collatz-Wielandt value at x:
    - Each entry of Gamma x is a sum of nonnegative terms, and each term meets
      at most 2n - 1 roundings on its way: one product and one sum per step of
      the recurrences of a factored Gamma, n - 1 sums and one product in a
      BLAS dot. The same holds for Gamma^T z. So each computed (S x)_i lies
      within a factor 1 -+ gamma_{4n-2} of its exact value, and the division
      by x_i adds one rounding more: gamma_{4n-1}.
    - A product that underflows is off by up to u 2^-1022 in absolute terms
      instead. Gamma x meets at most n of them per entry, and Gamma^T carries
      them with entries of at most m = max Gamma_ij, so (S x)_i is off by at
      most (n^2 m + n) u 2^-1022 (1 + gamma_{4n}). At the maximizing i,
      (S x)_i = V x_i with x_i >= 2^-510 and V >= S_ii >= max(1, m^2), so that
      error is below u 2^-400 V x_i for n <= 2^40.
    Together r >= V (1 - gamma_{4n-1} - u 2^-400) >= V (1 - gamma_{4n}), so
    V <= r (1 - 4n u) / (1 - 8n u) <= r (1 + 4.0001 n u) for n <= 2^33. The
    factor 1 + (8n + 16) u is exact, and the product and the square root each
    lose one rounding: the result is at least sqrt(r (1 + (8n + 16) u) (1 - u)^3)
    >= sqrt(V) >= ||Gamma||. A Gamma x or Gamma^T z that overflows gives an
    infinite bound; with x at most 2^512, that needs n m >= 2^255.
    """
    bound = float((g.rmatvec(g.matvec(x)) / x).max())
    if not bound < math.inf:  # S x overflowed: inf, or NaN through inf / inf
        return math.inf
    return math.sqrt(bound * (1.0 + (4 * g.n + 8) * np.finfo(float).eps))
