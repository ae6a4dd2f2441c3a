"""Upper-triangular oscillation-propagation matrices and their spectral norm."""

from __future__ import annotations

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
        if not np.allclose(np.diag(m), 1.0, rtol=0, atol=1e-12):
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
    if np.any((th < 0) | (th > 1)):
        raise ValidationError("contraction coefficients must lie in [0, 1]")
    m = np.eye(th.size + 1)
    for i in range(th.size):
        m[i, i + 1:] = np.cumprod(th[i:])
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
    m = np.eye(n_blocks)
    for i in range(n_blocks):
        for j in range(i + 1, n_blocks):
            m[i, j] = eps ** (j - i - 1)
    return GammaMatrix(m, "ergodic")


def operator_norm(g: GammaMatrix, rel_tol: float = 1e-10, max_iter: int = 10**5) -> float:
    """Largest singular value by power iteration on the symmetrized product.

    Deterministic: starts from the all-ones vector and stops when the
    Rayleigh quotient is stable to rel_tol. Non-convergence is an error,
    never a silent truncation.
    """
    m = g.entries
    if not np.all(np.isfinite(m)):
        raise ValidationError("gamma matrix entries must be finite")
    s = m.T @ m
    x = np.ones(s.shape[0])
    x /= np.linalg.norm(x)
    lam = float(x @ s @ x)
    for _ in range(max_iter):
        y = s @ x
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        x = y / norm
        lam_new = float(x @ s @ x)
        if abs(lam_new - lam) <= rel_tol * max(abs(lam_new), 1e-300):
            return float(np.sqrt(lam_new))
        lam = lam_new
    raise ConvergenceError(f"power iteration did not converge in {max_iter} iterations")
