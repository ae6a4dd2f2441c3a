"""Maximal couplings and the exact coupling (Wasserstein/Gamma) matrix.

The coupling construction puts mass min(p_u, q_u) on the diagonal and couples
the residuals by their normalized outer product, so the off-diagonal mass
equals the total variation distance exactly: no coupling can do better. The
Gamma matrix built from these couplings has a closed form in kernel
products, so nothing is enumerated and no cap applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainSpec, Distribution, dobrushin_coefficients, t_step_products
from .errors import ValidationError
from .gamma import GammaMatrix


@dataclass(frozen=True)
class CouplingTable:
    """Joint law over (support of p) x (support of q) with marginals p and q."""

    joint: np.ndarray

    def row_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    def off_diagonal_mass(self) -> float:
        return float(self.joint.sum() - np.trace(self.joint))

    def to_dict(self) -> dict:
        return {"shape": list(self.joint.shape), "joint": self.joint.tolist()}


def goldstein_coupling(p: Distribution, q: Distribution) -> CouplingTable:
    """Maximal coupling of two distributions on the same state set.

    The returned table has row sums p, column sums q, and off-diagonal mass
    equal to tv_distance(p, q). The residual outer product is canonical and
    order-independent, so the construction is deterministic.
    """
    if len(p) != len(q):
        raise ValidationError(f"goldstein_coupling: length mismatch {len(p)} vs {len(q)}")
    common = np.minimum(p.probs, q.probs)
    joint = np.diag(common)
    tv = float(p.probs.sum() - common.sum())  # == tv_distance(p, q) for normalized inputs
    if tv > 0.0:
        rp = p.probs - common
        rq = q.probs - common
        joint = joint + np.outer(rp, rq) / tv
    return CouplingTable(joint)


def wasserstein_matrix_tv(spec: ChainSpec) -> GammaMatrix:
    """Exact discrete-metric Gamma matrix, in closed form.

    Entry (i, j), i < j, is the supremum over pairs of coordinate-i values
    (both with positive marginal probability) of the TV distance between the
    conditional laws of the block (X_j, ..., X_{n-1}). The maximal-coupling
    identity makes this the tightest discrete-metric Wasserstein entry. Given
    X_j, the rest of the block does not depend on X_i (Markov property), so
    that distance is the TV between rows of K_i ... K_{j-1}: the entry is the
    Dobrushin coefficient of the lag j - i product at i of t_step_products,
    restricted to the rows in the support of X_i's forward marginal.
    Zero-marginal values never constrain the supremum.

    Each start's support rows are gathered repeated to fill its row count, so
    every stack of the lag table keeps its shape and gives its coefficients in
    one batched call, written to the lag's superdiagonal. A repeated row adds
    no pair, so each is the restricted coefficient bit for bit, and a
    one-state support gives exactly 0. O(n^2 S^3) in all.
    """
    n = spec.n
    m = np.eye(n)
    support_rows = np.zeros((n - 1, max(spec.coord_sizes)), dtype=np.intp)
    law = spec.initial.probs
    for i, k in enumerate(spec.kernels):
        support_rows[i, :law.size] = np.resize(np.flatnonzero(law > 0.0), law.size)
        law = law @ k.rows
    for t, stacks in enumerate(t_step_products(spec), start=1):
        coefficients, i = [], 0
        for stack in stacks:
            rows = support_rows[i:i + len(stack), :stack.shape[1], None]
            coefficients.append(dobrushin_coefficients(np.take_along_axis(stack, rows, axis=1)))
            i += len(stack)
        starts = np.arange(n - t)
        m[starts, starts + t] = np.concatenate(coefficients)
    return GammaMatrix(m, "brute_force_tv")
