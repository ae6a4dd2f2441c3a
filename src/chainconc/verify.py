"""Monte Carlo verification of certified bounds.

Everything here is falsifiable: empirical tails, moment generating
functions, and expected suprema are compared against certificates, and a
bound violated beyond Monte Carlo error is a build-failing event, not a
warning. All sampling is counter-based (see rng), so results are
bit-identical for a given seed regardless of chunking. Replicates, the
centering pilot included, are drawn and sampled in blocks of at most
SAMPLE_BLOCK, so peak memory does not grow with the replicate count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import ChainSpec, strides_for, trajectories_from_uniforms
from .concentration import TabularFunction, conditional_expectation_tables, default_t_grid, tail_bound
from .errors import DEFAULT_POLICY_CAP, EnumerationCapError, ValidationError, enumeration_cap
from .rl import MdpSpec, PolicyClass, exact_value, induced_chain
from .rng import chunk_ranges, uniform_matrix

PILOT_REPLICATES = 10**6
# pilot centering draws from a disjoint Philox key space so it never collides
# with verification replicates of the same seed
_PILOT_KEY_OFFSET = 1 << 64
# replicates drawn and sampled at once: bounds the working set of every
# Monte Carlo loop (about 3 MB of uniforms per block at n = 24)
SAMPLE_BLOCK = 1 << 14

CRN_CAVEAT = (
    "empirical suprema use common random numbers: one shared uniform stream "
    "drives every policy, which fixes a joint law the certificates do not "
    "assume; the bounds depend only on marginals and must still dominate"
)

DEFAULT_LAMBDA_MULTIPLIERS = (-0.5, -0.2, -0.1, -0.05, 0.05, 0.1, 0.2, 0.5)


def default_lambda_grid(sigma2: float) -> np.ndarray:
    """MGF grid {+-0.05, +-0.1, +-0.2, +-0.5} / sqrt(sigma2)."""
    return np.array(DEFAULT_LAMBDA_MULTIPLIERS) / math.sqrt(sigma2)


def _function_values(f, spec: ChainSpec, states: np.ndarray) -> np.ndarray:
    """Evaluate f on a matrix of trajectories (one per row)."""
    if isinstance(f, TabularFunction):
        strides = np.asarray(strides_for(spec.coord_sizes))
        return f.values[states @ strides]
    return np.asarray(f(states), dtype=float)


def _blocks(lo: int, hi: int):
    """Consecutive ranges covering [lo, hi), each at most SAMPLE_BLOCK long."""
    for start in range(lo, hi, SAMPLE_BLOCK):
        yield start, min(start + SAMPLE_BLOCK, hi)


def _block_values(f, spec: ChainSpec, seed: int, lo: int, hi: int) -> list[np.ndarray]:
    """f along the trajectories of replicates [lo, hi), one array per block."""
    return [
        _function_values(f, spec, trajectories_from_uniforms(
            spec, uniform_matrix(seed, b - a, spec.n, first=a)))
        for a, b in _blocks(lo, hi)
    ]


def _center(f, spec: ChainSpec, cap: int | None, seed: int) -> tuple[float, str]:
    """Exact centering when enumeration is feasible, else a deterministic pilot."""
    if isinstance(f, TabularFunction) and spec.joint_size() <= enumeration_cap(cap):
        return float(conditional_expectation_tables(f, spec, cap=cap)[0]), "enumeration"
    values = _block_values(f, spec, seed + _PILOT_KEY_OFFSET, 0, PILOT_REPLICATES)
    return float(np.mean(np.concatenate(values))), f"pilot({PILOT_REPLICATES})"


def _sample_values(f, spec: ChainSpec, seed: int, replicates: int, chunks: int) -> np.ndarray:
    """f along sampled trajectories, in replicate order, chunk-independent."""
    parts = [v for lo, hi in chunk_ranges(replicates, chunks)
             for v in _block_values(f, spec, seed, lo, hi)]
    return np.concatenate(parts) if parts else np.empty(0)


@dataclass(frozen=True)
class TailEstimate:
    """Empirical two-sided tail frequencies against the certified bound."""

    t_grid: np.ndarray
    empirical: np.ndarray
    standard_errors: np.ndarray
    bound: np.ndarray
    replicates: int
    seed: int
    sigma2: float
    center: float
    center_method: str
    caveats: tuple[str, ...] = ()

    def violations(self) -> list[int]:
        """Grid indices where the empirical tail exceeds bound + 2 SE."""
        return [
            int(i)
            for i in np.flatnonzero(self.empirical > self.bound + 2.0 * self.standard_errors)
        ]

    def to_dict(self) -> dict:
        return {
            "t_grid": self.t_grid.tolist(),
            "empirical": self.empirical.tolist(),
            "standard_errors": self.standard_errors.tolist(),
            "bound": self.bound.tolist(),
            "replicates": self.replicates,
            "seed": self.seed,
            "sigma2": self.sigma2,
            "center": self.center,
            "center_method": self.center_method,
            "violations": self.violations(),
            "caveats": list(self.caveats),
        }

    def to_csv(self) -> str:
        lines = ["t,empirical,se,bound"]
        for t, e, s, b in zip(self.t_grid, self.empirical, self.standard_errors, self.bound):
            lines.append(f"{t!r},{e!r},{s!r},{b!r}")
        return "\n".join(lines) + "\n"


def empirical_tail(spec: ChainSpec, f, sigma2: float, t_grid=None, replicates: int = 10**5,
                   seed: int = 42, cap: int | None = None, chunks: int = 1) -> TailEstimate:
    """Estimate P(|f - E f| >= t) on a grid and compare with 2 exp(-t^2 / 2 sigma2).

    f is a TabularFunction (exact centering by enumeration when the joint
    space fits the cap) or a vectorized callable on trajectory matrices
    (centered by a deterministic pilot run, recorded in the output).
    """
    if replicates < 10**3:
        raise ValidationError(f"replicates = {replicates} must be at least 1000")
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    grid = np.asarray(default_t_grid(sigma2) if t_grid is None else t_grid, dtype=float)
    if grid.size == 0 or np.any(grid < 0):
        raise ValidationError("t grid must be nonempty and nonnegative")
    center, method = _center(f, spec, cap, seed)
    dev = np.abs(_sample_values(f, spec, seed, replicates, chunks) - center)
    emp = np.array([float(np.mean(dev >= t)) for t in grid])
    se = np.sqrt(emp * (1.0 - emp) / replicates)
    bound = np.array([2.0 * tail_bound(sigma2, float(t)) for t in grid])
    return TailEstimate(grid, emp, se, bound, replicates, seed, sigma2, center, method)


@dataclass(frozen=True)
class MgfEstimate:
    """Empirical moment generating function of f - E f with jackknife errors."""

    lambda_grid: np.ndarray
    empirical: np.ndarray
    standard_errors: np.ndarray
    bound: np.ndarray
    replicates: int
    seed: int
    sigma2: float
    center: float
    center_method: str

    def violations(self) -> list[int]:
        return [
            int(i)
            for i in np.flatnonzero(self.empirical > self.bound + 2.0 * self.standard_errors)
        ]

    def to_dict(self) -> dict:
        return {
            "lambda_grid": self.lambda_grid.tolist(),
            "empirical": self.empirical.tolist(),
            "standard_errors": self.standard_errors.tolist(),
            "bound": self.bound.tolist(),
            "replicates": self.replicates,
            "seed": self.seed,
            "sigma2": self.sigma2,
            "center": self.center,
            "center_method": self.center_method,
            "violations": self.violations(),
        }

    def to_csv(self) -> str:
        lines = ["lambda,empirical,se,bound"]
        for lam, e, s, b in zip(self.lambda_grid, self.empirical, self.standard_errors, self.bound):
            lines.append(f"{lam!r},{e!r},{s!r},{b!r}")
        return "\n".join(lines) + "\n"


def _jackknife_se_of_mean(w: np.ndarray) -> float:
    """Jackknife standard error of the sample mean (equals s / sqrt(m))."""
    m = w.size
    if m < 2:
        return 0.0
    total = float(w.sum())
    loo = (total - w) / (m - 1)
    return float(np.sqrt((m - 1) / m * np.sum((loo - loo.mean()) ** 2)))


def empirical_mgf(spec: ChainSpec, f, sigma2: float, lambda_grid=None,
                  replicates: int = 10**5, seed: int = 42, cap: int | None = None,
                  chunks: int = 1) -> MgfEstimate:
    """Estimate E exp(lambda (f - E f)) on a grid against the envelope exp(lambda^2 sigma2 / 2).

    Grids that could overflow exp at the maximal centered value are rejected
    up front rather than producing infinities.
    """
    if replicates < 10**3:
        raise ValidationError(f"replicates = {replicates} must be at least 1000")
    if sigma2 <= 0:
        raise ValidationError("sigma2 must be positive")
    grid = np.asarray(default_lambda_grid(sigma2) if lambda_grid is None else lambda_grid,
                      dtype=float)
    if grid.size == 0:
        raise ValidationError("lambda grid must be nonempty")
    center, method = _center(f, spec, cap, seed)
    values = _sample_values(f, spec, seed, replicates, chunks) - center
    if isinstance(f, TabularFunction) and spec.joint_size() <= enumeration_cap(cap):
        max_dev = float(np.max(np.abs(f.values - center)))
    else:
        max_dev = float(np.max(np.abs(values))) if values.size else 0.0
    worst = float(np.max(np.abs(grid))) * max_dev
    if worst > 700.0:
        raise ValidationError(
            f"lambda grid risks overflow: max |lambda| * max |f - E f| = {worst} > 700"
        )
    emp, se = [], []
    for lam in grid:
        w = np.exp(lam * values)
        emp.append(float(np.mean(w)))
        se.append(_jackknife_se_of_mean(w))
    bound = np.exp(grid**2 * sigma2 / 2.0)
    return MgfEstimate(grid, np.array(emp), np.array(se), bound, replicates, seed,
                       sigma2, center, method)


@dataclass(frozen=True)
class SupValueEstimate:
    """Monte Carlo estimate of E sup over policies of the centered value."""

    estimate: float
    standard_error: float
    replicates: int
    seed: int
    class_size: int
    caveats: tuple[str, ...] = (CRN_CAVEAT,)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "standard_error": self.standard_error,
            "replicates": self.replicates,
            "seed": self.seed,
            "class_size": self.class_size,
            "caveats": list(self.caveats),
            "details": self.details,
        }


def empirical_sup_value(mdp: MdpSpec, pc: PolicyClass, replicates: int = 10**4,
                        seed: int = 42, cap: int = DEFAULT_POLICY_CAP,
                        chunks: int = 1) -> SupValueEstimate:
    """Estimate E sup_pi (V_pi - E V_pi) with common random numbers.

    Each replicate draws one uniform per stage (plus one for the initial
    state); every policy's trajectory is driven through its own kernels by
    that same stream, so the estimate is invariant to policy ordering and
    to chunking.
    """
    if len(pc) > cap:
        raise EnumerationCapError(f"policy class of size {len(pc)} exceeds cap {cap}")
    if replicates < 2:
        raise ValidationError(f"replicates = {replicates} must be at least 2")
    chains = [induced_chain(mdp, pi) for pi in pc.policies]
    centers = [exact_value(mdp, pi) for pi in pc.policies]
    reward_tables = [
        np.stack([mdp.rewards[np.arange(mdp.n_states), pi.action_table(stage)]
                  for stage in range(mdp.horizon)])
        for pi in pc.policies
    ]
    parts = []
    for lo, hi in chunk_ranges(replicates, chunks):
        for a, b in _blocks(lo, hi):
            u = uniform_matrix(seed, b - a, mdp.horizon, first=a)
            sup = np.full(b - a, -np.inf)
            for chain_spec, center, rtab in zip(chains, centers, reward_tables):
                states = trajectories_from_uniforms(chain_spec, u)
                v = np.zeros(b - a)
                for stage in range(mdp.horizon):
                    v += rtab[stage][states[:, stage]]
                sup = np.maximum(sup, v - center)
            parts.append(sup)
    sups = np.concatenate(parts)
    estimate = float(np.mean(sups))
    se = float(np.std(sups, ddof=1) / math.sqrt(replicates))
    return SupValueEstimate(estimate, se, replicates, seed, len(pc))
