"""Monte Carlo verification of certified bounds.

Everything here is falsifiable: empirical tails, moment generating
functions, and expected suprema are compared against certificates, and a
bound violated beyond Monte Carlo error is a build-failing event, not a
warning. All sampling is counter-based (see rng), so results are
bit-identical for a given seed regardless of chunking. Replicates, the
centering pilot included, are drawn and sampled in blocks of at most
SAMPLE_BLOCK replicates and SAMPLE_ELEMENTS coordinates, and each stream
samples every block into the same buffers: the memory a stream holds does not
grow with the replicate count, and a block shrinks as n grows. No statistic
keeps a value per replicate either: tail frequencies are integer counts
summed block by block, and every mean and standard error (the MGF's, the
supremum's, the pilot's center) is merged from leaves of PILOT_LEAF
consecutive values, so memory does not depend on the replicate count.
Every Monte Carlo loop takes its blocks from rng.uniform_blocks, whose one
worker thread draws the next block while this thread samples the current
one; the sampler, f and the statistics all run on the calling thread. A
table is centered exactly, whatever its size, and so is an additive
function, from its forward marginals; only a callable is centered by the
pilot. A sigma2 that is not finite and positive, a seed outside [0, 2^64), or
an f that does not give one finite value per trajectory is malformed input.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, field, fields

import numpy as np

from .chain import ChainSpec, TrajectoryBuffers, strides_for, trajectories_from_uniforms
from .concentration import (AdditiveFunction, TabularFunction, default_t_grid, expectation,
                            tail_bound)
from .errors import DEFAULT_POLICY_CAP, EnumerationCapError, ValidationError, json_native
from .rl import MdpSpec, PolicyClass, action_tables
from .rng import chunk_ranges, uniform_blocks

PILOT_REPLICATES = 10**6
# consecutive values that _LeafMoments sums at once by np.sum: a mean is the
# math.fsum of these sums, so it depends on no block size and holds no array
# of values
PILOT_LEAF = 4096
# a leaf sum is added exactly as an integer count of 2^-1074, the least
# subnormal: the total then rounds once, as math.fsum of the leaf sums does
_UNIT = 1 << 1074
# seeds lie in [0, 2^64), and pilot centering draws from the disjoint Philox
# key space above it, so it never collides with the replicates of any seed
_PILOT_KEY_OFFSET = 1 << 64
# replicates drawn and sampled at once: bounds the working set of every
# Monte Carlo loop
SAMPLE_BLOCK = 1 << 14
# replicates x coordinates of a block of empirical_tail and empirical_mgf:
# 2^13 replicates at n = 24, fewer as n grows. A stream holds two blocks of
# uniforms (the one being sampled and the one being drawn) and the sampler's
# buffers, about 1.5 MB each at this size
SAMPLE_ELEMENTS = 3 << 16
# largest (policies x replicates) array, and (state-action x replicates)
# next-state table, of an empirical_sup_value block: 512 KB each. Small blocks
# keep the working set in cache: on the 243-policy benchmark MDP (2-vCPU VM),
# 2^14-2^16 ran equally fast and 2^17-2^18 about 40% slower.
SUP_BLOCK_ELEMENTS = 1 << 16

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
    """Evaluate f on a matrix of trajectories (one per row): one finite value per row,
    else ValidationError."""
    if isinstance(f, TabularFunction):
        values = f.values[states @ np.asarray(strides_for(spec.coord_sizes))]
    elif isinstance(f, AdditiveFunction):
        values = f.evaluate(states)
    else:
        try:
            values = np.asarray(f(states), dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"function values must be numbers: {exc}") from exc
    if values.shape != states.shape[:1]:
        raise ValidationError(f"function returned shape {values.shape} on {len(states)} "
                              "trajectories; it must return one value per trajectory")
    if not np.isfinite(values).all():
        raise ValidationError("function returned a value that is not finite")
    return values


def _blocks(ranges, size: int) -> list[tuple[int, int]]:
    """Consecutive ranges of at most size replicates, covering each of ranges in turn."""
    return [(start, min(start + size, hi)) for lo, hi in ranges for start in range(lo, hi, size)]


def _value_blocks(f, spec: ChainSpec, seed: int, ranges):
    """Yield f along the trajectories of the replicates of ranges, one block at a
    time in replicate order.

    A block holds at most SAMPLE_BLOCK replicates and SAMPLE_ELEMENTS
    coordinates, and every block's trajectories are sampled into one set of
    buffers. The stream is closed on the way out, so its draw thread ends
    with the generator even when f raises.
    """
    blocks = _blocks(ranges, max(1, min(SAMPLE_BLOCK, SAMPLE_ELEMENTS // spec.n)))
    buffers = TrajectoryBuffers(spec, max((hi - lo for lo, hi in blocks), default=0))
    with closing(uniform_blocks(seed, spec.n, blocks)) as stream:
        for u in stream:
            yield _function_values(f, spec, trajectories_from_uniforms(spec, u, buffers))


class _LeafMoments:
    """Means and standard errors of the mean of `rows` value streams, fed a block
    at a time in replicate order, holding one leaf of each stream.

    The streams are cut into leaves of PILOT_LEAF consecutive values, written
    into one (rows, PILOT_LEAF) buffer by add's fill. A leaf's sum is np.sum
    of its values and its second moment the two-pass sum of squared
    deviations from its own mean; leaves are merged in order by the update of
    Chan, Golub and LeVeque (1983). A mean is math.fsum of its leaf sums over
    the count, and a standard error s / sqrt(count). So neither depends on how
    the stream is blocked, and memory does not grow with the count.
    """

    def __init__(self, rows: int = 1):
        self.leaf = np.empty((rows, PILOT_LEAF))
        self.scratch = np.empty((rows, PILOT_LEAF))
        self.filled = self.count = 0
        self.units = [0] * rows  # exact sums of the merged leaves' sums, in 2^-1074
        self.mean = np.zeros(rows)  # of the merged leaves, for Chan's update
        self.m2 = np.zeros(rows)

    def add(self, values: np.ndarray, fill=np.copyto) -> None:
        """Feed the next values; fill(out, piece) writes the rows that a piece of
        them contributes (by default, the piece itself)."""
        while values.size:
            k = min(PILOT_LEAF - self.filled, values.size)
            fill(self.leaf[:, self.filled:self.filled + k], values[:k])
            values = values[k:]
            self.filled += k
            if self.filled == PILOT_LEAF:
                self._merge()

    def _merge(self) -> None:
        k, leaf = self.filled, self.leaf[:, :self.filled]
        sums = leaf.sum(axis=1)
        if not np.isfinite(sums).all():
            raise ValidationError("a sum of sampled values is not finite")
        means = sums / k
        dev = np.subtract(leaf, means[:, None], out=self.scratch[:, :k])
        m2 = np.square(dev, out=dev).sum(axis=1)
        n = self.count + k
        delta = means - self.mean
        self.mean += delta * (k / n)
        self.m2 += m2 + delta * delta * (self.count * k / n)
        for row, total in enumerate(sums.tolist()):
            num, den = total.as_integer_ratio()
            self.units[row] += num * (_UNIT // den)
        self.count, self.filled = n, 0

    def means(self) -> np.ndarray:
        if self.filled:
            self._merge()
        return np.array([_units_total(units) for units in self.units]) / self.count

    def standard_errors(self) -> np.ndarray:
        if self.filled:
            self._merge()
        return np.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)


def _units_total(units: int) -> float:
    """units * 2^-1074, correctly rounded; an infinity if that overflows."""
    try:
        return units / _UNIT
    except OverflowError:
        return math.inf if units > 0 else -math.inf


def _pilot_center(f, spec: ChainSpec, seed: int) -> float:
    """Mean of f over PILOT_REPLICATES replicates of the pilot key, by
    _LeafMoments: it holds no array of their values and depends on no block
    size."""
    moments = _LeafMoments()
    ranges = [(0, PILOT_REPLICATES)]
    with closing(_value_blocks(f, spec, seed + _PILOT_KEY_OFFSET, ranges)) as blocks:
        for values in blocks:
            moments.add(values)
    return float(moments.means()[0])


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed = {seed} must lie in [0, 2^64)")


def _centred_sample(f, spec: ChainSpec, sigma2: float, replicates: int, seed: int,
                    chunks: int, checked_grid):
    """Shared front end of the grid estimators: (grid, center, method, blocks).

    Checks the replicates, the seed, then sigma2, then calls checked_grid()
    for the estimator's grid; only then centres f (exactly for a table or an
    additive function, else by the pilot). blocks is the stream of f's
    samples, block by block in replicate order whatever the chunks; the
    caller closes it.
    """
    if replicates < 10**3:
        raise ValidationError(f"replicates = {replicates} must be at least 1000")
    _check_seed(seed)
    if not 0 < sigma2 < math.inf:  # NaN fails both comparisons
        raise ValidationError(f"sigma2 = {sigma2} must be finite and positive")
    grid = checked_grid()
    if isinstance(f, TabularFunction):
        center, method = expectation(f, spec), "enumeration"
    elif isinstance(f, AdditiveFunction):
        center, method = f.mean(spec), "marginals"
    else:
        center, method = _pilot_center(f, spec, seed), f"pilot({PILOT_REPLICATES})"
    return grid, center, method, _value_blocks(f, spec, seed, chunk_ranges(replicates, chunks))


@dataclass(frozen=True)
class GridEstimate:
    """Empirical values on a grid against their certified bounds. A subclass names
    its grid GRID: its CSV column, and with "_grid" its to_dict key and attribute."""

    grid: np.ndarray
    empirical: np.ndarray
    standard_errors: np.ndarray
    bound: np.ndarray
    replicates: int
    seed: int
    sigma2: float
    center: float
    center_method: str

    def violations(self) -> list[int]:
        """Grid indices where the empirical value exceeds bound + 2 SE."""
        over = self.empirical > self.bound + 2.0 * self.standard_errors
        return [int(i) for i in np.flatnonzero(over)]

    def to_dict(self) -> dict:
        out = _fields_dict(self)
        return {f"{self.GRID}_grid": out.pop("grid"), **out, "violations": self.violations()}

    def to_csv(self) -> str:
        lines = [f"{self.GRID},empirical,se,bound"]
        for row in zip(self.grid, self.empirical, self.standard_errors, self.bound):
            lines.append(",".join(repr(float(x)) for x in row))  # no "np.float64(...)"
        return "\n".join(lines) + "\n"


def _fields_dict(estimate) -> dict:
    """A dataclass's fields by name, with arrays and tuples as lists."""
    return json_native({item.name: getattr(estimate, item.name) for item in fields(estimate)})


@dataclass(frozen=True)
class TailEstimate(GridEstimate):
    """Empirical two-sided tail frequencies against the certified bound."""

    caveats: tuple[str, ...] = ()

    GRID = "t"

    @property
    def t_grid(self) -> np.ndarray:
        return self.grid


def _checked_t_grid(t_grid, sigma2: float) -> np.ndarray:
    grid = np.asarray(default_t_grid(sigma2) if t_grid is None else t_grid, dtype=float)
    if grid.size == 0 or not np.all(np.isfinite(grid) & (grid >= 0)):
        raise ValidationError("t grid must be nonempty, finite and nonnegative")
    return grid


def empirical_tail(spec: ChainSpec, f, sigma2: float, t_grid=None, replicates: int = 10**5,
                   seed: int = 42, chunks: int = 1) -> TailEstimate:
    """Estimate P(|f - E f| >= t) on a grid and compare with 2 exp(-t^2 / 2 sigma2).

    f is a TabularFunction (centered exactly, by backward recursion over its
    table), an AdditiveFunction (centered exactly, from the forward
    marginals) or a vectorized callable on trajectory matrices (centered by a
    deterministic pilot run). The output records which.
    """
    grid, center, method, blocks = _centred_sample(
        f, spec, sigma2, replicates, seed, chunks, lambda: _checked_t_grid(t_grid, sigma2))
    counts = np.zeros(grid.size, dtype=np.int64)
    with closing(blocks):
        for values in blocks:
            dev = np.abs(values - center)
            counts += [np.count_nonzero(dev >= t) for t in grid]
    # a count over the replicate count: the bits of the mean of dev >= t
    emp = counts / replicates
    se = np.sqrt(emp * (1.0 - emp) / replicates)
    bound = np.array([2.0 * tail_bound(sigma2, float(t)) for t in grid])
    return TailEstimate(grid, emp, se, bound, replicates, seed, sigma2, center, method)


@dataclass(frozen=True)
class MgfEstimate(GridEstimate):
    """Empirical moment generating function of f - E f with standard errors s / sqrt(m)."""

    GRID = "lambda"

    @property
    def lambda_grid(self) -> np.ndarray:
        return self.grid


def _checked_lambda_grid(lambda_grid, sigma2: float) -> np.ndarray:
    grid = np.asarray(default_lambda_grid(sigma2) if lambda_grid is None else lambda_grid,
                      dtype=float)
    if grid.size == 0 or not np.isfinite(grid).all():
        raise ValidationError("lambda grid must be nonempty and finite")
    return grid


def empirical_mgf(spec: ChainSpec, f, sigma2: float, lambda_grid=None,
                  replicates: int = 10**5, seed: int = 42, chunks: int = 1) -> MgfEstimate:
    """Estimate E exp(lambda (f - E f)) on a grid against the envelope exp(lambda^2 sigma2 / 2).

    Grids that could overflow exp at the maximal centered value are rejected
    rather than producing infinities, before any block that could overflow
    is exponentiated: at the first block for a table or an additive
    function, whose extremes are known, and for a callable at the first
    block that reaches them. Each lambda's values exp(lambda (f - E f)) go
    through _LeafMoments.
    """
    grid, center, method, blocks = _centred_sample(
        f, spec, sigma2, replicates, seed, chunks,
        lambda: _checked_lambda_grid(lambda_grid, sigma2))
    widest = float(np.max(np.abs(grid)))
    spread = 0.0
    if isinstance(f, (TabularFunction, AdditiveFunction)):
        # max |v - center| over f's values is at its min or max: rounding is monotone
        lo, hi = f.value_range(spec)
        spread = max(abs(hi - center), abs(lo - center))
    moments = _LeafMoments(grid.size)

    def exp_rows(out, dev):
        np.exp(np.multiply(grid[:, None], dev, out=out), out=out)

    with closing(blocks):
        for values in blocks:
            dev = values - center
            spread = max(spread, float(np.max(np.abs(dev))))
            if widest * spread > 700.0:
                raise ValidationError("lambda grid risks overflow: max |lambda| * "
                                      f"max |f - E f| = {widest * spread} > 700")
            moments.add(dev, exp_rows)
    bound = np.exp(grid**2 * sigma2 / 2.0)
    return MgfEstimate(grid, moments.means(), moments.standard_errors(), bound, replicates,
                       seed, sigma2, center, method)


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
        return _fields_dict(self)


def empirical_sup_value(mdp: MdpSpec, pc: PolicyClass, replicates: int = 10**4,
                        seed: int = 42, cap: int = DEFAULT_POLICY_CAP,
                        chunks: int = 1) -> SupValueEstimate:
    """Estimate E sup_pi (V_pi - E V_pi) with common random numbers.

    Each replicate draws one uniform per stage (the first picks the initial
    state); every policy's trajectory is driven through the inverse CDFs of
    its induced kernels by that same stream, so the estimate is invariant to
    policy ordering and to chunking.

    All policies are sampled together. Per stage, one (S*A, m) table holds
    the next state of every state-action pair under the block's m uniforms,
    and the (policies, m) state array steps through it by one gather. A block
    holds m = SUP_BLOCK_ELEMENTS // max(policies, S*A) replicates (at least
    one, at most SAMPLE_BLOCK), so memory stays bounded whatever the class
    size and the replicate count, and every policy shares each stage's table.
    Rewards are summed in stage order and each policy is centred at its exact
    value, recomputed here for the whole class by MdpSpec.class_values, so
    every sample is bitwise that of sampling each induced chain on its own.
    """
    if len(pc) > cap:
        raise EnumerationCapError(f"policy class of size {len(pc)} exceeds cap {cap}")
    if replicates < 2:
        raise ValidationError(f"replicates = {replicates} must be at least 2")
    _check_seed(seed)
    rows = _pair_rows(mdp, pc)
    centers = mdp.class_values(pc.policies)[:, None]
    rewards = mdp.rewards.ravel()
    # cdf[k, row] is breakpoint k of state-action row s * A + a's next-state CDF
    cdf = np.cumsum(mdp.kernel_rows, axis=2).reshape(-1, mdp.n_states)[:, :-1].T.copy()
    init_cdf = np.cumsum(mdp.initial.probs)[:-1]
    width = max(1, min(SAMPLE_BLOCK, SUP_BLOCK_ELEMENTS // max(len(pc), cdf.shape[1])))
    moments = _LeafMoments()
    ranges = _blocks(chunk_ranges(replicates, chunks), width)
    with closing(uniform_blocks(seed, mdp.horizon, ranges)) as blocks:
        for u in blocks:
            values = _reward_sums(rows, rewards, init_cdf, cdf, u.T.copy())
            values -= centers
            moments.add(values.max(axis=0))
    return SupValueEstimate(float(moments.means()[0]), float(moments.standard_errors()[0]),
                            replicates, seed, len(pc))


def _pair_rows(mdp: MdpSpec, pc: PolicyClass) -> np.ndarray:
    """Flat (policies * S) table: entry p * S + s is the state-action row
    s * A + pi_p(s) that policy p takes in state s."""
    return (np.arange(mdp.n_states) * mdp.n_actions + action_tables(mdp, pc.policies)).ravel()


def _reward_sums(rows: np.ndarray, rewards: np.ndarray, init_cdf: np.ndarray,
                 cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(policies, m) summed rewards on the replicates of u, one row of u per stage.

    rows is the flat _pair_rows table, over S = init_cdf.size + 1 states.
    States are held as codes p * S + s, so one flat gather maps every state
    to its row; the next state is #{k : cdf[k, row] <= u}, counted as in
    chain.trajectories_from_uniforms. Every gather index is in range by
    construction, so the gathers into out= arrays use mode="clip": under the
    default mode="raise" numpy writes through a temporary buffer each time.
    """
    horizon, m = u.shape
    n_states = init_cdf.size + 1
    offsets = np.arange(0, rows.size, n_states)[:, None]
    first = np.zeros(m, dtype=np.intp)
    for k in range(init_cdf.size):
        first += init_cdf[k] <= u[0]
    codes = first + offsets
    taken = np.empty_like(codes)
    reward = np.empty(codes.shape)
    values = np.zeros(codes.shape)
    nxt = np.empty((cdf.shape[1], m), dtype=np.intp)
    replicate = np.arange(m)
    code_rewards, code_offsets = rewards.take(rows), rows * m
    for stage in range(horizon):
        values += code_rewards.take(codes, out=reward, mode="clip")
        if stage + 1 < horizon:
            nxt.fill(0)
            for k in range(cdf.shape[0]):
                nxt += cdf[k][:, None] <= u[stage + 1]
            code_offsets.take(codes, out=taken, mode="clip")
            taken += replicate
            nxt.take(taken, out=codes, mode="clip")
            codes += offsets
    return values
