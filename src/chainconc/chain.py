"""Finite-state, time-inhomogeneous Markov chains.

A chain over coordinates 0..n-1 is given by an initial distribution on the
first coordinate and one row-stochastic kernel per step. All per-coordinate
metrics are the discrete 0/1 metric; Lipschitz weights live in the
concentration module. Everything here is a pure function of immutable
values: validation normalizes once, after which operations trust their
inputs. The one exception is scratch memory: a TrajectoryBuffers that a
caller passes to the sampler is overwritten by each block.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (PROB_TOL, EnumerationCapError, ValidationError, enumeration_cap, json_int,
                     size_text)

# largest pair-difference temporaries, matrices x rows (rows - 1) x states
# entries (two of half that size), of one dobrushin_coefficients block: 512 KB
PAIR_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Distribution:
    """Probability vector over a finite set of states."""

    probs: np.ndarray

    @classmethod
    def from_array(cls, arr, where: str = "distribution") -> "Distribution":
        """Validate and normalize a probability vector.

        Entries must be finite, nonnegative and sum to 1 within ``PROB_TOL``;
        sums inside the tolerance are renormalized, anything worse is rejected.
        """
        probs = np.asarray(arr, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValidationError(f"{where}: expected a nonempty 1-d probability vector")
        if not np.isfinite(probs).all():
            idx = int(np.argmin(np.isfinite(probs)))
            raise ValidationError(f"{where}: non-finite entry {probs[idx]} at index {idx}")
        if np.any(probs < 0):
            idx = int(np.argmin(probs))
            raise ValidationError(f"{where}: negative entry {probs[idx]} at index {idx}")
        total = float(probs.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"{where}: entries sum to {total}, not 1 within {PROB_TOL}")
        return cls(probs / total)

    def __len__(self) -> int:
        return self.probs.size


def _stochastic_stack(stack: np.ndarray, name) -> np.ndarray:
    """Check a (k, rows, states) stack of row-stochastic matrices; return it renormalized.

    Entries must be finite and nonnegative, and each row must sum to 1 within
    PROB_TOL. The first matrix that fails raises, named name(j) for its index
    j, with its first non-finite entry, else its smallest negative entry, else
    its first row off 1.
    """
    finite = np.isfinite(stack)
    sums = stack.sum(axis=2)
    off = np.abs(sums - 1.0) > PROB_TOL
    bad = ~finite.all(axis=(1, 2)) | (stack < 0).any(axis=(1, 2)) | off.any(axis=1)
    if bad.any():
        j = int(bad.argmax())
        rows, where = stack[j], name(j)
        if not finite[j].all():
            i, c = np.unravel_index(int(np.argmin(finite[j])), rows.shape)
            raise ValidationError(f"{where}: non-finite entry {rows[i, c]} at row {i}, column {c}")
        if np.any(rows < 0):
            i, c = np.unravel_index(int(np.argmin(rows)), rows.shape)
            raise ValidationError(f"{where}: negative entry {rows[i, c]} at row {i}, column {c}")
        i = int(np.argmax(off[j]))
        raise ValidationError(f"{where}: row {i} sums to {sums[j, i]}, not 1 within {PROB_TOL}")
    return stack / sums[:, :, None]


@dataclass(frozen=True, slots=True)
class Kernel:
    """Row-stochastic matrix: rows[s] is the distribution of the next state given s."""

    rows: np.ndarray

    @classmethod
    def from_array(cls, arr, where: str = "kernel") -> "Kernel":
        rows = np.asarray(arr, dtype=float)
        if rows.ndim != 2 or rows.size == 0:
            raise ValidationError(f"{where}: expected a nonempty 2-d matrix")
        return cls(_stochastic_stack(rows[None], lambda j: where)[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows.shape


@dataclass(frozen=True)
class ChainSpec:
    """Joint law of (X_0, ..., X_{n-1}): initial distribution plus step kernels.

    kernels[i] maps coordinate i to coordinate i+1 and has shape
    (coord_sizes[i], coord_sizes[i+1]). A homogeneous chain is the special
    case of one kernel repeated.
    """

    coord_sizes: tuple[int, ...]
    initial: Distribution
    kernels: tuple[Kernel, ...] = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return len(self.coord_sizes)

    def joint_size(self) -> int:
        return math.prod(self.coord_sizes)


def validate_chain(spec: ChainSpec) -> ChainSpec:
    """Check every chain invariant, returning a normalized copy.

    Probability rows within PROB_TOL of stochastic are renormalized; the
    first violated invariant is reported with its coordinate or kernel index.
    """
    if len(spec.coord_sizes) < 1:
        raise ValidationError("chain must have at least one coordinate")
    for i, size in enumerate(spec.coord_sizes):
        if int(size) < 1:
            raise ValidationError(f"coord_sizes[{i}] = {size} must be a positive integer")
    sizes = tuple(int(s) for s in spec.coord_sizes)
    initial = Distribution.from_array(spec.initial.probs, where="initial distribution")
    if len(initial) != sizes[0]:
        raise ValidationError(
            f"initial distribution has length {len(initial)}, expected coord_sizes[0] = {sizes[0]}"
        )
    if len(spec.kernels) != len(sizes) - 1:
        raise ValidationError(
            f"expected {len(sizes) - 1} kernels for {len(sizes)} coordinates, got {len(spec.kernels)}"
        )
    kernels: list[Kernel] = []
    for _, run in itertools.groupby(spec.kernels, key=lambda k: np.shape(k.rows)):
        kernels += _validated_run(list(run), len(kernels), sizes)
    return ChainSpec(sizes, initial, tuple(kernels))


def _validated_run(run: list, first: int, sizes: tuple[int, ...]) -> list[Kernel]:
    """Validate the equal-shape kernels at positions first, first + 1, ... as one stack.

    Errors come in position order, as checking one kernel at a time would
    raise them: a kernel's entries before its shape.
    """
    stack = np.array([k.rows for k in run], dtype=float)
    if stack.ndim != 3 or stack[0].size == 0:
        raise ValidationError(f"kernel {first}: expected a nonempty 2-d matrix")
    shape = stack.shape[1:]
    expected = np.array(sizes[first:first + len(run) + 1])
    wrong = np.flatnonzero((expected[:-1] != shape[0]) | (expected[1:] != shape[1]))
    last = int(wrong[0]) if wrong.size else len(run) - 1  # the last position that counts
    rows = _stochastic_stack(stack[:last + 1], lambda j: f"kernel {first + j}")
    if wrong.size:
        raise ValidationError(f"kernel {first + last} has shape {shape}, "
                              f"expected ({expected[last]}, {expected[last + 1]})")
    return [Kernel(r) for r in rows]


def homogeneous_chain(kernel, n: int, initial=None) -> ChainSpec:
    """Chain with one kernel repeated n-1 times; uniform initial by default.

    The kernel is checked on its own first, so a bad kernel is rejected even
    at n = 1, but only validate_chain normalizes it and the initial law: the
    chain is bitwise the one its explicit form gives.
    """
    rows = np.asarray(kernel, dtype=float)
    shape = Kernel.from_array(rows).shape
    if shape[0] != shape[1]:
        raise ValidationError(f"homogeneous kernel must be square, got {shape}")
    if n < 1:
        raise ValidationError(f"n = {n} must be >= 1")
    size = shape[0]
    init = np.full(size, 1.0 / size) if initial is None else np.asarray(initial, dtype=float)
    return validate_chain(ChainSpec((size,) * n, Distribution(init), (Kernel(rows),) * (n - 1)))


def tv_distance(p: Distribution, q: Distribution) -> float:
    """Total variation distance: half the L1 distance between probability vectors."""
    if len(p) != len(q):
        raise ValidationError(f"tv_distance: length mismatch {len(p)} vs {len(q)}")
    return 0.5 * float(np.abs(p.probs - q.probs).sum())


def dobrushin_coefficients(stack: np.ndarray) -> np.ndarray:
    """Max TV distance between any two rows of each matrix in a (..., rows, states) stack.

    The half-L1 distances come from one gathered difference per block over
    the row pairs i < j only: |a - b| is |b - a| bit for bit and a row's
    distance to itself is 0, which the maximum starts from. A (k, rows,
    states) stack goes in blocks whose differences fit PAIR_BLOCK_ELEMENTS,
    so no temporary grows with k. Each coefficient is clipped at 1: rows off
    1 by rounding can give 1 + 2^-52. A matrix made of some rows of another,
    each repeated any number of times, has the coefficient of those rows
    alone bit for bit: a repeated row adds no pair.
    """
    rows, states = stack.shape[-2:]
    if stack.ndim == 3:
        block = max(1, PAIR_BLOCK_ELEMENTS // max(1, rows * (rows - 1) * states))
        if len(stack) > block:
            return np.concatenate([dobrushin_coefficients(stack[lo:lo + block])
                                   for lo in range(0, len(stack), block)])
    first, second = np.nonzero(np.less.outer(np.arange(rows), np.arange(rows)))
    diffs = stack[..., first, :]
    diffs -= stack[..., second, :]
    sums = np.add.reduce(np.abs(diffs, out=diffs), axis=-1)
    half = 0.5 * np.maximum.reduce(sums, axis=-1, initial=0.0)
    return np.minimum(half, 1.0)


def dobrushin_coefficient(k: Kernel) -> float:
    """Max TV distance between any two rows of the kernel (Dobrushin/Doeblin coefficient)."""
    return float(dobrushin_coefficients(k.rows))


def t_step_products(spec: ChainSpec):
    """For t = 1, ..., n-1, the t-step kernels K_i ... K_{i+t-1} of the starts i < n - t.

    Each lag is a list of (m, rows, cols) stacks that hold the products in
    start order, one stack per run of starts with equal shapes, so lag t
    holds n - t products whether or not the kernels are equal. Lag t extends
    lag t-1 by one stacked matmul per run, which keeps the bits of each
    start's own left-to-right product.
    """
    runs = [np.array([k.rows for k in run])
            for _, run in itertools.groupby(spec.kernels, key=lambda k: k.shape)]
    firsts = list(itertools.accumulate(map(len, runs[:-1]), initial=0))  # their first positions
    table = list(zip(firsts, runs))  # (first start, stack of products) pairs
    for t in range(1, spec.n):
        if t > 1:
            extended = []
            for start, stack in table:
                i, stop = start, min(start + len(stack), spec.n - t)
                while i < stop:  # the starts from i whose kernel i + t - 1 lies in one run
                    r = bisect.bisect_right(firsts, i + t - 1) - 1
                    j = min(stop, firsts[r] + len(runs[r]) - t + 1)
                    at = i + t - 1 - firsts[r]
                    extended.append((i, stack[i - start:j - start] @ runs[r][at:at + j - i]))
                    i = j
            table = extended
        yield [stack for _, stack in table]


def t_step_coefficients(spec: ChainSpec):
    """For each lag of t_step_products, the Dobrushin coefficient of every product in start order."""
    for stacks in t_step_products(spec):
        yield np.concatenate([dobrushin_coefficients(stack) for stack in stacks])


# ---------------------------------------------------------------------------
# mixed-radix indexing over the joint space


def strides_for(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major strides: flat index = sum_i states[i] * strides[i]."""
    out = [1] * len(sizes)
    for i in range(len(sizes) - 2, -1, -1):
        out[i] = out[i + 1] * sizes[i + 1]
    return tuple(out)


def prefix_probability(spec: ChainSpec, prefix) -> float:
    """P(X_0 = prefix[0], ..., X_{i-1} = prefix[i-1]) under the chain."""
    states = [int(s) for s in prefix]
    if len(states) > spec.n:
        raise ValidationError(f"prefix of length {len(states)} exceeds chain length {spec.n}")
    for c, s in enumerate(states):
        if not 0 <= s < spec.coord_sizes[c]:
            raise ValidationError(f"prefix[{c}] = {s} out of range for coordinate size {spec.coord_sizes[c]}")
    if not states:
        return 1.0
    p = float(spec.initial.probs[states[0]])
    for c in range(len(states) - 1):
        p *= float(spec.kernels[c].rows[states[c], states[c + 1]])
    return p


def marginal(spec: ChainSpec, j: int) -> Distribution:
    """Exact marginal law of X_j, by forward kernel products."""
    if not 0 <= j < spec.n:
        raise ValidationError(f"coordinate {j} out of range for chain of length {spec.n}")
    law = spec.initial.probs
    for c in range(j):
        law = law @ spec.kernels[c].rows
    return Distribution(law)


def forward_law(spec: ChainSpec, law: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Joint law of (X_start, ..., X_{stop-1}) from the law of X_start, flattened row-major.

    Each step multiplies every flat entry by the kernel row of its last
    coordinate, so the result has prod(coord_sizes[start:stop]) entries.
    """
    for c in range(start, stop - 1):
        law = (law.reshape(-1, spec.coord_sizes[c])[:, :, None] * spec.kernels[c].rows).ravel()
    return law


def _expand_block(spec: ChainSpec, law_at_j: np.ndarray, j: int, cap: int | None) -> Distribution:
    """Joint law of (X_j, ..., X_{n-1}) from the law of X_j, flattened row-major."""
    total = math.prod(spec.coord_sizes[j:])
    limit = enumeration_cap(cap)
    if total > limit:
        raise EnumerationCapError(
            f"block of size {size_text(total)} exceeds enumeration cap {limit}")
    return Distribution(forward_law(spec, law_at_j, j, spec.n))


def conditional_law(spec: ChainSpec, prefix, j: int, cap: int | None = None) -> Distribution:
    """Exact law of the block (X_j, ..., X_{n-1}) given X_0..X_{i-1} = prefix.

    The prefix fixes the first len(prefix) coordinates and must have positive
    probability; j must satisfy len(prefix) <= j < n. The block law is
    returned flattened row-major over coord_sizes[j:]. By the Markov property
    it depends on the prefix only through its last coordinate, so it is
    block_law_given_coordinate at that coordinate.
    """
    states = [int(s) for s in prefix]
    i = len(states)
    if not i <= j < spec.n:
        raise ValidationError(f"block start {j} must lie in [{i}, {spec.n})")
    if prefix_probability(spec, states) <= 0.0:
        raise ValidationError(f"prefix {tuple(states)} has zero probability")
    if i == 0:
        return _expand_block(spec, marginal(spec, j).probs, j, cap)
    return block_law_given_coordinate(spec, i - 1, states[-1], j, cap=cap)


def block_law_given_coordinate(spec: ChainSpec, i: int, value: int, j: int,
                               cap: int | None = None) -> Distribution:
    """Law of the block (X_j, ..., X_{n-1}) given X_i = value, for j > i.

    Equals conditional_law for any positive-probability prefix ending in
    `value` at coordinate i (Markov property); requires only that `value`
    have positive marginal probability.
    """
    if not 0 <= i < j < spec.n:
        raise ValidationError(f"need 0 <= i < j < n, got i={i}, j={j}, n={spec.n}")
    if float(marginal(spec, i).probs[value]) <= 0.0:
        raise ValidationError(f"coordinate {i} value {value} has zero marginal probability")
    law = np.zeros(spec.coord_sizes[i])
    law[value] = 1.0
    for c in range(i, j):
        law = law @ spec.kernels[c].rows
    return _expand_block(spec, law, j, cap)


def t_step_pair_tv(spec: ChainSpec, i: int, t: int) -> float:
    """Worst-case TV distance between t-step laws from two states at position i (lag t, 0 the identity)."""
    if not 0 <= i < spec.n:
        raise ValidationError(f"position {i} out of range for chain of length {spec.n}")
    if t < 0 or i + t >= spec.n:
        raise ValidationError(f"step count {t} from position {i} leaves the horizon (n = {spec.n})")
    if t == 0:
        return float(dobrushin_coefficients(np.eye(spec.coord_sizes[i])))
    return float(next(itertools.islice(t_step_coefficients(spec), t - 1, None))[i])


# ---------------------------------------------------------------------------
# deterministic sampling


class TrajectoryBuffers:
    """What trajectories_from_uniforms needs besides u, built once per stream:
    the chain's CDF breakpoints and two arrays of n entries per row for a
    block of up to `rows` trajectories: the transposed uniforms, which the
    finished trajectories then overwrite, and the coordinate-major states.
    Every block sampled into them reuses the same memory, so a stream touches
    fresh pages once, not once per block."""

    def __init__(self, spec: ChainSpec, rows: int):
        self.rows = rows
        self.init_cdf = np.cumsum(spec.initial.probs)[:-1].tolist()
        # breakpoint k of kernel c, one entry per previous state: column k of its CDF
        self.cdf_cols = [np.cumsum(k.rows, axis=1).T[:-1].copy() for k in spec.kernels]
        self.ut = np.empty(rows * spec.n)
        self.states = np.empty(rows * spec.n, dtype=np.int64)
        self.breakpoint = np.empty(rows)
        self.hit = np.empty(rows, dtype=bool)


def trajectories_from_uniforms(spec: ChainSpec, u: np.ndarray,
                               buffers: TrajectoryBuffers | None = None) -> np.ndarray:
    """Drive one trajectory per row of u by inverse-CDF, one uniform per coordinate.

    The next state is #{k < S - 1 : cdf[prev, k] <= u}: a cumulative sum of
    nonnegative entries is nondecreasing, so counting the first S - 1
    breakpoints is the full count clamped to the last state. The work runs
    coordinate-major on an (n, m) state array, one comparison per breakpoint;
    the result is C-ordered (m, n), one trajectory per row. Callers bound
    memory by passing u in blocks of rows. Sharing the same u across
    different chains couples them by common random numbers.

    With buffers (a TrajectoryBuffers of spec with at least m rows), the
    result is a view of them, valid until the next call with the same
    buffers; without, it is a new array. Both give the same states.
    """
    if u.ndim != 2 or u.shape[1] != spec.n:
        raise ValidationError(f"uniform matrix must have {spec.n} columns, got shape {u.shape}")
    m, n = u.shape
    if buffers is None:
        buffers = TrajectoryBuffers(spec, m)
    elif m > buffers.rows:
        raise ValueError(f"a block of {m} rows exceeds its buffers' {buffers.rows}")
    ut = buffers.ut[:n * m].reshape(n, m)
    np.copyto(ut, u.T)
    states = buffers.states[:n * m].reshape(n, m)
    states.fill(0)
    breakpoint, hit = buffers.breakpoint[:m], buffers.hit[:m]
    for cut in buffers.init_cdf:
        states[0] += np.less_equal(cut, ut[0], out=hit)
    for c, cols in enumerate(buffers.cdf_cols):
        for col in cols:  # every index is a state of coordinate c, so in range
            col.take(states[c], out=breakpoint, mode="clip")
            states[c + 1] += np.less_equal(breakpoint, ut[c + 1], out=hit)
    # every row of ut has been read: the trajectories overwrite the spent uniforms
    out = buffers.ut.view(np.int64)[:n * m].reshape(m, n)
    np.copyto(out, states.T)
    return out


# ---------------------------------------------------------------------------
# JSON interface


def chain_from_dict(doc: dict) -> ChainSpec:
    """Build a validated ChainSpec from its JSON document form.

    Either {"coord_sizes": [...], "initial": [...], "kernels": [[[...]], ...]}
    or the homogeneous shorthand {"kernel": [[...]], "n": N, "initial": [...]}
    (initial optional, uniform by default).
    """
    try:
        if "kernel" in doc:
            if "n" not in doc:
                raise ValidationError('homogeneous chain shorthand requires "n"')
            return homogeneous_chain(doc["kernel"], json_int(doc["n"], "n"), initial=doc.get("initial"))
        sizes = tuple(json_int(s, "coord_sizes entry") for s in doc["coord_sizes"])
        initial = Distribution(np.asarray(doc["initial"], dtype=float))
        kernels = tuple(Kernel(np.asarray(k, dtype=float)) for k in doc["kernels"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed chain document: {exc}") from exc
    return validate_chain(ChainSpec(sizes, initial, kernels))

