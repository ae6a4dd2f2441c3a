"""Independent brute-force oracles for the test suite.

Deliberately different computation paths from the library: joint laws are
built from per-trajectory probability products (not sequential kernel
expansion), conditionals by masking the joint table, operator norms by dense
eigensolvers, covers by exhaustive subset search.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from chainconc import (
    ChainSpec,
    Kernel,
    TabularFunction,
    ValidationError,
    conditional_expectation_tables,
    dobrushin_coefficient,
    local_oscillation_vector,
    validate_chain,
)
from chainconc.chain import t_step_products, trajectories_from_uniforms
from chainconc.gamma import ContractiveGamma, ErgodicGamma
from chainconc.rng import uniform_matrix


def all_trajectories(sizes):
    return list(itertools.product(*(range(s) for s in sizes)))


def joint_law(spec):
    """dict trajectory -> probability, via the product formula."""
    law = {}
    for traj in all_trajectories(spec.coord_sizes):
        p = spec.initial.probs[traj[0]]
        for c in range(spec.n - 1):
            p *= spec.kernels[c].rows[traj[c], traj[c + 1]]
        law[traj] = float(p)
    return law


def coordinate_grid(sizes) -> list[np.ndarray]:
    """Per-coordinate flat index arrays: entry c gives coordinate c of each row-major index."""
    idx = np.arange(math.prod(sizes))
    strides = np.cumprod((1,) + tuple(sizes[:0:-1]))[::-1]
    return [(idx // strides[c]) % sizes[c] for c in range(len(sizes))]


def forward_law_row_gather(spec, law, start, stop) -> np.ndarray:
    """Joint law of (X_start, ..., X_{stop-1}), gathering each flat entry's kernel row."""
    for c in range(start, stop - 1):
        last = np.arange(law.size) % spec.coord_sizes[c]
        law = (law[:, None] * spec.kernels[c].rows[last, :]).ravel()
    return law


def contractive_gamma_entries_masked(thetas) -> np.ndarray:
    """Contractive Gamma by one batched cumulative product: each row right of the
    diagonal is thetas with its leading entries set to 1 through a strict
    lower-triangle mask, then multiplied out, then masked back to 0."""
    th = np.asarray(thetas, dtype=float)
    m = np.zeros((th.size + 1, th.size + 1))
    upper, below = m[:-1, 1:], np.tri(th.size, k=-1, dtype=bool)
    upper[:] = th
    upper[below] = 1.0
    np.cumprod(upper, axis=1, out=upper)
    upper[below] = 0.0
    m.flat[::th.size + 2] = 1.0
    return m


def contractive_gamma_entries(thetas) -> np.ndarray:
    """Contractive Gamma as gamma_contractive built it densely: the block right
    of the diagonal is thetas in every row, its strict lower triangle set to 1
    row by row, multiplied out in one cumulative product along the rows, and
    set back to 0."""
    th = np.asarray(thetas, dtype=float)
    m = np.zeros((th.size + 1, th.size + 1))
    upper = m[:-1, 1:]
    upper[:] = th
    for i in range(1, th.size):
        upper[i, :i] = 1.0
    np.cumprod(upper, axis=1, out=upper)
    for i in range(1, th.size):
        upper[i, :i] = 0.0
    m.flat[::th.size + 2] = 1.0
    return m


def ergodic_gamma_entries_windows(n_blocks, eps) -> np.ndarray:
    """Ergodic Gamma as gamma_ergodic built it densely: the reversed sliding
    windows of (0, ..., 0, 1 | 1, eps, eps^2, ...), copied."""
    diagonals = [0.0] * (n_blocks - 1) + [1.0] + [eps ** k for k in range(n_blocks - 1)]
    windows = np.lib.stride_tricks.sliding_window_view(np.array(diagonals), n_blocks)
    return windows[::-1].copy()


def exact_gamma(g) -> list[list[Fraction]]:
    """Gamma in exact rationals: the products of a contractive Gamma's thetas,
    the powers of an ergodic Gamma's eps, any other Gamma's stored entries."""
    n = g.n
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(1)
        for j in range(i + 1, n):
            if isinstance(g, ContractiveGamma):
                m[i][j] = m[i][j - 1] * Fraction(g.thetas[j - 1])
            elif isinstance(g, ErgodicGamma):
                m[i][j] = Fraction(g.eps) ** (j - i - 1)
            else:
                m[i][j] = Fraction(g.entries[i, j])
    return m


def exact_matvec(m, x) -> list[Fraction]:
    """m x in exact rationals."""
    x = [Fraction(v) for v in x]
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]


def exact_rmatvec(m, z) -> list[Fraction]:
    """m^T z in exact rationals."""
    return exact_matvec([list(col) for col in zip(*m)], z)


def exact_collatz_wielandt(m, x) -> Fraction:
    """max_i (m^T m x)_i / x_i in exact rationals: an upper bound on ||m||^2 for x > 0."""
    sx = exact_rmatvec(m, exact_matvec(m, x))
    return max(s / Fraction(v) for s, v in zip(sx, x))


def dobrushin_coefficients_all_pairs(stack) -> np.ndarray:
    """Max TV distance over all ordered row pairs, the diagonal included, of each
    matrix in a (..., rows, states) stack: one full broadcast difference."""
    diffs = stack[..., :, None, :] - stack[..., None, :, :]
    sums = np.add.reduce(np.abs(diffs, out=diffs), axis=-1)
    return np.minimum(0.5 * np.maximum.reduce(sums, axis=(-2, -1)), 1.0)


def ergodic_gamma_entries(n_blocks, eps) -> np.ndarray:
    """Block Gamma by a double loop: 1 on the diagonal, eps ** (j - i - 1) right of it."""
    m = np.eye(n_blocks)
    for i in range(n_blocks):
        for j in range(i + 1, n_blocks):
            m[i, j] = eps ** (j - i - 1)
    return m


def expectation(spec, f) -> float:
    """E[f] with f a TabularFunction, via joint_law."""
    table = f.table(spec)
    return sum(p * float(table[traj]) for traj, p in joint_law(spec).items())


def conditional_expectation(spec, f, prefix) -> float:
    table = f.table(spec)
    num = den = 0.0
    for traj, p in joint_law(spec).items():
        if traj[: len(prefix)] == tuple(prefix):
            num += p * float(table[traj])
            den += p
    assert den > 0, "conditioning on a null prefix"
    return num / den


def conditional_block_law(spec, prefix, j) -> np.ndarray:
    """Law of (X_j, ..., X_{n-1}) given the prefix, flattened row-major."""
    block_sizes = spec.coord_sizes[j:]
    out = np.zeros(math.prod(block_sizes))
    strides = np.cumprod((1,) + block_sizes[:0:-1])[::-1]
    den = 0.0
    for traj, p in joint_law(spec).items():
        if traj[: len(prefix)] == tuple(prefix):
            idx = int(sum(traj[j + k] * strides[k] for k in range(len(block_sizes))))
            out[idx] += p
            den += p
    assert den > 0
    return out / den


def bracket_oscillation_bound(spec, f, i) -> float:
    """Local oscillation at coordinate i of E[f | X_0..X_i] on the whole joint space.

    The prefix table is broadcast to every trajectory (constant in the later
    coordinates), and coordinate i is scanned with every other coordinate held
    fixed.
    """
    table = conditional_expectation_tables(f, spec)[i + 1]
    full = np.broadcast_to(table.reshape(table.shape + (1,) * (spec.n - i - 1)), spec.coord_sizes)
    return float(local_oscillation_vector(TabularFunction(full.ravel()), spec)[i])


def local_oscillation_moveaxis(f, spec) -> np.ndarray:
    """Local oscillations by moving each coordinate's axis last and scanning its rows.

    One (joint / size, size) copy of the table per coordinate.
    """
    table = f.values.reshape(spec.coord_sizes)
    osc = np.empty(spec.n)
    for c in range(spec.n):
        view = np.moveaxis(table, c, -1).reshape(-1, spec.coord_sizes[c])
        osc[c] = float((view.max(axis=1) - view.min(axis=1)).max()) if view.size else 0.0
    return osc


def block_law_given_value(spec, i, value, j) -> np.ndarray:
    """Law of (X_j, ...) given X_i = value, by masking the joint law."""
    block_sizes = spec.coord_sizes[j:]
    out = np.zeros(math.prod(block_sizes))
    strides = np.cumprod((1,) + block_sizes[:0:-1])[::-1]
    den = 0.0
    for traj, p in joint_law(spec).items():
        if traj[i] == value:
            idx = int(sum(traj[j + k] * strides[k] for k in range(len(block_sizes))))
            out[idx] += p
            den += p
    assert den > 0
    return out / den


def t_step_tv(spec, i, t) -> float:
    """Worst pair TV of K_i ... K_{i+t-1}, built from the identity, by a loop over row pairs.

    TV is at most 1, so a half-L1 distance that rounding puts above 1 is clipped.
    """
    prod = np.eye(spec.coord_sizes[i])
    for c in range(i, i + t):
        prod = prod @ spec.kernels[c].rows
    worst = 0.0
    for a in range(prod.shape[0]):
        for b in range(a + 1, prod.shape[0]):
            worst = max(worst, 0.5 * float(np.abs(prod[a] - prod[b]).sum()))
    return min(1.0, worst)


def wasserstein_matrix_rows(spec) -> np.ndarray:
    """Exact coupling Gamma, row by row: one running product per i, restricted from the start.

    Entry (i, j) is the Dobrushin coefficient of the rows of K_i ... K_{j-1}
    in the support of X_i, each product started from the support rows of the
    identity and extended one kernel at a time.
    """
    n = spec.n
    m = np.eye(n)
    law = spec.initial.probs
    for i in range(n - 1):
        support = np.flatnonzero(law > 0.0)
        if support.size > 1:
            prod = np.eye(spec.coord_sizes[i])[support]
            for j in range(i + 1, n):
                prod = prod @ spec.kernels[j - 1].rows
                m[i, j] = dobrushin_coefficient(Kernel(prod))
        law = law @ spec.kernels[i].rows
    return m


def wasserstein_matrix_per_entry(spec) -> np.ndarray:
    """Exact coupling Gamma, one dobrushin_coefficient call per entry.

    Entry (i, i + t) is the coefficient of the support rows of X_i in the
    lag-t product at i of t_step_products; a start whose support is one
    state keeps its 0.
    """
    n = spec.n
    m = np.eye(n)
    supports, law = [], spec.initial.probs
    for k in spec.kernels:
        supports.append(np.flatnonzero(law > 0.0))
        law = law @ k.rows
    for t, stacks in enumerate(t_step_products(spec), start=1):
        products = [p for stack in stacks for p in stack]
        for i, support in enumerate(supports[:n - t]):
            if support.size > 1:
                prod = products[i]
                rows = prod if support.size == prod.shape[0] else prod[support]
                m[i, i + t] = dobrushin_coefficient(Kernel(rows))
    return m


def inverse_cdf_trajectories(spec, u) -> np.ndarray:
    """Row-major inverse-CDF sampling, one trajectory per row of u.

    Each step gathers the current state's whole CDF row, counts the
    breakpoints at or below the uniform and clamps the count to the last
    state, where the library counts one CDF column at a time unclamped.
    """
    out = np.empty((u.shape[0], spec.n), dtype=np.int64)
    init_cdf = np.cumsum(spec.initial.probs)
    out[:, 0] = np.minimum((init_cdf <= u[:, 0][:, None]).sum(axis=1), len(init_cdf) - 1)
    for c in range(spec.n - 1):
        cdf = np.cumsum(spec.kernels[c].rows, axis=1)
        nxt = (cdf[out[:, c]] <= u[:, c + 1][:, None]).sum(axis=1)
        out[:, c + 1] = np.minimum(nxt, cdf.shape[1] - 1)
    return out


def validate_kernels_one_by_one(spec):
    """The kernels of a chain validated one at a time, in position order: each
    kernel's entries (Kernel.from_array), then its shape against coord_sizes."""
    kernels = []
    for i, k in enumerate(spec.kernels):
        validated = Kernel.from_array(k.rows, where=f"kernel {i}")
        if validated.shape != (spec.coord_sizes[i], spec.coord_sizes[i + 1]):
            raise ValidationError(f"kernel {i} has shape {validated.shape}, expected "
                                  f"({spec.coord_sizes[i]}, {spec.coord_sizes[i + 1]})")
        kernels.append(validated)
    return kernels


def t_step_products_per_position(spec):
    """For t = 1, ..., n-1, the list of K_i ... K_{i+t-1} for starts i < n - t, each
    start's product extended on its own by one 2-d matmul per lag."""
    products = [k.rows for k in spec.kernels]
    for t in range(1, spec.n):
        if t > 1:
            products = [p @ spec.kernels[i + t - 1].rows
                        for i, p in enumerate(products[:spec.n - t])]
        yield products


def thetas_per_kernel(spec) -> list[float]:
    """Contraction coefficients, one dobrushin_coefficient call per kernel."""
    return [dobrushin_coefficient(k) for k in spec.kernels]


def mixing_time_per_position(spec, eps):
    """Smallest t with t_step_tv(spec, i, t) <= eps at every position i, else None.

    Every (i, t) product is rebuilt from the identity, one position at a time.
    """
    for t in range(1, spec.n):
        worst = max(t_step_tv(spec, i, t) for i in range(spec.n - t))
        if worst <= eps:
            return t
    return None


def induced_chain_per_stage(mdp, pi):
    """The induced chain with kernels as validate_chain builds them: one raw
    kernel per stage, each normalised on its own. The initial law is the MDP's,
    normalised once by its build, not a second time."""
    states, acts = np.arange(mdp.n_states), np.asarray(pi.actions)
    kernels = tuple(Kernel(mdp.transitions[states, acts, :])
                    for _ in range(mdp.horizon - 1))
    chain = validate_chain(ChainSpec((mdp.n_states,) * mdp.horizon, mdp.initial, kernels))
    return ChainSpec(chain.coord_sizes, mdp.initial, chain.kernels)


def exact_value_per_stage(mdp, pi) -> float:
    """E[V_pi] by backward induction, every stage's rows gathered afresh."""
    v = np.zeros(mdp.n_states)
    acts = np.asarray(pi.actions)
    for stage in range(mdp.horizon - 1, -1, -1):
        idx = np.arange(mdp.n_states)
        stage_reward = mdp.rewards[idx, acts]
        if stage == mdp.horizon - 1:
            v = stage_reward.astype(float)
        else:
            v = stage_reward + mdp.transitions[idx, acts, :] @ v
    return float(mdp.initial.probs @ v)


def value_function(mdp, pi, traj) -> float:
    """Sum of stage rewards along a trajectory under the policy.

    Weighted-Hamming Lipschitz with the stage caps as weights: changing one
    state changes at most that stage's reward.
    """
    states = [int(s) for s in (traj.states if hasattr(traj, "states") else traj)]
    if len(states) != mdp.horizon:
        raise ValidationError(f"trajectory length {len(states)} != horizon {mdp.horizon}")
    return float(sum(mdp.rewards[s, pi.actions[s]] for s in states))


def sup_value_per_policy(mdp, pc, replicates, seed):
    """(estimate, standard error) of E sup_pi (V_pi - E V_pi) by the per-policy loop.

    Each policy's induced chain is sampled on its own from the shared uniform
    stream, its rewards summed in stage order and centred at its exact value.
    """
    u = uniform_matrix(seed, replicates, mdp.horizon)
    sup = np.full(replicates, -np.inf)
    for pi in pc.policies:
        states = trajectories_from_uniforms(induced_chain_per_stage(mdp, pi), u)
        reward = mdp.rewards[np.arange(mdp.n_states), list(pi.actions)]
        v = np.zeros(replicates)
        for stage in range(mdp.horizon):
            v += reward[states[:, stage]]
        sup = np.maximum(sup, v - exact_value_per_stage(mdp, pi))
    return float(np.mean(sup)), float(np.std(sup, ddof=1) / math.sqrt(replicates))


def pairwise_distances(pc, distance) -> np.ndarray:
    """Distance matrix of a policy class by a double loop over pairs."""
    m = len(pc)
    d = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d[i, j] = d[j, i] = distance(pc.policies[i], pc.policies[j])
    return d


def hamming(a, b) -> int:
    """Number of states at which two stationary action tables disagree."""
    return sum(x != y for x, y in zip(a.actions, b.actions))


def greedy_net_radii_dense(dist: np.ndarray) -> list[float]:
    """Farthest-point traversal from point 0 over a dense (P, P) distance matrix.

    Insertion radii, radii[0] = inf for the seed, first argmax on ties; it
    stops once every remaining point is at distance zero. The reference for
    the on-demand rows of rl.greedy_net_radii.
    """
    m = dist.shape[0]
    centers = [0]
    radii = [math.inf]
    nearest = dist[0].copy()
    while True:
        far = int(np.argmax(nearest))
        r = float(nearest[far])
        if r <= 0.0:
            break
        centers.append(far)
        radii.append(r)
        nearest = np.minimum(nearest, dist[far])
        if len(centers) == m:
            break
    return radii


def spectral_norm(matrix) -> float:
    return float(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)[0])


def greedy_cover_count(dist: np.ndarray, eps: float) -> int:
    """Re-derive the farthest-point greedy cover size by literal rescan of distances."""
    m = dist.shape[0]
    centers = [0]
    while True:
        best_point, best_dist = None, eps
        for p in range(m):
            d = min(dist[p, c] for c in centers)
            if d > best_dist:
                best_point, best_dist = p, d
        if best_point is None:
            return len(centers)
        centers.append(best_point)


def min_cover_size(dist: np.ndarray, eps: float) -> int:
    """Exact minimal number of eps-balls (centered at points) covering all points."""
    m = dist.shape[0]
    covers = [frozenset(np.flatnonzero(dist[i] <= eps).tolist()) for i in range(m)]
    everything = frozenset(range(m))
    for k in range(1, m + 1):
        for centers in itertools.combinations(range(m), k):
            union = frozenset().union(*(covers[c] for c in centers))
            if union == everything:
                return k
    return m


def binom_pmf(n, k, p=0.5) -> float:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def binom_two_sided_tail(n, center, t, p=0.5) -> float:
    """P(|W - center| >= t) for W ~ Binomial(n, p)."""
    return sum(binom_pmf(n, k, p) for k in range(n + 1) if abs(k - center) >= t)
