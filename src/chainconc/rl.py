"""Tabular MDPs, policy classes, and expected-supremum bounds on value functions.

A policy is stationary and deterministic: one action per state, the same at
every stage. It turns an MDP into a homogeneous finite-horizon Markov chain
over states (one kernel, repeated), so every chain certificate applies to the
trajectory sum of stage rewards (which is weighted-Hamming Lipschitz with the
stage reward caps as weights).
The bounds on E sup over a policy class are the subgaussian maximal
inequality, its covering-number refinement for Lipschitz processes, and the
entropy-integral (chaining) bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chain import PAIR_BLOCK_ELEMENTS, ChainSpec, Distribution, Kernel, dobrushin_coefficients
from .chain import _stochastic_stack
from .errors import DEFAULT_POLICY_CAP, EnumerationCapError, ValidationError, json_int

# largest pair-difference stack, policies x S^3 entries, of one class_table
# block, so that no temporary grows with the class size
TABLE_BLOCK_ELEMENTS = PAIR_BLOCK_ELEMENTS


@dataclass(frozen=True)
class MdpSpec:
    """Finite MDP: S states, A actions, horizon H, transition tensor, stage rewards.

    rewards[s, a] must lie in [0, min(stage_caps)]; stage_caps (default all 1)
    are the per-stage reward bounds that become Lipschitz weights.

    The spec is a plain validated value and holds no cache: build normalises
    the kernel rows and the initial law once, and every per-policy
    quantity comes from the batched class_values and class_table. Each reader
    recomputes them: the mixing-time metric makes its own table pass, and the
    CRN supremum its own value pass.
    """

    n_states: int
    n_actions: int
    horizon: int
    transitions: np.ndarray  # (S, A, S), as given
    rewards: np.ndarray  # (S, A)
    initial: Distribution
    stage_caps: np.ndarray  # (H,)
    kernel_rows: np.ndarray  # (S, A, S), each row normalised as Kernel.from_array does

    @classmethod
    def build(cls, n_states: int, n_actions: int, horizon: int, transitions, rewards,
              initial, stage_caps=None) -> "MdpSpec":
        if n_states < 1 or n_actions < 1 or horizon < 1:
            raise ValidationError("S, A and H must all be positive")
        trans = np.array(transitions, dtype=float)  # copies: the caller keeps its arrays
        if trans.shape != (n_states, n_actions, n_states):
            raise ValidationError(
                f"transition tensor has shape {trans.shape}, expected {(n_states, n_actions, n_states)}"
            )
        kernel_rows = _stochastic_stack(trans, lambda s: f"transitions[{s}]")
        rew = np.array(rewards, dtype=float)
        if rew.shape != (n_states, n_actions):
            raise ValidationError(f"rewards have shape {rew.shape}, expected {(n_states, n_actions)}")
        caps = np.ones(horizon) if stage_caps is None else np.array(stage_caps, dtype=float)
        if caps.shape != (horizon,):
            raise ValidationError(f"stage_caps must have length {horizon}")
        if not (np.isfinite(rew).all() and np.isfinite(caps).all()):
            raise ValidationError("rewards and stage_caps must be finite")
        if np.any(caps < 0):
            raise ValidationError("stage_caps must be nonnegative")
        if np.any(rew < 0) or np.any(rew > caps.min()):
            raise ValidationError(
                f"rewards must lie in [0, {caps.min()}] to respect every stage cap"
            )
        init = Distribution.from_array(initial, where="mdp initial distribution")
        if len(init) != n_states:
            raise ValidationError(f"initial distribution has length {len(init)}, expected {n_states}")
        return cls(n_states, n_actions, horizon, trans, rew, init, caps, kernel_rows)

    def _blocks(self, policies):
        """(offset, (p, S) action array) per block of policies whose pair
        differences, p x S^3 entries, fit TABLE_BLOCK_ELEMENTS."""
        acts = action_tables(self, policies)
        block = max(1, TABLE_BLOCK_ELEMENTS // self.n_states**3)
        for lo in range(0, len(acts), block):
            yield lo, acts[lo:lo + block]

    def class_values(self, policies) -> np.ndarray:
        """(P,) exact values E[V_pi] of the policies, recomputed on each call.

        One backward induction per block over the stack of raw transition
        rows, rows @ v[:, :, None] per stage, then initial @ v per policy (one
        block-wide mat-vec would round differently), so each value is bitwise
        an induction over the policy's own rows.
        """
        values = np.empty(len(policies))
        states = np.arange(self.n_states)
        for lo, acts in self._blocks(policies):
            rows, rewards = self.transitions[states, acts], self.rewards[states, acts]
            v = rewards
            for _ in range(self.horizon - 1):
                v = rewards + (rows @ v[:, :, None])[:, :, 0]
            values[lo:lo + len(v)] = [self.initial.probs @ row for row in v]
        return values

    def class_table(self, policies, eps: float) -> tuple[np.ndarray, list[int | None]]:
        """Dobrushin coefficient theta and mixing time tau of every policy, recomputed per call.

        Works per block on the stack of induced kernels: theta is one batched
        Dobrushin coefficient, and tau the first lag whose power K^t has a
        coefficient at most eps (None if no lag below the horizon does). Each
        lag extends the powers of the policies not yet mixed by one stacked
        matmul, and the loop stops once all have mixed. Every entry is bitwise
        dobrushin_coefficient and mixing_time of the policy's induced chain.
        """
        if not 0.0 < eps < 1.0:
            raise ValidationError(f"eps = {eps} must lie in (0, 1)")
        thetas = np.empty(len(policies))
        taus = np.zeros(len(policies), dtype=int)  # 0: not mixed within the horizon
        states = np.arange(self.n_states)
        for lo, acts in self._blocks(policies):
            kernels = self.kernel_rows[states, acts]
            coeffs = dobrushin_coefficients(kernels)
            thetas[lo:lo + len(kernels)] = coeffs
            left, power = np.arange(lo, lo + len(kernels)), kernels
            for t in range(1, self.horizon):
                if t > 1:
                    power = power @ kernels
                    coeffs = dobrushin_coefficients(power)
                mixed = coeffs <= eps
                taus[left[mixed]] = t
                left, power, kernels = left[~mixed], power[~mixed], kernels[~mixed]
                if not left.size:
                    break
        return thetas, [int(t) or None for t in taus]


@dataclass(frozen=True)
class Policy:
    """Stationary deterministic policy: actions[s] is taken in state s at every stage."""

    actions: tuple[int, ...]

    def key(self) -> tuple:
        return self.actions


class HammingMetric:
    """d(pi, pi') = #{s : pi(s) != pi'(s)} on action tables."""

    name = "hamming"

    def distance_rows(self, policies):
        """row(k): distances from policy k, one compare-and-add per state of an (S, P) table."""
        if len({len(pi.actions) for pi in policies}) > 1:
            raise ValidationError("policies act on different state spaces")
        table = np.ascontiguousarray(np.array([pi.actions for pi in policies]).T)

        def row(k: int) -> np.ndarray:
            counts = np.zeros(len(policies))
            for actions in table:
                counts += actions != actions[k]
            return counts
        return row


class MixingTimeMetric:
    """d(pi, pi') = |tau_pi(eps) - tau_pi'(eps)| on induced chains.

    Policies whose induced chain never reaches level eps within the horizon
    get tau = H, one past the largest attainable mixing time, so the metric
    stays finite.
    """

    name = "mixing"

    def __init__(self, mdp: MdpSpec, eps: float):
        self.mdp = mdp
        self.eps = eps

    def distance_rows(self, policies):
        """row(k): distances from policy k to every policy, from the class table's mixing times."""
        taus = np.array([self.mdp.horizon if t is None else t
                         for t in self.mdp.class_table(policies, self.eps)[1]])
        return lambda k: np.abs(taus - taus[k])


@dataclass(frozen=True)
class PolicyClass:
    """Finite, duplicate-free collection of policies with a metric on it."""

    policies: tuple[Policy, ...]
    metric: object  # .name, and .distance_rows(policies) -> (k -> distances from policy k)

    def __post_init__(self):
        if not self.policies:
            raise ValidationError("policy class must be nonempty")
        keys = [p.key() for p in self.policies]
        if len(set(keys)) != len(keys):
            raise ValidationError("policy class contains duplicate policies")

    def __len__(self) -> int:
        return len(self.policies)


# ---------------------------------------------------------------------------
# policy-induced chains and exact values


def induced_chain(mdp: MdpSpec, pi: Policy) -> ChainSpec:
    """The state chain under a policy: kernel rows P(. | s, pi(s)), one kernel
    repeated over the horizon.

    Rows come from the MDP's normalised tensor (kernel_rows) and the initial
    law is the MDP's, both normalised once by its build.
    """
    acts = action_tables(mdp, (pi,))[0]
    kernel = Kernel(mdp.kernel_rows[np.arange(mdp.n_states), acts])
    return ChainSpec((mdp.n_states,) * mdp.horizon, mdp.initial,
                     (kernel,) * (mdp.horizon - 1))


def action_tables(mdp: MdpSpec, policies) -> np.ndarray:
    """(P, S) action array of the policies; each must give one of the MDP's
    actions, an integer, in each of its states."""
    try:
        acts = np.array([pi.actions for pi in policies])
    except ValueError as exc:
        raise ValidationError(f"policy action tables differ in length: {exc}") from exc
    if (acts.dtype.kind not in "iu" or acts.shape[1:] != (mdp.n_states,)
            or np.any(acts < 0) or np.any(acts >= mdp.n_actions)):
        raise ValidationError("policy actions must be integer actions of the MDP, one per state")
    return acts.astype(np.intp, copy=False)


def exact_value(mdp: MdpSpec, pi: Policy) -> float:
    """E[V_pi] by backward induction over stages: the class values of (pi,)."""
    return float(mdp.class_values((pi,))[0])


def enumerate_policies(n_states: int, n_actions: int, metric=None,
                       cap: int = DEFAULT_POLICY_CAP) -> PolicyClass:
    """All A^S stationary deterministic policies in lexicographic order."""
    count = n_actions**n_states
    if count > cap:
        raise EnumerationCapError(f"{count} policies exceed the policy cap {cap}")
    policies = tuple(
        Policy(actions) for actions in itertools.product(range(n_actions), repeat=n_states)
    )
    return PolicyClass(policies, metric or HammingMetric())


# ---------------------------------------------------------------------------
# expected-supremum bounds


def maximal_bound(sigma2: float, class_size: int) -> float:
    """Subgaussian maximal inequality: sqrt(2 sigma2 log class_size)."""
    if class_size < 1:
        raise ValidationError("class_size must be >= 1")
    _finite_nonnegative("sigma2", sigma2)
    return math.sqrt(2.0 * sigma2 * math.log(class_size))


def greedy_net_radii(pc: PolicyClass, scale: float = 1.0) -> list[float]:
    """Insertion radii of the farthest-point traversal from the first policy.

    radii[k] is the distance at which the (k+1)-th center was inserted
    (radii[0] = inf for the seed); they are nonincreasing after the seed.
    The traversal stops once every remaining policy is at distance zero, so
    the greedy covering number at radius eps is #{k : radii[k] > eps}.
    Distances are scale * the metric's count, read one row per inserted
    center, so memory stays linear in the class size.
    """
    if not (math.isfinite(scale) and scale > 0):
        raise ValidationError(f"scale = {scale} must be finite and positive")
    row = pc.metric.distance_rows(pc.policies)
    radii = [math.inf]
    nearest = scale * row(0)
    while len(radii) < len(pc):
        far = int(np.argmax(nearest))  # the first of ties: another choice can move the radii
        r = float(nearest[far])
        if r <= 0.0:
            break
        radii.append(r)
        np.minimum(nearest, scale * row(far), out=nearest)
    return radii


def _finite_nonnegative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise ValidationError(f"{name} = {value} must be finite and nonnegative")


def _net_size(radii: list[float], eps: float) -> int:
    _finite_nonnegative("eps", eps)
    return sum(1 for r in radii if r > eps)


def covering_number(pc: PolicyClass, eps: float, scale: float = 1.0) -> int:
    """Size of the deterministic greedy eps-net: an upper bound on the minimal cover."""
    return _net_size(greedy_net_radii(pc, scale=scale), eps)


def lipschitz_process_bound(sigma2: float, expected_c: float, pc: PolicyClass,
                            eps_grid) -> float:
    """Covering refinement: min over eps of eps E[C] + sqrt(2 sigma2 log N(eps)).

    One traversal gives the greedy net size at every eps of the grid.
    """
    _finite_nonnegative("sigma2", sigma2)
    _finite_nonnegative("expected_c", expected_c)
    grid = [float(e) for e in eps_grid]
    if not grid:
        raise ValidationError("eps grid must be nonempty")
    radii = greedy_net_radii(pc)
    best = math.inf
    for eps in grid:
        n_eps = _net_size(radii, eps)
        best = min(best, eps * expected_c + math.sqrt(2.0 * sigma2 * math.log(n_eps)))
    return best


def dudley_bound(pc: PolicyClass, scale: float = 1.0) -> float:
    """Entropy-integral bound 12 * integral of sqrt(log N(eps)) d eps, exactly.

    The covering function of a finite class is a staircase whose breakpoints
    are the greedy insertion radii, so the integral is a finite sum of
    segment widths times sqrt(log k).
    """
    radii = greedy_net_radii(pc, scale=scale)
    total = 0.0
    for k in range(1, len(radii)):
        upper = radii[k]
        lower = radii[k + 1] if k + 1 < len(radii) else 0.0
        total += (upper - lower) * math.sqrt(math.log(k + 1))
    return 12.0 * total


def finite_state_bound(horizon: int, tau_mix: float, n_states: int, n_actions: int,
                       variant: str) -> float:
    """Closed-form finite state-action bounds on E sup of value functions.

    "max_mix" is sqrt(H tau log(SA)); "union" is sqrt(H S A tau log(SA)),
    realizing the suppressed log factor as the same log(SA).
    """
    if variant not in ("max_mix", "union"):
        raise ValidationError(f"unknown variant {variant!r}; expected max_mix or union")
    if horizon < 1 or tau_mix <= 0 or n_states < 1 or n_actions < 1:
        raise ValidationError("horizon, tau_mix, n_states and n_actions must be positive")
    log_sa = math.log(n_states * n_actions)
    if variant == "max_mix":
        return math.sqrt(horizon * tau_mix * log_sa)
    return math.sqrt(horizon * n_states * n_actions * tau_mix * log_sa)


# ---------------------------------------------------------------------------
# JSON interface


def mdp_from_dict(doc: dict) -> MdpSpec:
    try:
        return MdpSpec.build(
            json_int(doc["S"], "S"), json_int(doc["A"], "A"), json_int(doc["H"], "H"),
            doc["transitions"], doc["rewards"], doc["initial"],
            stage_caps=doc.get("stage_caps"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed MDP document: {exc}") from exc


def policy_to_dict(pi: Policy) -> dict:
    return {"actions": list(pi.actions)}
