import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from oracles import value_function
from chainconc import (
    EnumerationCapError,
    HammingMetric,
    MdpSpec,
    MixingTimeMetric,
    Policy,
    PolicyClass,
    ValidationError,
    covering_number,
    dudley_bound,
    enumerate_policies,
    exact_value,
    finite_state_bound,
    induced_chain,
    lipschitz_process_bound,
    maximal_bound,
    mdp_from_dict,
    mixing_time,
)
from chainconc import rl
from chainconc.rl import greedy_net_radii


def random_mdp(rng, n_states=3, n_actions=2, horizon=4) -> MdpSpec:
    trans = rng.random((n_states, n_actions, n_states)) + 0.1
    trans /= trans.sum(axis=2, keepdims=True)
    rewards = rng.random((n_states, n_actions))
    initial = rng.random(n_states) + 0.1
    initial /= initial.sum()
    return MdpSpec.build(n_states, n_actions, horizon, trans, rewards, initial)


def cluster_policy_class() -> PolicyClass:
    """Eight 8-state policies: four well-separated bases, each with a 1-flip partner.

    Greedy covering numbers: N(0) = 8, N(1) = 4, N(eps >= 8) = 1.
    """
    bases = [
        (0, 0, 0, 0, 0, 0, 0, 0),
        (1, 1, 1, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1, 1, 1),
    ]
    policies = []
    for b in bases:
        policies.append(Policy(b))
        policies.append(Policy(b[:-1] + (1 - b[-1],)))
    return PolicyClass(tuple(policies), HammingMetric())


# ---------------------------------------------------------------------------
# MDP plumbing


def test_mdp_validation_rejects_bad_transition_rows():
    with pytest.raises(ValidationError, match="transitions"):
        MdpSpec.build(2, 1, 2, [[[0.5, 0.6]], [[1.0, 0.0]]], [[0.5], [0.5]], [0.5, 0.5])
    # one bad row at state 1, action 1: the message names the state's (A, S) block and the row
    for row, problem in [([math.nan, 1.0], "non-finite entry nan at row 1, column 0"),
                         ([0.5, -0.5], "negative entry -0.5 at row 1, column 1"),
                         ([0.5, 0.6], "row 1 sums to 1.1")]:
        trans = np.full((2, 2, 2), 0.5)
        trans[1, 1] = row
        with pytest.raises(ValidationError, match=re.escape(f"transitions[1]: {problem}")):
            MdpSpec.build(2, 2, 2, trans, np.full((2, 2), 0.5), [0.5, 0.5])


def test_mdp_validation_enforces_reward_caps():
    trans = np.full((2, 1, 2), 0.5)
    with pytest.raises(ValidationError, match="rewards"):
        MdpSpec.build(2, 1, 3, trans, [[1.5], [0.5]], [0.5, 0.5])
    MdpSpec.build(2, 1, 3, trans, [[1.5], [0.5]], [0.5, 0.5], stage_caps=[2.0, 2.0, 2.0])


@pytest.mark.parametrize("rewards, caps", [
    ([[float("nan")], [0.5]], None),
    ([[0.5], [0.5]], [1.0, float("inf"), 1.0]),
    ([[0.5], [0.5]], [float("nan"), 1.0, 1.0]),
])
def test_mdp_validation_rejects_non_finite_rewards_and_caps(rewards, caps):
    trans = np.full((2, 1, 2), 0.5)
    with pytest.raises(ValidationError, match="finite"):
        MdpSpec.build(2, 1, 3, trans, rewards, [0.5, 0.5], stage_caps=caps)


def test_single_action_mdp_chain_is_policy_independent(rng):
    mdp = random_mdp(rng, n_actions=1)
    chains = [induced_chain(mdp, Policy((0,) * 3))]
    assert len(chains[0].kernels) == mdp.horizon - 1


def test_deterministic_transitions_give_permutation_kernels():
    trans = np.zeros((2, 2, 2))
    trans[0, 0, 1] = trans[1, 0, 0] = 1.0  # action 0 flips
    trans[0, 1, 0] = trans[1, 1, 1] = 1.0  # action 1 stays
    mdp = MdpSpec.build(2, 2, 3, trans, np.zeros((2, 2)), [1.0, 0.0])
    chain = induced_chain(mdp, Policy((0, 0)))
    assert_allclose(chain.kernels[0].rows, [[0.0, 1.0], [1.0, 0.0]], atol=0)


def test_induced_chain_selects_tensor_slices(rng):
    mdp = random_mdp(rng)
    pi = Policy((1, 0, 1))
    chain = induced_chain(mdp, pi)
    for stage in range(mdp.horizon - 1):
        for s in range(mdp.n_states):
            assert_allclose(chain.kernels[stage].rows[s], mdp.transitions[s, pi.actions[s]],
                            atol=0)


# ---------------------------------------------------------------------------
# values


def test_zero_rewards_give_zero_value(rng):
    mdp = random_mdp(rng)
    zero = MdpSpec.build(3, 2, 4, mdp.transitions, np.zeros((3, 2)), mdp.initial.probs)
    assert value_function(zero, Policy((0, 1, 0)), (0, 1, 2, 1)) == 0.0
    assert exact_value(zero, Policy((0, 1, 0))) == 0.0


def test_constant_reward_gives_horizon():
    trans = np.full((2, 1, 2), 0.5)
    mdp = MdpSpec.build(2, 1, 7, trans, np.ones((2, 1)), [0.5, 0.5])
    pi = Policy((0, 0))
    assert value_function(mdp, pi, (0,) * 7) == 7.0
    assert exact_value(mdp, pi) == pytest.approx(7.0, abs=1e-12)


def test_value_function_matches_resummation(rng):
    mdp = random_mdp(rng)
    pi = Policy((1, 1, 0))
    traj = (2, 0, 1, 2)
    expected = sum(mdp.rewards[s, pi.actions[s]] for s in traj)
    assert value_function(mdp, pi, traj) == pytest.approx(expected, abs=0)


def test_exact_value_single_stage(rng):
    mdp = random_mdp(rng, horizon=1)
    pi = Policy((0, 1, 1))
    expected = float(sum(mdp.initial.probs[s] * mdp.rewards[s, pi.actions[s]] for s in range(3)))
    assert exact_value(mdp, pi) == pytest.approx(expected, abs=1e-15)


def test_exact_value_deterministic_mdp():
    trans = np.zeros((2, 1, 2))
    trans[0, 0, 1] = trans[1, 0, 0] = 1.0
    rewards = np.array([[0.25], [0.75]])
    mdp = MdpSpec.build(2, 1, 4, trans, rewards, [1.0, 0.0])
    # unique path 0 -> 1 -> 0 -> 1
    assert exact_value(mdp, Policy((0, 0))) == pytest.approx(0.25 + 0.75 + 0.25 + 0.75, abs=0)


def test_exact_value_matches_enumeration(rng):
    mdp = random_mdp(rng, horizon=4)
    for pi in [Policy((0, 0, 0)), Policy((1, 0, 1)), Policy((1, 1, 1))]:
        chain = induced_chain(mdp, pi)
        expected = sum(
            p * value_function(mdp, pi, traj) for traj, p in oracles.joint_law(chain).items()
        )
        assert exact_value(mdp, pi) == pytest.approx(expected, abs=1e-12)


def test_exact_value_enumeration_corpus(rng):
    # boundary of the stated envelope: S <= 4, A <= 3, H <= 5
    for s, a, h in [(4, 3, 5), (2, 3, 5), (4, 2, 3), (3, 3, 4)]:
        mdp = random_mdp(rng, n_states=s, n_actions=a, horizon=h)
        for _ in range(3):
            pi = Policy(tuple(int(rng.integers(0, a)) for _ in range(s)))
            chain = induced_chain(mdp, pi)
            expected = sum(
                p * value_function(mdp, pi, traj)
                for traj, p in oracles.joint_law(chain).items()
            )
            assert exact_value(mdp, pi) == pytest.approx(expected, abs=1e-12)


def test_value_function_is_weighted_hamming_lipschitz(rng):
    mdp = random_mdp(rng, horizon=3)
    pi = Policy((1, 0, 1))
    trajs = oracles.all_trajectories((3, 3, 3))
    for x in trajs:
        for y in trajs:
            bound = sum(mdp.stage_caps[i] for i in range(3) if x[i] != y[i])
            assert abs(value_function(mdp, pi, x) - value_function(mdp, pi, y)) <= bound + 1e-12


# ---------------------------------------------------------------------------
# policy enumeration


@pytest.mark.parametrize("s, a, count", [(1, 3, 3), (4, 1, 1), (3, 2, 8)])
def test_enumerate_policies_counts(s, a, count):
    assert len(enumerate_policies(s, a)) == count


def test_enumerate_policies_lexicographic_and_unique():
    pc = enumerate_policies(2, 2)
    assert [p.actions for p in pc.policies] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_policies_cap():
    with pytest.raises(EnumerationCapError):
        enumerate_policies(20, 3, cap=100)


# ---------------------------------------------------------------------------
# maximal inequality and covering machinery


def test_maximal_bound_values():
    assert maximal_bound(5.0, 1) == 0.0
    assert maximal_bound(1.0, 8) == pytest.approx(math.sqrt(2 * math.log(8)), rel=1e-12)
    assert maximal_bound(1.0, 8) == pytest.approx(2.0393, abs=1e-4)
    assert maximal_bound(0.8125, 8) == pytest.approx(1.8382, abs=1e-4)


def test_maximal_bound_monotone():
    grid = [1, 2, 4, 8, 64]
    for s2 in (0.5, 1.0, 2.0):
        vals = [maximal_bound(s2, m) for m in grid]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert maximal_bound(2.0, 2) > maximal_bound(1.0, 2)


def test_covering_number_extremes():
    pc = enumerate_policies(3, 2)
    dist = oracles.pairwise_distances(pc, oracles.hamming)
    diameter = float(dist.max())
    assert covering_number(pc, diameter) == 1
    assert covering_number(pc, 0.0) == len(pc)


def test_covering_number_against_exact_cover():
    pc = enumerate_policies(3, 2)
    dist = oracles.pairwise_distances(pc, oracles.hamming)
    greedy = covering_number(pc, 1.0)
    exact = oracles.min_cover_size(dist, 1.0)
    assert greedy == 2
    assert exact == 2
    assert greedy <= exact  # equality at this scale; >= holds in general
    for eps in (0.0, 0.5, 1.0, 2.0, 3.0):
        assert covering_number(pc, eps) >= oracles.min_cover_size(dist, eps)
        assert covering_number(pc, eps) == oracles.greedy_cover_count(dist, eps)


def test_covering_number_nonincreasing():
    pc = cluster_policy_class()
    values = [covering_number(pc, eps) for eps in np.linspace(0, 9, 30)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert covering_number(pc, 1.0) == 4


def test_lipschitz_process_bound_singleton_is_zero():
    pc = PolicyClass((Policy((0, 0)),), HammingMetric())
    assert lipschitz_process_bound(1.0, 5.0, pc, [0.0, 1.0]) == 0.0


def test_lipschitz_process_bound_degenerate_constant():
    pc = enumerate_policies(3, 2)
    # with E[C] = 0 the inf settles on the coarsest net in the grid
    expected = min(maximal_bound(2.0, covering_number(pc, e)) for e in (0.0, 1.0, 2.0))
    assert lipschitz_process_bound(2.0, 0.0, pc, [0.0, 1.0, 2.0]) == pytest.approx(
        expected, rel=1e-12
    )
    # a {0}-only grid recovers the plain maximal inequality over the full class
    assert lipschitz_process_bound(2.0, 0.0, pc, [0.0]) == pytest.approx(
        maximal_bound(2.0, len(pc)), rel=1e-12
    )


def test_lipschitz_process_bound_two_level_example():
    pc = cluster_policy_class()
    got = lipschitz_process_bound(1.0, 1.0, pc, [0.0, 1.0])
    expected = min(math.sqrt(2 * math.log(8)), 1.0 + math.sqrt(2 * math.log(4)))
    assert got == pytest.approx(expected, rel=1e-12)


def test_lipschitz_process_bound_runs_one_traversal(monkeypatch):
    pc = cluster_policy_class()
    grid = [0.0, 0.5, 1.0, 3.0, 8.0, 9.0]
    want = math.inf
    for eps in grid:  # the covering number at each grid point, as the bound defines it
        want = min(want, eps * 1.5 + math.sqrt(2.0 * 0.7 * math.log(covering_number(pc, eps))))
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return greedy_net_radii(*args, **kwargs)

    monkeypatch.setattr(rl, "greedy_net_radii", spy)
    assert lipschitz_process_bound(0.7, 1.5, pc, grid) == want
    assert len(calls) == 1


def test_lipschitz_process_bound_rejects_empty_grid():
    with pytest.raises(ValidationError):
        lipschitz_process_bound(1.0, 1.0, enumerate_policies(2, 2), [])


@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0])
def test_cover_radii_must_be_finite_and_nonnegative(eps):
    pc = enumerate_policies(2, 2)
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        covering_number(pc, eps)
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        lipschitz_process_bound(1.0, 1.0, pc, [0.5, eps])


@pytest.mark.parametrize("bound, values", [
    (lambda pc, x: covering_number(pc, 0.5, scale=x), (0.0, -1.0, math.nan, math.inf)),
    (lambda pc, x: lipschitz_process_bound(x, 1.0, pc, [0.5]), (-1.0, math.nan, math.inf)),
    (lambda pc, x: lipschitz_process_bound(1.0, x, pc, [0.5]), (-1.0, math.nan, math.inf)),
    (lambda pc, x: maximal_bound(x, len(pc)), (-1.0, math.nan, math.inf)),
], ids=["cover_scale", "lipschitz_sigma2", "lipschitz_expected_c", "maximal_sigma2"])
def test_supremum_bounds_reject_bad_numbers(bound, values):
    pc = enumerate_policies(3, 2)
    for x in values:
        with pytest.raises(ValidationError, match="must be finite and"):
            bound(pc, x)


# ---------------------------------------------------------------------------
# Dudley staircase


def test_dudley_singleton_is_zero():
    pc = PolicyClass((Policy((0,)),), HammingMetric())
    assert dudley_bound(pc) == 0.0


def test_dudley_two_policies():
    pc = PolicyClass((Policy((0, 0, 0)), Policy((1, 1, 0))), HammingMetric())
    assert dudley_bound(pc) == pytest.approx(12.0 * 2.0 * math.sqrt(math.log(2)), rel=1e-12)


def dudley_oracle(pc, scale=1.0):
    """Breakpoint enumeration: integrate the greedy covering staircase over
    the sorted distinct pairwise distances."""
    dist = scale * oracles.pairwise_distances(pc, oracles.hamming)
    points = sorted({0.0} | {float(d) for d in dist.ravel() if d > 0})
    total = 0.0
    for lo, hi in zip(points, points[1:]):
        n_eps = oracles.greedy_cover_count(dist, lo)
        total += (hi - lo) * math.sqrt(math.log(n_eps))
    return 12.0 * total


def test_dudley_staircase_matches_breakpoint_oracle():
    pc = enumerate_policies(3, 2)
    assert dudley_bound(pc) == pytest.approx(dudley_oracle(pc), rel=1e-12)
    clusters = cluster_policy_class()
    assert dudley_bound(clusters) == pytest.approx(dudley_oracle(clusters), rel=1e-12)


def test_dudley_scales_linearly():
    pc = enumerate_policies(3, 2)
    base = dudley_bound(pc, scale=1.0)
    assert dudley_bound(pc, scale=2.5) == pytest.approx(2.5 * base, rel=1e-12)
    assert base >= 0.0


def test_dudley_bound_memory_is_linear_in_the_class_size():
    pc = enumerate_policies(6, 4)  # 4,096 policies: a (P, P) float matrix alone is 128 MiB
    tracemalloc.start()
    try:
        dudley_bound(pc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_greedy_radii_take_the_first_of_tied_policies():
    # several policies tie as farthest; taking the last of them gives [inf, 3, 2, 2, 2, 1, 1]
    actions = [(2, 0, 0), (2, 2, 0), (0, 2, 1), (0, 2, 0), (1, 1, 1), (0, 0, 2), (2, 2, 1)]
    pc = PolicyClass(tuple(Policy(a) for a in actions), HammingMetric())
    want = oracles.greedy_net_radii_dense(oracles.pairwise_distances(pc, oracles.hamming))
    assert greedy_net_radii(pc) == want == [math.inf, 3.0, 2.0, 2.0, 1.0, 1.0, 1.0]


def test_greedy_radii_are_nonincreasing():
    radii = greedy_net_radii(cluster_policy_class())
    finite = radii[1:]
    assert all(a >= b for a, b in zip(finite, finite[1:]))
    assert radii[1] == 8.0


# ---------------------------------------------------------------------------
# finite state-action bounds


def test_finite_state_bound_degenerate():
    assert finite_state_bound(10, 2.0, 1, 1, "max_mix") == 0.0


def test_finite_state_bound_values():
    got = finite_state_bound(100, 10.0, 4, 2, "max_mix")
    assert got == pytest.approx(math.sqrt(1000 * math.log(8)), rel=1e-12)
    assert got == pytest.approx(45.60, abs=5e-3)
    union = finite_state_bound(100, 10.0, 4, 2, "union")
    assert union == pytest.approx(math.sqrt(8000 * math.log(8)), rel=1e-12)
    assert union == pytest.approx(128.98, abs=5e-3)


def test_finite_state_bound_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        finite_state_bound(10, 1.0, 2, 2, "typo")
    with pytest.raises(ValidationError):
        finite_state_bound(0, 1.0, 2, 2, "max_mix")


# ---------------------------------------------------------------------------
# metrics and JSON


def test_mixing_metric_uses_induced_chain_taus(rng):
    mdp = random_mdp(rng, horizon=6)
    metric = MixingTimeMetric(mdp, eps=0.3)
    a, b = Policy((0, 0, 0)), Policy((1, 1, 1))
    row = metric.distance_rows((a, b))
    ta, tb = (mixing_time(induced_chain(mdp, pi), 0.3) or mdp.horizon for pi in (a, b))
    assert row(0).tolist() == [0, abs(ta - tb)]
    assert row(1).tolist() == [abs(ta - tb), 0]


def test_policy_class_rejects_duplicates():
    with pytest.raises(ValidationError):
        PolicyClass((Policy((0, 1)), Policy((0, 1))), HammingMetric())


def test_mdp_from_dict_roundtrip(rng):
    mdp = random_mdp(rng)
    doc = {
        "S": 3, "A": 2, "H": 4,
        "initial": mdp.initial.probs.tolist(),
        "transitions": mdp.transitions.tolist(),
        "rewards": mdp.rewards.tolist(),
    }
    loaded = mdp_from_dict(doc)
    assert_allclose(loaded.transitions, mdp.transitions, atol=0)
    assert_allclose(loaded.stage_caps, np.ones(4), atol=0)
