"""The batched policy-class engine and the stacked kernel table against the
per-policy and per-kernel code they replaced.

The reference paths live in oracles.py: the per-policy CRN supremum loop
(each induced chain validated, sampled and centred on its own), the
per-policy exact values, the per-position t-step products, thetas and mixing
time, the per-entry brute Gamma, the one-by-one kernel validation and the
pairwise distance loop. The engine must reproduce them bit for bit.
"""

import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chainconc import (
    HammingMetric,
    Kernel,
    MdpSpec,
    MixingTimeMetric,
    Policy,
    PolicyClass,
    ValidationError,
    ChainSpec,
    Distribution,
    chain_from_dict,
    dobrushin_coefficient,
    empirical_sup_value,
    enumerate_policies,
    exact_value,
    homogeneous_chain,
    induced_chain,
    mixing_time,
    mdp_from_dict,
    validate_chain,
    verify,
    wasserstein_matrix_tv,
)
from chainconc import chain, cli, concentration, rl
from chainconc.chain import dobrushin_coefficients, t_step_products
from chainconc.concentration import build_gamma


def random_mdp(rng, n_states, n_actions, horizon, zeros=False) -> MdpSpec:
    """Random MDP; with zeros, about a third of the transition entries are 0."""
    trans = rng.random((n_states, n_actions, n_states)) + 0.05
    if zeros:
        trans[rng.random(trans.shape) < 0.35] = 0.0
        trans[..., rng.integers(0, n_states)] += 0.1  # no row is all zero
    trans /= trans.sum(axis=2, keepdims=True)
    initial = rng.random(n_states) + 0.05
    if zeros and n_states > 1:
        initial[0] = 0.0
    return MdpSpec.build(n_states, n_actions, horizon, trans, rng.random((n_states, n_actions)),
                         initial / initial.sum())


def random_class(rng, mdp, size) -> PolicyClass:
    """Up to `size` distinct random policies."""
    seen = {}
    for _ in range(4 * size):
        pi = Policy(tuple(rng.integers(0, mdp.n_actions, mdp.n_states).tolist()))
        seen.setdefault(pi.key(), pi)
        if len(seen) == size:
            break
    return PolicyClass(tuple(seen.values()), HammingMetric())


# ---------------------------------------------------------------------------
# the CRN sampler


@settings(max_examples=40)
@given(n_states=st.integers(1, 4), n_actions=st.integers(1, 3), horizon=st.integers(1, 6),
       zeros=st.booleans(), size=st.integers(1, 12),
       replicates=st.integers(2, 300), chunks=st.integers(1, 3), block=st.integers(1, 64),
       budget=st.integers(1, 512), seed=st.integers(0, 2**32 - 1))
@example(n_states=1, n_actions=1, horizon=1, zeros=False, size=1,
         replicates=2, chunks=1, block=64, budget=512, seed=0)
@example(n_states=1, n_actions=3, horizon=4, zeros=False, size=3,
         replicates=50, chunks=2, block=7, budget=9, seed=1)
@example(n_states=4, n_actions=1, horizon=5, zeros=True, size=1,
         replicates=97, chunks=3, block=10, budget=3, seed=2)
@example(n_states=4, n_actions=3, horizon=1, zeros=True, size=12,
         replicates=120, chunks=1, block=64, budget=100, seed=3)
def test_sampler_matches_per_policy_loop(n_states, n_actions, horizon, zeros, size,
                                         replicates, chunks, block, budget, seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n_states, n_actions, horizon, zeros)
    pc = random_class(rng, mdp, size)
    want = oracles.sup_value_per_policy(mdp, pc, replicates, seed=seed % 1000)
    # small blocks and budgets put block boundaries inside the replicate range
    with mock.patch.object(verify, "SAMPLE_BLOCK", block), \
            mock.patch.object(verify, "SUP_BLOCK_ELEMENTS", budget):
        est = empirical_sup_value(mdp, pc, replicates=replicates, seed=seed % 1000,
                                  chunks=chunks)
    assert (est.estimate, est.standard_error) == want


def test_sampler_crosses_the_sample_block_unpatched(rng):
    mdp = random_mdp(rng, 3, 2, 4, zeros=True)
    pc = enumerate_policies(3, 2)
    replicates = verify.SAMPLE_BLOCK + 5
    est = empirical_sup_value(mdp, pc, replicates=replicates, seed=21)
    assert (est.estimate, est.standard_error) == oracles.sup_value_per_policy(
        mdp, pc, replicates, seed=21)


def test_uniforms_on_cdf_breakpoints_step_as_the_chain_sampler_does():
    # dyadic kernel rows, so the CDF breakpoints are exact multiples of 1/8, and
    # every replicate's uniforms run over a grid of those multiples
    trans = [[[0.25, 0.25, 0.5], [0.5, 0.5, 0.0]],
             [[0.0, 0.75, 0.25], [0.5, 0.25, 0.25]],
             [[0.125, 0.375, 0.5], [0.25, 0.0, 0.75]]]
    mdp = MdpSpec.build(3, 2, 4, trans, [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]],
                        [0.25, 0.5, 0.25])
    pc = enumerate_policies(3, 2)

    def grid_uniforms(seed, replicates, n_vars, first=0):
        r = np.arange(first, first + replicates)[:, None]
        return ((r // 8 ** np.arange(n_vars)) % 8) / 8.0

    def grid_blocks(seed, n_vars, ranges):
        for a, b in ranges:
            yield grid_uniforms(seed, b - a, n_vars, first=a)

    with mock.patch.object(verify, "uniform_blocks", grid_blocks), \
            mock.patch.object(oracles, "uniform_matrix", grid_uniforms):
        est = empirical_sup_value(mdp, pc, replicates=8**4, chunks=3)
        assert (est.estimate, est.standard_error) == oracles.sup_value_per_policy(
            mdp, pc, 8**4, seed=0)


def test_block_width_keeps_policy_arrays_within_the_budget():
    # 3^7 = 2187 policies: a block holds SUP_BLOCK_ELEMENTS // 2187 replicates
    mdp = random_mdp(np.random.default_rng(5), 7, 3, 3)
    pc = enumerate_policies(7, 3)
    widths = []
    values = verify._reward_sums

    def spy(rows, rewards, init_cdf, cdf, u):
        widths.append(u.shape[1])
        return values(rows, rewards, init_cdf, cdf, u)

    with mock.patch.object(verify, "_reward_sums", spy):
        empirical_sup_value(mdp, pc, replicates=200, seed=1)
    assert max(widths) * len(pc) <= verify.SUP_BLOCK_ELEMENTS
    assert sum(widths) == 200


def test_sampler_rejects_policies_outside_the_mdp(rng):
    mdp = random_mdp(rng, 3, 2, 4)
    for policy in (Policy((0, 2, 1)), Policy((0, 1)), Policy((0, -1, 1))):
        pc = PolicyClass((policy,), HammingMetric())
        with pytest.raises(ValidationError):
            empirical_sup_value(mdp, pc, replicates=10)


# ---------------------------------------------------------------------------
# induced chains, values and Gammas


@settings(max_examples=25)
@given(n_states=st.integers(1, 5), n_actions=st.integers(1, 3), horizon=st.integers(1, 7),
       zeros=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_induced_chains_and_values_match_per_stage_construction(n_states, n_actions, horizon,
                                                                zeros, seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n_states, n_actions, horizon, zeros)
    for pi in random_class(rng, mdp, 4).policies:
        new, old = induced_chain(mdp, pi), oracles.induced_chain_per_stage(mdp, pi)
        assert new.coord_sizes == old.coord_sizes
        assert new.initial.probs.tobytes() == old.initial.probs.tobytes() \
            == mdp.initial.probs.tobytes()
        assert [k.rows.tobytes() for k in new.kernels] == [k.rows.tobytes() for k in old.kernels]
        assert exact_value(mdp, pi) == oracles.exact_value_per_stage(mdp, pi)
        gamma, details = build_gamma(new, "contractive")
        assert details["thetas"] == [dobrushin_coefficient(k) for k in old.kernels]


def test_induced_chain_keeps_the_mdp_initial_law():
    # a law that a second normalisation moves in its last bits
    initial = [0.5419933099788927, 0.3221525203573636, 0.13585416966374378]
    mdp = MdpSpec.build(3, 1, 4, np.full((3, 1, 3), 1 / 3), np.zeros((3, 1)), initial)
    chain = induced_chain(mdp, Policy((0, 0, 0)))
    assert chain.initial.probs.tobytes() == mdp.initial.probs.tobytes()


def test_stationary_policy_repeats_one_kernel(rng):
    chain = induced_chain(random_mdp(rng, 3, 2, 6), Policy((1, 0, 1)))
    assert all(k is chain.kernels[0] for k in chain.kernels)


# ---------------------------------------------------------------------------
# mixing times


def _chain(rng, kind, n, size, zeros):
    def kernel(rows, cols):
        k = rng.random((rows, cols)) + 0.02
        if zeros:
            k[rng.random(k.shape) < 0.4] = 0.0
            k[:, 0] += 0.05
        return (k / k.sum(axis=1, keepdims=True)).tolist()

    if kind == "homogeneous":
        return homogeneous_chain(kernel(size, size), n)
    if kind == "equal-copies":  # equal rows in distinct kernel objects
        k = kernel(size, size)
        return chain_from_dict({"coord_sizes": [size] * n, "initial": [1.0 / size] * size,
                                "kernels": [k] * (n - 1)})
    if kind == "last-differs":
        k = kernel(size, size)
        kernels = [k] * (n - 2) + [kernel(size, size)] if n > 2 else [kernel(size, size)] * (n - 1)
        return chain_from_dict({"coord_sizes": [size] * n, "initial": [1.0 / size] * size,
                                "kernels": kernels})
    if kind == "runs":  # coordinate sizes in blocks: several runs of equal-shape kernels
        sizes = np.repeat(rng.integers(1, size + 1, n), rng.integers(1, 5, n))[:n].tolist()
    else:
        sizes = rng.integers(1, size + 1, n).tolist()
    return chain_from_dict({"coord_sizes": sizes, "initial": [1.0 / sizes[0]] * sizes[0],
                            "kernels": [kernel(sizes[i], sizes[i + 1]) for i in range(n - 1)]})


@settings(max_examples=60)
@given(kind=st.sampled_from(["homogeneous", "equal-copies", "last-differs", "inhomogeneous"]),
       n=st.integers(1, 9), size=st.integers(1, 4), zeros=st.booleans(),
       eps=st.sampled_from([0.01, 0.1, 0.25, 0.5, 0.9]), seed=st.integers(0, 2**32 - 1))
def test_mixing_time_matches_per_position_evaluation(kind, n, size, zeros, eps, seed):
    spec = _chain(np.random.default_rng(seed), kind, n, size, zeros)
    assert mixing_time(spec, eps) == oracles.mixing_time_per_position(spec, eps)


def test_mixing_time_of_a_permutation_chain_is_none():
    flip = homogeneous_chain([[0.0, 1.0], [1.0, 0.0]], 6)
    assert mixing_time(flip, 0.5) is None is oracles.mixing_time_per_position(flip, 0.5)


# ---------------------------------------------------------------------------
# the stacked kernel table


KINDS = ["homogeneous", "equal-copies", "last-differs", "inhomogeneous", "runs"]


@settings(max_examples=60)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 14), size=st.integers(1, 4),
       zeros=st.booleans(), eps=st.sampled_from([0.01, 0.1, 0.25, 0.5, 0.9]),
       seed=st.integers(0, 2**32 - 1))
@example(kind="runs", n=14, size=3, zeros=True, eps=0.01, seed=3)
def test_lag_table_is_bitwise_the_per_position_products(kind, n, size, zeros, eps, seed):
    spec = _chain(np.random.default_rng(seed), kind, n, size, zeros)
    lags = list(t_step_products(spec))
    want = list(oracles.t_step_products_per_position(spec))
    assert len(lags) == len(want) == spec.n - 1
    for stacks, products in zip(lags, want):
        got = [p for stack in stacks for p in stack]
        assert len(got) == len(products)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in products]
    thetas = build_gamma(spec, "contractive")[1]["thetas"]
    assert np.array(thetas).tobytes() == np.array(oracles.thetas_per_kernel(spec)).tobytes()
    assert mixing_time(spec, eps) == oracles.mixing_time_per_position(spec, eps)


@settings(max_examples=60)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 12), size=st.integers(1, 4),
       zeros=st.booleans(), dead=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(kind="runs", n=12, size=4, zeros=True, dead=2, seed=5)
@example(kind="homogeneous", n=6, size=3, zeros=True, dead=1, seed=0)
def test_brute_gamma_is_bitwise_the_per_entry_coefficients(kind, n, size, zeros, dead, seed):
    rng = np.random.default_rng(seed)
    spec = _chain(rng, kind, n, size, zeros)
    initial = np.array(spec.initial.probs)
    initial[1:][:dead] = 0.0  # zero-marginal states at coordinate 0; zero kernel entries add more
    spec = dataclasses.replace(spec, initial=Distribution(initial / initial.sum()))
    got = wasserstein_matrix_tv(spec).entries
    assert got.tobytes() == oracles.wasserstein_matrix_per_entry(spec).tobytes()


def test_lag_table_at_the_dyadic_mixing_boundary():
    # dyadic rows at pairwise TV exactly 1/2, and a permutation of them
    half = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
    shifted = [half[1], half[2], half[0]]
    doc = {"coord_sizes": [3] * 7, "initial": [0.2, 0.3, 0.5],
           "kernels": [half, shifted, half, half, shifted, half]}
    for spec in (homogeneous_chain(half, 7), chain_from_dict(doc)):
        assert build_gamma(spec, "contractive")[1]["thetas"] == [0.5] * 6
        for eps in (0.5, np.nextafter(0.5, 0.0), 0.25, np.nextafter(0.25, 0.0)):
            tau = mixing_time(spec, eps)
            assert tau == oracles.mixing_time_per_position(spec, eps), eps
        assert mixing_time(spec, 0.5) == 1  # a coefficient equal to eps has mixed
        assert mixing_time(spec, np.nextafter(0.5, 0.0)) > 1


def test_batched_coefficients_stay_within_their_block():
    # 64 matrices on 40 states: the unblocked pair differences alone are 32 MB
    rng = np.random.default_rng(40)
    spec = validate_chain(ChainSpec((40,) * 65, Distribution(np.full(40, 1 / 40)), tuple(
        Kernel(m) for m in rng.dirichlet(np.ones(40), size=(64, 40)))))
    stack = np.array([k.rows for k in spec.kernels])
    want = np.array([dobrushin_coefficient(k) for k in spec.kernels])
    budget = 8 * chain.PAIR_BLOCK_ELEMENTS
    for run in (lambda: dobrushin_coefficients(stack),
                lambda: np.array(build_gamma(spec, "contractive")[1]["thetas"])):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            thetas = run()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert thetas.tobytes() == want.tobytes()
        # one block's differences and row sums, plus the (64, 40, 40) kernel stack
        assert peak < 1.1 * budget + 2 * stack.nbytes


def _corrupt(rng, rows, how):
    rows = np.array(rows)
    i, j = rng.integers(0, rows.shape[0]), rng.integers(0, rows.shape[1])
    if how == "nan":
        rows[i, j] = math.nan
    elif how == "negative":
        rows[i, j] = -0.25
    elif how == "sum":
        rows[i] *= 1.5
    elif how == "shape":
        rows = np.hstack([rows, rows[:, :1]])
    else:
        rows = rows[0]
    return rows


@settings(max_examples=80)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 12), size=st.integers(1, 4),
       faults=st.lists(st.tuples(st.integers(0, 10), st.sampled_from(
           ["nan", "negative", "sum", "shape", "flat"])), max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_kernel_runs_validate_as_kernels_one_by_one(kind, n, size, faults, seed):
    rng = np.random.default_rng(seed)
    spec = _chain(rng, kind, n, size, zeros=False)
    kernels = list(spec.kernels)
    for position, how in faults:
        if position < len(kernels) and np.ndim(kernels[position].rows) == 2:
            kernels[position] = Kernel(_corrupt(rng, kernels[position].rows, how))
    raw = ChainSpec(spec.coord_sizes, spec.initial, tuple(kernels))
    try:
        want = oracles.validate_kernels_one_by_one(raw)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            validate_chain(raw)
        assert str(got.value) == str(exc)
        return
    got = validate_chain(raw).kernels
    assert [k.rows.tobytes() for k in got] == [k.rows.tobytes() for k in want]


# ---------------------------------------------------------------------------
# distance rows and the farthest-point traversal


def oracle_tau(mdp, eps):
    """tau_pi(eps) by the per-position mixing time of the per-stage induced chain."""
    def tau(pi):
        t = oracles.mixing_time_per_position(oracles.induced_chain_per_stage(mdp, pi), eps)
        return mdp.horizon if t is None else t
    return tau


def stacked_rows(pc) -> np.ndarray:
    row = pc.metric.distance_rows(pc.policies)
    return np.stack([row(k) for k in range(len(pc))])


def test_hamming_rows_match_pairwise_loop(rng):
    mdp = random_mdp(rng, 4, 3, 3)
    for pc in (enumerate_policies(4, 3), random_class(rng, mdp, 9)):
        want = oracles.pairwise_distances(pc, oracles.hamming)
        assert stacked_rows(pc).tobytes() == want.tobytes()


def test_mixing_rows_match_pairwise_loop_with_tau_ties(rng):
    mdp = random_mdp(rng, 3, 2, 6)
    metric = MixingTimeMetric(mdp, 0.3)
    pc = enumerate_policies(3, 2, metric=metric)
    tau = oracle_tau(mdp, 0.3)
    taus = [tau(pi) for pi in pc.policies]
    assert len(set(taus)) < len(taus)  # ties
    want = oracles.pairwise_distances(pc, lambda a, b: abs(tau(a) - tau(b)))
    assert np.array_equal(stacked_rows(pc), want)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), n_states=st.integers(1, 4), n_actions=st.integers(1, 3),
       horizon=st.integers(1, 6), size=st.integers(1, 16), mixing=st.booleans(), eps=st.sampled_from([0.3, 0.05]),
       scale=st.sampled_from([1.0, 0.37, 2.5]))
def test_greedy_radii_match_the_dense_traversal_bitwise(seed, n_states, n_actions, horizon, size,
                                                         mixing, eps, scale):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n_states, n_actions, horizon)
    pc = random_class(rng, mdp, size)
    distance = oracles.hamming
    if mixing:
        pc = PolicyClass(pc.policies, MixingTimeMetric(mdp, eps))
        tau = oracle_tau(mdp, eps)
        distance = lambda a, b: abs(tau(a) - tau(b))  # noqa: E731
    want = oracles.greedy_net_radii_dense(scale * oracles.pairwise_distances(pc, distance))
    assert np.array(rl.greedy_net_radii(pc, scale)).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# the class table of contraction coefficients and mixing times


@settings(max_examples=60)
@given(n_states=st.integers(1, 6), n_actions=st.integers(1, 4), horizon=st.integers(1, 12),
       zeros=st.booleans(), size=st.integers(1, 40), budget=st.integers(1, 2000),
       eps=st.sampled_from([0.01, 0.1, 0.25, 0.5, 0.9]), seed=st.integers(0, 2**32 - 1))
@example(n_states=6, n_actions=4, horizon=12, zeros=True, size=40, budget=1, eps=0.01, seed=0)
@example(n_states=1, n_actions=1, horizon=1, zeros=False, size=1, budget=1, eps=0.5, seed=1)
def test_class_table_is_bitwise_the_per_policy_coefficients(n_states, n_actions, horizon, zeros,
                                                            size, budget, eps, seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n_states, n_actions, horizon, zeros)
    policies = random_class(rng, mdp, size).policies
    # small budgets split the class into blocks of a few policies
    with mock.patch.object(rl, "TABLE_BLOCK_ELEMENTS", budget):
        thetas, taus = mdp.class_table(policies, eps)
    states = np.arange(n_states)
    want_thetas = [dobrushin_coefficient(Kernel(mdp.kernel_rows[states, list(pi.actions)]))
                   for pi in policies]
    assert thetas.tobytes() == np.array(want_thetas).tobytes()
    assert taus == [mixing_time(induced_chain(mdp, pi), eps) for pi in policies]


def test_class_table_at_the_mixing_boundaries():
    # action 0 cycles the states; action 1 has dyadic rows at pairwise TV exactly 1/2
    trans = [[[0.0, 1.0, 0.0], [0.5, 0.5, 0.0]],
             [[0.0, 0.0, 1.0], [0.0, 0.5, 0.5]],
             [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5]]]
    mdp = MdpSpec.build(3, 2, 6, trans, np.zeros((3, 2)), [0.2, 0.3, 0.5])
    pc = enumerate_policies(3, 2)
    thetas, taus = mdp.class_table(pc.policies, 0.5)
    assert (thetas[0], taus[0]) == (1.0, None)  # (0, 0, 0) never mixes
    assert (thetas[-1], taus[-1]) == (0.5, 1)  # (1, 1, 1) mixes at a coefficient equal to eps
    assert taus == [mixing_time(induced_chain(mdp, pi), 0.5) for pi in pc.policies]


def test_class_table_memory_is_bounded_by_its_block():
    # 2^13 policies on 13 states: the unblocked (P, S, S, S) pair differences alone are 144 MB
    mdp = random_mdp(np.random.default_rng(13), 13, 2, 5, zeros=True)
    policies = enumerate_policies(13, 2, cap=2**13).policies
    tracemalloc.start()
    try:
        thetas, taus = mdp.class_table(policies, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(taus) == thetas.size == 2**13
    assert peak < 16 * 2**20


@settings(max_examples=40)
@given(n_states=st.integers(1, 16), n_actions=st.integers(1, 3), horizon=st.integers(1, 12),
       zeros=st.booleans(), size=st.integers(1, 30), budget=st.integers(1, 5000),
       seed=st.integers(0, 2**32 - 1))
@example(n_states=16, n_actions=3, horizon=12, zeros=True, size=30, budget=5000, seed=0)
def test_class_values_are_bitwise_the_per_policy_induction(n_states, n_actions, horizon, zeros,
                                                           size, budget, seed):
    rng = np.random.default_rng(seed)
    mdp = random_mdp(rng, n_states, n_actions, horizon, zeros)
    policies = random_class(rng, mdp, size).policies
    with mock.patch.object(rl, "TABLE_BLOCK_ELEMENTS", budget):
        values = mdp.class_values(policies)
    want = [oracles.exact_value_per_stage(mdp, pi) for pi in policies]
    assert values.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_class_values_are_bitwise_under_either_blas_thread_count(threads):
    test = f"{__file__}::test_class_values_are_bitwise_the_per_policy_induction"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.path.dirname(os.path.dirname(os.path.abspath(chain.__file__)))}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout[-2000:]


def test_class_table_rejects_bad_eps_and_out_of_range_actions(rng):
    mdp = random_mdp(rng, 2, 2, 3)
    policies = enumerate_policies(2, 2).policies
    for eps in (0.0, 1.0, math.nan, -0.5):
        with pytest.raises(ValidationError, match="must lie in"):
            mdp.class_table(policies, eps)
    with pytest.raises(ValidationError):
        mdp.class_table((Policy((0, 2)),), 0.25)


@pytest.mark.parametrize("actions", [(0, -1), (0,), (0, 2), (0, 1, 0), (0.5, 1)],
                         ids=["negative", "short", "too_large", "long", "fractional"])
@pytest.mark.parametrize("entry", [
    induced_chain,
    exact_value,
    lambda mdp, pi: mdp.class_values((pi,)),
    lambda mdp, pi: mdp.class_table((pi,), 0.25),
    lambda mdp, pi: empirical_sup_value(mdp, PolicyClass((pi,), HammingMetric()), replicates=10),
], ids=["induced_chain", "exact_value", "class_values", "class_table", "empirical_sup_value"])
def test_every_per_policy_entry_rejects_malformed_actions(actions, entry):
    # unchecked, a negative action would wrap, a short table broadcast over
    # the states and a fractional action truncate
    mdp = random_mdp(np.random.default_rng(4), 2, 2, 3)
    with pytest.raises(ValidationError):
        entry(mdp, Policy(actions))


# ---------------------------------------------------------------------------
# one computation per distinct certificate, one batched coefficient per lag


def _counted_cli_run(argv, doc, targets):
    """Run the CLI on doc with every (module, name) of targets wrapped in a call
    counter, in every chainconc module that binds the same function."""
    counts = {}
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "chainconc" or n.startswith("chainconc."))]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        path = os.path.join(tmp, "mdp.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for label, (module, name) in targets.items():
            raw = getattr(module, name)
            wrapper = counted(label, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        stack.enter_context(mock.patch.object(mod, key, wrapper))
        code = cli.main(argv + ["--input", path, "--output", os.path.join(tmp, "out.json")])
    return code, counts


def test_rl_verify_builds_each_policy_once_and_certifies_each_gamma_once(rng):
    trans = rng.dirichlet(np.full(3, 2.0), size=(3, 3))
    trans[:, 2] = trans[:, 0]  # actions 0 and 2 coincide: repeated Gammas
    doc = {"S": 3, "A": 3, "H": 8, "initial": [0.2, 0.3, 0.5], "transitions": trans.tolist(),
           "rewards": rng.uniform(0, 1, (3, 3)).tolist()}
    code, counts = _counted_cli_run(
        ["rl-verify", "--metric", "mixing", "--replicates", "500"], doc,
        {"chain": (rl, "induced_chain"), "value": (rl, "exact_value"),
         "tau": (concentration, "mixing_time"), "certify": (concentration, "certify")})
    assert code == 0
    mdp = mdp_from_dict(doc)
    policies = enumerate_policies(3, 3).policies
    thetas = {dobrushin_coefficient(oracles.induced_chain_per_stage(mdp, pi).kernels[0])
              for pi in policies}
    # one chain and certificate per distinct theta, no per-policy mixing time or
    # value: the class table and class values give both
    assert counts == {"chain": len(thetas), "certify": len(thetas)}
    assert len(thetas) < 27


def test_ergodic_rl_bound_computes_one_mixing_time_per_certificate(rng):
    trans = rng.dirichlet(np.full(3, 2.0), size=(3, 2))
    trans[:, 1] = 0.5 * np.eye(3) + 0.5 * trans[:, 1]  # action 1 mixes slowly: several taus
    doc = {"S": 3, "A": 2, "H": 8, "initial": [0.2, 0.3, 0.5], "transitions": trans.tolist(),
           "rewards": rng.uniform(0, 1, (3, 2)).tolist()}
    code, counts = _counted_cli_run(
        ["rl-bound", "--method", "ergodic"], doc,
        {"tau": (concentration, "mixing_time"), "chain": (rl, "induced_chain"),
         "certify": (concentration, "certify")})
    assert code == 0
    mdp = mdp_from_dict(doc)
    taus = {mixing_time(induced_chain(mdp, pi), 0.25) for pi in enumerate_policies(3, 2).policies}
    assert counts == {"tau": len(taus), "chain": len(taus), "certify": len(taus)}
    assert len(taus) > 1


def test_brute_certify_makes_no_per_entry_coefficient_call(rng):
    sizes = [3, 3, 2, 2, 3, 3, 3]
    doc = {"coord_sizes": sizes, "initial": [0.5, 0.0, 0.5],
           "kernels": [rng.dirichlet(np.ones(sizes[i + 1]), size=sizes[i]).tolist()
                       for i in range(len(sizes) - 1)]}
    code, counts = _counted_cli_run(
        ["certify", "--method", "brute"], doc,
        {"coefficient": (chain, "dobrushin_coefficient"),
         "coefficients": (chain, "dobrushin_coefficients")})
    assert code == 0
    assert "coefficient" not in counts
    assert counts["coefficients"] >= len(sizes) - 1  # one call per lag and run, at least


def _field_bytes(value):
    if isinstance(value, Distribution):
        value = value.probs
    return value.tobytes() if isinstance(value, np.ndarray) else value


def test_mdp_spec_holds_only_its_fields(rng):
    mdp = random_mdp(rng, 3, 2, 4, zeros=True)
    names = [f.name for f in dataclasses.fields(mdp)]
    before = {name: _field_bytes(getattr(mdp, name)) for name in names}
    pc = enumerate_policies(3, 2)
    pi = pc.policies[3]
    mdp.class_values(pc.policies)
    mdp.class_table(pc.policies, 0.25)
    induced_chain(mdp, pi)
    exact_value(mdp, pi)
    empirical_sup_value(mdp, pc, replicates=10)
    assert sorted(vars(mdp)) == sorted(names)
    assert {name: _field_bytes(getattr(mdp, name)) for name in names} == before


def test_mdp_spec_keeps_its_values_when_the_inputs_change():
    t = np.array([[[0.5, 0.5]], [[0.25, 0.75]]])
    r = np.array([[0.5], [0.25]])
    caps = np.ones(3)
    mdp = MdpSpec.build(2, 1, 3, t, r, [0.5, 0.5], stage_caps=caps)
    pc = enumerate_policies(2, 1)
    before = (mdp.class_values(pc.policies).tobytes(), mdp.class_table(pc.policies, 0.25),
              [k.rows.tobytes() for k in induced_chain(mdp, pc.policies[0]).kernels])
    t[0, 0] = [5.0, -4.0]
    r[:] = 7.0
    caps[:] = -1.0
    after = (mdp.class_values(pc.policies).tobytes(), mdp.class_table(pc.policies, 0.25),
             [k.rows.tobytes() for k in induced_chain(mdp, pc.policies[0]).kernels])
    assert after == before
    assert mdp.stage_caps.tolist() == [1.0, 1.0, 1.0]
