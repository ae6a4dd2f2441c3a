import importlib
import inspect
import json
import math
import sys
import threading
import warnings
from collections import defaultdict

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from chainconc import (
    AdditiveFunction,
    LipschitzWeights,
    Policy,
    TabularFunction,
    ValidationError,
    certify,
    chain_from_dict,
    empirical_mgf,
    empirical_sup_value,
    empirical_tail,
    enumerate_policies,
    homogeneous_chain,
    induced_chain,
    maximal_bound,
)
from chainconc import verify
from chainconc.chain import trajectories_from_uniforms
from chainconc.rl import HammingMetric, PolicyClass
from chainconc.rng import chunk_ranges, uniform_matrix
from conftest import random_chain
from test_perfbench_targets import traced_targets
from test_rl import random_mdp

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]
WIDE_CAP = 2**21  # the 20-coordinate control chains have joint size 2^20


def fair_product_chain(n):
    return homogeneous_chain([[0.5, 0.5], [0.5, 0.5]], n)


def hamming_weight(spec, cap=None):
    return TabularFunction.from_vectorized(
        spec, lambda grids: sum((g == 1).astype(float) for g in grids), cap=cap
    )


# ---------------------------------------------------------------------------
# empirical tails


def test_constant_function_has_empty_tail():
    spec = fair_product_chain(6)
    f = TabularFunction(np.full(spec.joint_size(), 4.2))
    est = empirical_tail(spec, f, sigma2=1.0, t_grid=[0.5, 1.0, 2.0], replicates=2000, seed=1)
    assert_allclose(est.empirical, 0.0, atol=0)
    assert est.violations() == []


def test_product_chain_tail_against_binomial_oracle():
    n, m = 20, 10**5
    spec = fair_product_chain(n)
    f = hamming_weight(spec, cap=WIDE_CAP)
    sigma2 = 5.0  # n/4 under unit weights, the independent-coordinates proxy
    est = empirical_tail(spec, f, sigma2, replicates=m, seed=42)
    assert est.center == pytest.approx(10.0, abs=1e-9)
    assert est.center_method == "enumeration"
    for t, emp in zip(est.t_grid, est.empirical):
        exact = oracles.binom_two_sided_tail(n, 10, t)
        se = math.sqrt(exact * (1.0 - exact) / m)
        assert abs(emp - exact) <= 3.0 * se
    # subgaussian bound: never violated beyond 2 SE
    assert est.violations() == []
    # worked spot value: deviation 8 has bound 2 exp(-64 / (2 * 5))
    spot = empirical_tail(spec, f, sigma2, t_grid=[8.0], replicates=m, seed=42)
    assert spot.bound[0] == pytest.approx(2.0 * math.exp(-6.4), abs=0)
    assert spot.empirical[0] <= spot.bound[0] + 2 * spot.standard_errors[0]


def test_contractive_chain_tail_respects_certificate():
    spec = homogeneous_chain(TWO_STATE, 10, initial=[0.5, 0.5])
    report = certify(spec, LipschitzWeights.ones(10), "contractive")
    f = hamming_weight(spec)
    est = empirical_tail(spec, f, report.sigma2_opnorm, replicates=2 * 10**4, seed=3)
    assert est.violations() == []


def test_tail_determinism_and_chunk_independence():
    spec = homogeneous_chain(TWO_STATE, 8, initial=[0.5, 0.5])
    f = hamming_weight(spec)
    kwargs = dict(sigma2=4.0, t_grid=[1.0, 2.0, 3.0], replicates=5000, seed=11)
    a = empirical_tail(spec, f, **kwargs)
    b = empirical_tail(spec, f, **kwargs)
    c = empirical_tail(spec, f, **kwargs, chunks=7)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(c.to_dict(), sort_keys=True)
    assert a.to_csv() == c.to_csv()


@pytest.mark.parametrize("estimator", [empirical_tail, empirical_mgf])
@pytest.mark.parametrize("sigma2", [math.nan, math.inf, 0.0, -1.0])
def test_estimators_reject_a_sigma2_that_is_not_finite_and_positive(estimator, sigma2):
    spec = fair_product_chain(4)
    with pytest.raises(ValidationError, match="sigma2"):
        estimator(spec, hamming_weight(spec), sigma2, replicates=2000)


def test_tail_rejects_bad_inputs():
    spec = fair_product_chain(4)
    f = hamming_weight(spec)
    with pytest.raises(ValidationError, match="replicates"):
        empirical_tail(spec, f, 1.0, replicates=10)
    for t in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="grid"):
            empirical_tail(spec, f, 1.0, t_grid=[t, 1.0], replicates=2000)


def test_mgf_rejects_bad_grids():
    spec = fair_product_chain(4)
    f = hamming_weight(spec)
    for grid in ([], [math.nan], [0.1, math.inf], [-math.inf, 0.1]):
        with pytest.raises(ValidationError, match="grid"):
            empirical_mgf(spec, f, 1.0, lambda_grid=grid, replicates=2000)


def _tail_mc_chain(rng):
    """4 states, 24 coordinates: the shape of the benchmark's tail workload."""
    return chain_from_dict({"coord_sizes": [4] * 24, "initial": [0.25] * 4,
                            "kernels": rng.dirichlet(np.ones(4), size=(23, 4)).tolist()})


def test_pilot_memory_is_bounded(rng, peak_mb):
    # drawing the 10^6-replicate pilot at once takes about 412 MB here
    spec = _tail_mc_chain(rng)
    weights = rng.uniform(0.5, 1.5, spec.n)
    peak = peak_mb(lambda: empirical_tail(
        spec, lambda states: (states == 1) @ weights, 6.0, replicates=1000, seed=3))
    assert peak < 64.0


def test_sup_value_memory_is_bounded(rng, peak_mb):
    # drawing all replicates at once takes about 156 MB here
    mdp = random_mdp(rng, n_actions=1, horizon=30)
    pc = enumerate_policies(3, 1)
    peak = peak_mb(lambda: empirical_sup_value(mdp, pc, replicates=3 * 10**5, seed=2))
    assert peak < 32.0


def test_block_boundaries_do_not_change_results(rng, monkeypatch):
    spec = random_chain(rng, n=5, max_size=3)
    mdp = random_mdp(rng, horizon=5)
    pc = enumerate_policies(3, 2)

    def run():
        return (empirical_tail(spec, lambda s: s.sum(axis=1) * 0.7, 2.0,
                               replicates=1000, seed=5, chunks=3).to_dict(),
                empirical_sup_value(mdp, pc, replicates=1000, seed=5, chunks=2).to_dict())

    whole = run()
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 97)
    assert run() == whole


def test_pilot_memory_does_not_grow_with_the_pilot(rng, monkeypatch, peak_mb):
    # a pilot that kept its values held 1.5 MB more at 2 * 10^5 replicates
    spec = _tail_mc_chain(rng)
    weights = rng.uniform(0.5, 1.5, spec.n)
    peaks = []
    for pilot in (10**4, 2 * 10**5):
        monkeypatch.setattr(verify, "PILOT_REPLICATES", pilot)
        peaks.append(peak_mb(lambda: empirical_tail(
            spec, lambda states: (states == 1) @ weights, 6.0, replicates=1000, seed=3)))
    assert peaks[1] - peaks[0] < 0.25


@pytest.mark.parametrize("kind", ["callable", "additive"])
@pytest.mark.parametrize("estimator", [empirical_tail, empirical_mgf])
def test_estimator_memory_does_not_grow_with_the_replicates(rng, monkeypatch, peak_mb,
                                                           estimator, kind):
    # keeping one float per replicate held about 1.5 MB more at 2 * 10^5 replicates
    spec = _tail_mc_chain(rng)
    weights = rng.uniform(0.5, 1.5, spec.n)
    if kind == "callable":
        f = lambda states: (states == 1) @ weights  # noqa: E731
        monkeypatch.setattr(verify, "PILOT_REPLICATES", 10**4)  # the pilot is tested above
    else:
        f = AdditiveFunction(np.outer(weights, [0.0, 1.0, 0.0, 0.0]))
    peaks = [peak_mb(lambda: estimator(spec, f, 6.0, replicates=m, seed=3))
             for m in (10**4, 2 * 10**5)]
    assert peaks[1] - peaks[0] < 0.25, peaks


def test_sup_value_memory_does_not_grow_with_the_replicates(rng, monkeypatch, peak_mb):
    # blocks of 512 replicates, so both runs hold a block's arrays while the
    # next block's are made, as every run of more than two blocks does
    monkeypatch.setattr(verify, "SUP_BLOCK_ELEMENTS", 1 << 12)
    mdp = random_mdp(rng, horizon=6)
    pc = enumerate_policies(3, 2)
    peaks = [peak_mb(lambda: empirical_sup_value(mdp, pc, replicates=m, seed=3))
             for m in (10**4, 2 * 10**5)]
    assert peaks[1] - peaks[0] < 0.25, peaks


BUDGETS = [1, 7, verify.SAMPLE_ELEMENTS]


@pytest.mark.parametrize("budget", BUDGETS)
def test_reused_buffers_sample_bitwise_the_one_shot_sampler(rng, monkeypatch, budget):
    monkeypatch.setattr(verify, "SAMPLE_ELEMENTS", budget)
    spec = chain_from_dict({"coord_sizes": [3, 1, 4, 2], "initial": [0.5, 0.0, 0.5],
                            "kernels": [[[1.0]] * 3, [[0.25, 0.0, 0.25, 0.5]],
                                        rng.dirichlet(np.ones(2), size=4).tolist()]})
    blocks, where = [], set()

    def f(states):
        blocks.append(states.copy())
        where.add(states.__array_interface__["data"][0])
        return states.sum(axis=1).astype(float)

    np.concatenate(list(verify._value_blocks(f, spec, 9, chunk_ranges(1000, 3))))
    one_shot = trajectories_from_uniforms(spec, uniform_matrix(9, 1000, spec.n))
    assert np.concatenate(blocks).tobytes() == one_shot.tobytes()
    width = max(1, min(verify.SAMPLE_BLOCK, budget // spec.n))
    assert max(map(len, blocks)) == min(width, 334)
    assert len(where) == 1  # every block in the same buffers


@pytest.mark.parametrize("budget", BUDGETS)
def test_pilot_center_depends_on_no_block_size_and_no_chunks(rng, monkeypatch, budget):
    monkeypatch.setattr(verify, "SAMPLE_ELEMENTS", budget)
    monkeypatch.setattr(verify, "PILOT_REPLICATES", 5000)  # one whole leaf and part of one
    spec = random_chain(rng, n=3, max_size=4)
    weights = np.array([0.3, 1.1, 0.7])

    def f(states):
        return (states == 1) @ weights

    # the reference: np.sum of each leaf of the one-shot values, math.fsum of those sums
    values = f(trajectories_from_uniforms(spec, uniform_matrix(2**64 + 4, 5000, spec.n)))
    leaves = [float(np.sum(values[a:a + verify.PILOT_LEAF].copy()))
              for a in range(0, values.size, verify.PILOT_LEAF)]
    want = math.fsum(leaves) / 5000
    for chunks in (1, 2, 3):
        est = empirical_tail(spec, f, 2.0, replicates=1000, seed=4, chunks=chunks)
        assert est.center.hex() == want.hex(), chunks
        assert est.center_method == "pilot(5000)"


def _within_ulps(got: float, want: float, scale: float, ulps: int = 4) -> bool:
    return abs(got - want) <= ulps * np.finfo(float).eps * scale


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("kind", ["callable", "additive"])
def test_streamed_statistics_match_the_array_formulas(rng, monkeypatch, budget, kind):
    # 5000 replicates: one whole leaf and part of one, blocks of 1 replicate and up
    monkeypatch.setattr(verify, "SAMPLE_ELEMENTS", budget)
    monkeypatch.setattr(verify, "PILOT_REPLICATES", 5000)
    m, seed = 5000, 6
    spec = random_chain(rng, n=3, max_size=4)
    g = rng.normal(size=(3, 4))
    if kind == "callable":
        def f(states):
            return g[np.arange(3), states].sum(axis=1)
    else:
        f = AdditiveFunction(g)
    states = trajectories_from_uniforms(spec, uniform_matrix(seed, m, spec.n))
    values = g[np.arange(3), states].sum(axis=1)
    t_grid, lambda_grid = [0.0, 0.3, 1.0, 2.5], [-0.8, -0.1, 0.0, 0.4, 1.5]
    for chunks in (1, 2, 3):
        tail = empirical_tail(spec, f, 2.0, t_grid=t_grid, replicates=m, seed=seed,
                              chunks=chunks)
        assert tail.empirical.tobytes() == oracles.tail_frequencies(
            values, tail.center, t_grid).tobytes()
        mgf = empirical_mgf(spec, f, 2.0, lambda_grid=lambda_grid, replicates=m, seed=seed,
                            chunks=chunks)
        assert mgf.center == tail.center
        for i, lam in enumerate(lambda_grid):
            w = np.exp(lam * (values - mgf.center))
            # bit for bit the leaf formula on the whole array, within a few ulps
            # of two correctly rounded passes
            assert (mgf.empirical[i], mgf.standard_errors[i]) == oracles.leaf_mean_and_se(w)
            mean, se = oracles.two_pass_mean_and_se(w)
            assert _within_ulps(mgf.empirical[i], mean, mean), (chunks, lam)
            assert _within_ulps(mgf.standard_errors[i], se, se), (chunks, lam)


def test_sup_statistics_lie_within_a_few_ulps_of_two_passes(rng, monkeypatch):
    mdp = random_mdp(rng, horizon=5)
    pc = enumerate_policies(3, 2)
    sups = oracles.suprema_per_policy(mdp, pc, 9000, seed=17)
    mean, se = oracles.two_pass_mean_and_se(sups)
    scale = math.fsum(np.abs(sups)) / sups.size
    for block in (97, verify.SAMPLE_BLOCK):
        monkeypatch.setattr(verify, "SAMPLE_BLOCK", block)
        for chunks in (1, 2, 3):
            est = empirical_sup_value(mdp, pc, replicates=9000, seed=17, chunks=chunks)
            assert _within_ulps(est.estimate, mean, scale), (block, chunks)
            assert _within_ulps(est.standard_error, se, se), (block, chunks)


def test_mgf_overflow_guard_raises_before_any_warning():
    # |lambda| * max |f - E f| = 3000 > 700: exp would overflow past 709
    spec = fair_product_chain(6)

    def f(states):
        return 1000.0 * states.sum(axis=1)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="lambda grid risks overflow"):
            empirical_mgf(spec, f, 1.0, lambda_grid=[0.1, 1.0], replicates=2000, seed=3)


def test_a_pilot_whose_values_sum_past_the_float_range_is_rejected(monkeypatch):
    # finite values, but a leaf of them sums to infinity: the center would be infinite
    monkeypatch.setattr(verify, "PILOT_REPLICATES", 5000)
    spec = fair_product_chain(3)
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="not finite"):
        empirical_tail(spec, lambda s: np.full(len(s), 1e305), 1.0, replicates=1000, seed=1)


def test_an_mgf_whose_sum_passes_the_float_range_is_infinite():
    # lambda * max |f - E f| = 700 passes the guard, and every leaf sum is
    # finite, but 10^5 replicates, half of them e^700, sum past 1.8e308
    spec = fair_product_chain(2)
    f = TabularFunction(np.array([-1.0, -1.0, 1.0, 1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        est = empirical_mgf(spec, f, 1.0, lambda_grid=[700.0], replicates=10**5, seed=2)
    assert est.center == 0.0
    assert est.empirical[0] == math.inf


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_estimators_reject_a_seed_outside_its_range(rng, seed):
    # 2^64 and above would reuse the pilot key space: seed + 2^64 is a pilot key
    spec = fair_product_chain(3)
    for estimator in (empirical_tail, empirical_mgf):
        with pytest.raises(ValidationError, match=r"seed = .* must lie in \[0, 2\^64\)"):
            estimator(spec, hamming_weight(spec), 1.0, replicates=1000, seed=seed)
    with pytest.raises(ValidationError, match="seed"):
        empirical_sup_value(random_mdp(rng), enumerate_policies(3, 2), replicates=10, seed=seed)


def test_largest_seed_is_accepted(rng):
    spec = fair_product_chain(3)
    assert empirical_tail(spec, hamming_weight(spec), 1.0, replicates=1000,
                          seed=2**64 - 1).seed == 2**64 - 1
    assert empirical_sup_value(random_mdp(rng), enumerate_policies(3, 2), replicates=10,
                               seed=2**64 - 1).replicates == 10


def test_callable_function_uses_pilot_centering():
    spec = fair_product_chain(4)

    def weight(states):
        return states.sum(axis=1).astype(float)

    est = empirical_tail(spec, weight, 1.0, t_grid=[1.0], replicates=2000, seed=5)
    assert est.center_method.startswith("pilot(")
    assert est.center == pytest.approx(2.0, abs=0.01)  # E[Binomial(4, 1/2)] = 2


BAD_CALLABLES = {
    "one value short": lambda s: s.sum(axis=1)[:-1].astype(float),
    "the state matrix": lambda s: s.astype(float),
    "NaN": lambda s: np.full(len(s), math.nan),
    "an infinity": lambda s: np.where(s[:, 0] == 1, math.inf, 1.0),
    "a scalar": lambda s: 1.0,
    "strings": lambda s: np.array(["a"] * len(s)),
}


@pytest.mark.parametrize("estimator", [empirical_tail, empirical_mgf])
@pytest.mark.parametrize("name", list(BAD_CALLABLES))
def test_a_callable_must_give_one_finite_value_per_trajectory(estimator, name):
    spec = fair_product_chain(6)
    with pytest.raises(ValidationError, match="function"):
        estimator(spec, BAD_CALLABLES[name], 1.0, replicates=2000, seed=1)


# ---------------------------------------------------------------------------
# empirical MGF


def test_mgf_at_lambda_zero_is_one():
    spec = fair_product_chain(6)
    f = hamming_weight(spec)
    est = empirical_mgf(spec, f, sigma2=1.5, lambda_grid=[0.0], replicates=2000, seed=2)
    assert est.empirical[0] == 1.0
    assert est.bound[0] == 1.0


def test_mgf_of_constant_function():
    spec = fair_product_chain(5)
    f = TabularFunction(np.full(spec.joint_size(), -2.0))
    est = empirical_mgf(spec, f, sigma2=1.0, lambda_grid=[-0.5, 0.1, 0.7], replicates=2000, seed=2)
    assert_allclose(est.empirical, 1.0, atol=0)
    assert np.all(est.bound >= 1.0)


def test_mgf_product_chain_against_binomial_oracle():
    n, m = 20, 10**5
    spec = fair_product_chain(n)
    f = hamming_weight(spec, cap=WIDE_CAP)
    lam = 0.1
    est = empirical_mgf(spec, f, sigma2=5.0, lambda_grid=[lam], replicates=m, seed=42)
    exact = math.cosh(lam / 2.0) ** n  # centered binomial MGF
    assert abs(est.empirical[0] - exact) <= 3.0 * est.standard_errors[0]
    assert est.empirical[0] <= est.bound[0] + 2.0 * est.standard_errors[0]
    assert exact <= est.bound[0]  # the envelope really does dominate


def test_jackknife_matches_closed_form(rng):
    # the MGF's standard error is s / sqrt(m) from merged leaf moments: the
    # jackknife standard error of the mean, in closed form
    w = rng.random(500) * 3.0
    moments = verify._LeafMoments()
    moments.add(w)
    jackknife = oracles.jackknife_se_of_mean(w)
    assert jackknife == pytest.approx(float(np.std(w, ddof=1) / math.sqrt(w.size)), rel=1e-10)
    assert moments.standard_errors()[0] == pytest.approx(jackknife, rel=1e-10)


def test_se_formulas_validated_on_binomial_case():
    # both SE estimators against closed-form binomial answers on the fair
    # product chain: reported tail SE vs sqrt(p(1-p)/M) at the exact p, and
    # jackknife MGF SE vs the exact MGF standard deviation
    n, m, lam = 20, 10**5, 0.1
    spec = fair_product_chain(n)
    f = hamming_weight(spec, cap=WIDE_CAP)
    est = empirical_tail(spec, f, 5.0, t_grid=[2.0, 3.0], replicates=m, seed=42)
    for t, se in zip(est.t_grid, est.standard_errors):
        p = oracles.binom_two_sided_tail(n, 10, t)
        assert se == pytest.approx(math.sqrt(p * (1 - p) / m), rel=0.15)
    mgf = empirical_mgf(spec, f, 5.0, lambda_grid=[lam], replicates=m, seed=42)
    second = math.cosh(lam) ** n  # E exp(2 lam (W - n/2)) at p = 1/2
    first = math.cosh(lam / 2.0) ** n
    exact_se = math.sqrt((second - first**2) / m)
    assert mgf.standard_errors[0] == pytest.approx(exact_se, rel=0.15)


def test_mgf_rejects_overflow_grid():
    spec = fair_product_chain(8)
    f = TabularFunction(1e6 * np.arange(spec.joint_size(), dtype=float))
    with pytest.raises(ValidationError, match="overflow"):
        empirical_mgf(spec, f, sigma2=1.0, lambda_grid=[1.0], replicates=2000, seed=1)


def test_mgf_overflow_guard_reads_the_range_of_a_function():
    # f ranges over [0, 8] but the chain stays at 0, so E f = 0: |lambda| * 8 > 700
    # is refused, for the table and its additive form alike, and 700 is not
    spec = homogeneous_chain([[1.0, 0.0], [0.0, 1.0]], 8, initial=[1.0, 0.0])
    g = np.tile([0.0, 1.0], (8, 1))
    forms = (AdditiveFunction(g), TabularFunction.from_vectorized(
        spec, lambda grids: sum(g[i][x] for i, x in enumerate(grids))))
    for f in forms:
        est = empirical_mgf(spec, f, 1e-3, lambda_grid=[87.5], replicates=1000, seed=1)
        assert est.center == 0.0 and est.empirical.tolist() == [1.0]
        with pytest.raises(ValidationError, match="overflow: .* = 700.0000000000001 > 700"):
            empirical_mgf(spec, f, 1e-3, lambda_grid=[-np.nextafter(87.5, 100.0)],
                          replicates=1000, seed=1)


# ---------------------------------------------------------------------------
# empirical sup over policy classes


def test_singleton_class_sup_is_centered_noise(rng):
    mdp = random_mdp(rng, horizon=6)
    pc = PolicyClass((Policy((0, 1, 0)),), HammingMetric())
    est = empirical_sup_value(mdp, pc, replicates=4000, seed=9)
    assert abs(est.estimate) <= 2.0 * est.standard_error


def test_single_action_mdp_behaves_like_singleton(rng):
    mdp = random_mdp(rng, n_actions=1, horizon=5)
    pc = enumerate_policies(3, 1)
    assert len(pc) == 1
    est = empirical_sup_value(mdp, pc, replicates=4000, seed=9)
    assert abs(est.estimate) <= 2.0 * est.standard_error


def test_sup_value_is_order_invariant_and_chunk_independent(rng):
    mdp = random_mdp(rng, horizon=6)
    pc = enumerate_policies(3, 2)
    reversed_pc = PolicyClass(tuple(reversed(pc.policies)), HammingMetric())
    a = empirical_sup_value(mdp, pc, replicates=3000, seed=7)
    b = empirical_sup_value(mdp, reversed_pc, replicates=3000, seed=7)
    c = empirical_sup_value(mdp, pc, replicates=3000, seed=7, chunks=5)
    assert a.estimate == b.estimate
    assert a.standard_error == b.standard_error
    assert a.estimate == c.estimate and a.standard_error == c.standard_error


def test_sup_value_dominated_by_maximal_bound(rng):
    mdp = random_mdp(rng, horizon=6)
    pc = enumerate_policies(3, 2)
    sigma2_max = max(
        certify(induced_chain(mdp, pi), LipschitzWeights(mdp.stage_caps),
                "contractive").sigma2_opnorm
        for pi in pc.policies
    )
    est = empirical_sup_value(mdp, pc, replicates=4000, seed=13)
    assert est.estimate <= maximal_bound(sigma2_max, len(pc)) + 2.0 * est.standard_error


def test_sup_value_respects_policy_cap(rng):
    mdp = random_mdp(rng)
    pc = enumerate_policies(3, 2)
    from chainconc import EnumerationCapError

    with pytest.raises(EnumerationCapError):
        empirical_sup_value(mdp, pc, replicates=2000, seed=1, cap=4)


# ---------------------------------------------------------------------------
# the draw thread: only Philox fills run off the calling thread


def _spy_threads(monkeypatch, paths) -> dict:
    """Wrap each chainconc function of paths wherever it is bound, as the traced
    benchmark does; returns {path: ids of the threads it ran on}."""
    seen = defaultdict(set)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "chainconc" or n.startswith("chainconc."))]
    for path in paths:
        module, *rest = path.split(".")
        owner = importlib.import_module(f"chainconc.{module}")
        for part in rest[:-1]:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, rest[-1])
        fn = raw.__func__ if isinstance(raw, classmethod) else raw

        def spy(*args, _fn=fn, _path=path, **kwargs):
            seen[_path].add(threading.get_ident())
            return _fn(*args, **kwargs)

        if isinstance(raw, classmethod):
            monkeypatch.setattr(owner, rest[-1], classmethod(spy))
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    monkeypatch.setattr(mod, key, spy)
    return seen


def test_sampling_and_f_run_on_the_calling_thread(rng, monkeypatch):
    # small blocks and pilot so that every stream runs many blocks ahead
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 300)
    monkeypatch.setattr(verify, "PILOT_REPLICATES", 5000)
    seen = _spy_threads(monkeypatch, traced_targets() + ("rng._fill",))
    spec = random_chain(rng, n=5)

    def f(states):
        seen["f"].add(threading.get_ident())
        return states.sum(axis=1).astype(float)

    table = TabularFunction.from_vectorized(spec, lambda grids: sum(g for g in grids))
    verify.empirical_tail(spec, f, 2.0, replicates=2000, seed=3, chunks=3)
    verify.empirical_mgf(spec, f, 2.0, replicates=2000, seed=4)
    verify.empirical_mgf(spec, table, 2.0, replicates=2000, seed=4)
    verify.empirical_sup_value(random_mdp(rng), enumerate_policies(3, 2), replicates=1000,
                               seed=5, chunks=2)
    here = threading.get_ident()
    drawn_on = seen.pop("rng._fill")
    assert drawn_on and here not in drawn_on  # the spies see other threads
    assert {"f", "chain.trajectories_from_uniforms", "verify.empirical_tail",
            "verify.empirical_mgf", "verify.empirical_sup_value"} <= set(seen)
    assert {path: ids for path, ids in seen.items() if ids != {here}} == {}


def test_no_draw_thread_outlives_a_call(rng, monkeypatch):
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", 300)
    monkeypatch.setattr(verify, "PILOT_REPLICATES", 5000)
    spec = random_chain(rng, n=4)
    calls = 0

    def flaky(states):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("f failed mid-stream")
        return states.sum(axis=1).astype(float)

    before = threading.active_count()
    empirical_tail(spec, lambda s: s.sum(axis=1).astype(float), 2.0, replicates=1000, seed=1)
    empirical_sup_value(random_mdp(rng), enumerate_policies(3, 2), replicates=1000, seed=1)
    assert threading.active_count() == before
    for estimator in (empirical_tail, empirical_mgf):
        calls = 0
        try:
            estimator(spec, flaky, 2.0, replicates=1000, seed=2)
        except RuntimeError as exc:  # its traceback holds the frames of the stream
            assert "mid-stream" in str(exc)
            assert threading.active_count() == before
        else:
            pytest.fail("f raised nothing")
    with pytest.raises(ValueError):  # a draw that fails on the worker fails the caller
        list(verify.uniform_blocks(-1, 3, [(0, 5), (5, 10)]))
    assert threading.active_count() == before
