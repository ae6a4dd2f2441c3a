"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criteria carry hard runtime budgets and the exact tolerances they were
specified with; a bound violated beyond Monte Carlo error fails the build.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from chainconc import (
    Distribution,
    LipschitzWeights,
    TabularFunction,
    certify,
    conditional_expectation_tables,
    dobrushin_coefficient,
    dudley_bound,
    empirical_sup_value,
    empirical_tail,
    enumerate_policies,
    finite_state_bound,
    gamma_contractive,
    goldstein_coupling,
    homogeneous_chain,
    induced_chain,
    martingale_brackets,
    martingale_differences,
    maximal_bound,
    mixing_time,
    t_step_pair_tv,
    tv_distance,
    wasserstein_matrix_tv,
)
from chainconc.rl import MdpSpec
from conftest import random_chain, random_distribution

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]
WIDE_CAP = 2**21


class timer:
    def __init__(self, budget: float):
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeded budget {self.budget}s"
            )
        return False


def announce(criterion: int, description: str, t: timer) -> None:
    print(f"\n[criterion {criterion}] PASS ({t.elapsed:.2f}s): {description}")


def demo_chain(n=20):
    return homogeneous_chain(TWO_STATE, n, initial=[0.5, 0.5])


def hamming_weight(spec, cap=None):
    return TabularFunction.from_vectorized(
        spec, lambda grids: sum((g == 1).astype(float) for g in grids), cap=cap
    )


def oracle_joint_probs(spec):
    """Per-trajectory probability products over the flattened joint space."""
    grids = oracles.coordinate_grid(spec.coord_sizes)
    p = spec.initial.probs[grids[0]].astype(float).copy()
    for c in range(spec.n - 1):
        p = p * spec.kernels[c].rows[grids[c], grids[c + 1]]
    return p


def test_criterion_1_goldstein_maximality():
    rng = np.random.default_rng(1001)
    with timer(5.0) as t:
        for _ in range(1000):
            size = int(rng.integers(1, 9))
            p = Distribution(random_distribution(rng, size, floor=0.0))
            q = Distribution(random_distribution(rng, size, floor=0.0))
            table = goldstein_coupling(p, q)
            assert np.abs(table.row_marginal() - p.probs).max() <= 1e-12
            assert np.abs(table.col_marginal() - q.probs).max() <= 1e-12
            assert abs(table.off_diagonal_mass() - tv_distance(p, q)) <= 1e-12
    announce(1, "1000 couplings reproduce marginals and achieve TV to 1e-12", t)


def test_criterion_2_telescoping_and_bracketing():
    rng = np.random.default_rng(1002)
    with timer(60.0) as t:
        for _ in range(50):
            spec = random_chain(rng, n=int(rng.integers(2, 6)), max_size=3)
            probs = oracle_joint_probs(spec)
            for _ in range(20):
                f = TabularFunction(rng.normal(size=spec.joint_size()))
                tables = conditional_expectation_tables(f, spec)
                # sum of increments over every trajectory, from the same
                # prefix tables the public op reads
                total = np.zeros(spec.coord_sizes)
                for i in range(spec.n):
                    shape_hi = spec.coord_sizes[: i + 1] + (1,) * (spec.n - i - 1)
                    shape_lo = spec.coord_sizes[:i] + (1,) * (spec.n - i)
                    total = total + tables[i + 1].reshape(shape_hi) - tables[i].reshape(shape_lo)
                rhs = f.values - float(probs @ f.values)  # independent centering
                assert np.abs(total.ravel() - rhs).max() <= 1e-10
                for i in range(spec.n):
                    br = martingale_brackets(f, spec, i)
                    assert br.width <= br.oscillation_bound + 1e-12
            # pin the public per-trajectory op to the table-based identity
            f = TabularFunction(rng.normal(size=spec.joint_size()))
            for _ in range(3):
                traj = tuple(int(rng.integers(0, s)) for s in spec.coord_sizes)
                m = martingale_differences(f, spec, traj)
                rhs = f.at(spec, traj) - float(oracle_joint_probs(spec) @ f.values)
                assert abs(float(m.sum()) - rhs) <= 1e-10
    announce(2, "telescoping to 1e-10 and bracket widths within oscillation bounds "
                "on 50 chains x 20 functions", t)


def test_criterion_3_gamma_domination():
    rng = np.random.default_rng(1003)
    with timer(30.0) as t:
        for _ in range(10):
            spec = random_chain(rng, n=int(rng.integers(2, 7)), max_size=3)
            brute = wasserstein_matrix_tv(spec).entries
            thetas = [dobrushin_coefficient(k) for k in spec.kernels]
            for i in range(spec.n):
                for j in range(i + 1, spec.n):
                    assert brute[i, j] <= float(np.prod(thetas[i:j])) + 1e-12
        spec = demo_chain(3)
        g = wasserstein_matrix_tv(spec).entries
        k = np.asarray(TWO_STATE)
        tv1 = 0.5 * float(np.abs(k[0] - k[1]).sum())
        k2 = np.linalg.matrix_power(k, 2)
        tv2 = 0.5 * float(np.abs(k2[0] - k2[1]).sum())
        assert abs(g[0, 1] - 0.7) <= 1e-12 and abs(g[0, 1] - tv1) <= 1e-12
        assert abs(g[0, 2] - 0.49) <= 1e-12 and abs(g[0, 2] - tv2) <= 1e-12
    announce(3, "brute-force Gamma dominated by contraction products; "
                "demo entries 0.7 / 0.49 match the matrix-power oracle", t)


def test_criterion_4_mixing_time():
    with timer(1.0) as t:
        spec = demo_chain(20)
        assert mixing_time(spec, 0.25) == 4
        assert t_step_pair_tv(spec, 0, 3) > 0.25 >= t_step_pair_tv(spec, 0, 4)
        assert abs(t_step_pair_tv(spec, 0, 4) - 0.7**4) <= 1e-12
    announce(4, "tau(0.25) = 4 on the demo chain, bracketed by 0.7^3 > 0.25 >= 0.7^4", t)


def test_criterion_5_subgaussian_tail_non_violation():
    with timer(60.0) as t:
        spec = demo_chain(20)
        report = certify(spec, LipschitzWeights.ones(20), "contractive", convention="opnorm")
        f = hamming_weight(spec, cap=WIDE_CAP)
        est = empirical_tail(spec, f, report.sigma2_opnorm, replicates=10**5, seed=42)
        assert est.center_method == "enumeration"
        assert est.violations() == [], (
            f"tail bound violated at t = {[float(est.t_grid[i]) for i in est.violations()]}"
        )
        # independent product-chain control against exact binomial tails
        control = homogeneous_chain([[0.5, 0.5], [0.5, 0.5]], 20)
        fc = hamming_weight(control, cap=WIDE_CAP)
        ctrl = empirical_tail(control, fc, 5.0, replicates=10**5, seed=42)
        assert ctrl.center == pytest.approx(10.0, abs=1e-9)
        for tt, emp in zip(ctrl.t_grid, ctrl.empirical):
            exact = oracles.binom_two_sided_tail(20, 10, tt)
            se = math.sqrt(exact * (1.0 - exact) / ctrl.replicates)
            assert abs(emp - exact) <= 3.0 * se
        assert ctrl.violations() == []
    announce(5, "no tail violation beyond 2 SE on the certified demo chain; "
                "product-chain control within 3 SE of exact binomial tails", t)


def acceptance_mdp():
    rng = np.random.default_rng(1006)
    trans = rng.random((3, 2, 3)) + 0.1
    trans /= trans.sum(axis=2, keepdims=True)
    rewards = rng.random((3, 2))
    initial = np.full(3, 1.0 / 3.0)
    return MdpSpec.build(3, 2, 10, trans, rewards, initial)


def per_policy_reports(mdp, pc):
    return [
        certify(induced_chain(mdp, pi), LipschitzWeights(mdp.stage_caps), "contractive")
        for pi in pc.policies
    ]


def test_criterion_6_maximal_inequality():
    with timer(120.0) as t:
        mdp = acceptance_mdp()
        pc = enumerate_policies(3, 2)
        assert len(pc) == 8
        reports = per_policy_reports(mdp, pc)
        sigma2_max = max(r.sigma2_opnorm for r in reports)
        est = empirical_sup_value(mdp, pc, replicates=10**4, seed=42)
        bound = maximal_bound(sigma2_max, 8)
        assert bound == pytest.approx(math.sqrt(2 * sigma2_max * math.log(8)), rel=1e-12)
        assert est.estimate <= bound + 2.0 * est.standard_error, (
            f"E sup estimate {est.estimate} exceeds {bound} + 2 SE"
        )
        chaining = dudley_bound(pc, scale=1.0)
        assert est.estimate <= chaining + 2.0 * est.standard_error
    announce(6, "empirical E sup dominated by the maximal bound and by the "
                "Dudley staircase under the Hamming metric", t)


def test_criterion_7_convention_ordering():
    rng = np.random.default_rng(1007)
    with timer(30.0) as t:
        reports = []
        for _ in range(8):
            spec = random_chain(rng, n=int(rng.integers(2, 6)), max_size=3)
            reports.append(certify(spec, LipschitzWeights(rng.random(spec.n) + 0.2),
                                   "brute_force"))
            reports.append(certify(spec, LipschitzWeights.ones(spec.n), "contractive"))
        reports.append(certify(demo_chain(20), LipschitzWeights.ones(20), "contractive"))
        reports.append(certify(demo_chain(20), LipschitzWeights.ones(20), "ergodic", eps=0.25))
        mdp = acceptance_mdp()
        pc = enumerate_policies(3, 2)
        reports.extend(per_policy_reports(mdp, pc))
        for r in reports:
            assert r.sigma2_exact <= r.sigma2_opnorm + 1e-15
            assert r.sigma2_opnorm == 0.25 * r.sigma2_paper  # bitwise, same norm
    announce(7, f"sigma2_exact <= sigma2_opnorm = sigma2_paper/4 (bitwise) on "
                f"{len(reports)} generated certificates", t)


def test_criterion_8_determinism_and_parallel_independence():
    with timer(120.0) as t:
        spec = demo_chain(20)
        report = certify(spec, LipschitzWeights.ones(20), "contractive")
        f = hamming_weight(spec, cap=WIDE_CAP)

        def tail_artifacts(chunks):
            est = empirical_tail(spec, f, report.sigma2_opnorm, replicates=10**5, seed=42,
                                 chunks=chunks)
            return json.dumps(est.to_dict(), sort_keys=True), est.to_csv()

        first = tail_artifacts(1)
        assert tail_artifacts(1) == first, "re-run with the same seed changed the report"
        assert tail_artifacts(8) == first, "chunked execution changed the report"

        mdp = acceptance_mdp()
        pc = enumerate_policies(3, 2)

        def sup_artifacts(chunks):
            est = empirical_sup_value(mdp, pc, replicates=10**4, seed=42, chunks=chunks)
            return json.dumps(est.to_dict(), sort_keys=True)

        first_sup = sup_artifacts(1)
        assert sup_artifacts(1) == first_sup
        assert sup_artifacts(6) == first_sup
    announce(8, "criteria 5 and 6 reports are byte-identical across reruns and "
                "across parallelism degrees", t)


def test_criterion_9_formula_spot_checks():
    with timer(5.0) as t:
        got = finite_state_bound(100, 10, 4, 2, "max_mix")
        assert got == pytest.approx(math.sqrt(1000 * math.log(8)), rel=1e-9)
        assert maximal_bound(1.0, 8) == pytest.approx(math.sqrt(2 * math.log(8)), rel=1e-9)
        assert maximal_bound(1.0, 8) == pytest.approx(2.0393, abs=1e-4)
        g = gamma_contractive([0.5, 0.5])
        assert_allclose(
            g.entries, [[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]], rtol=0, atol=0
        )
    announce(9, "closed-form spot checks at rel tol 1e-9; contractive matrix exact", t)
