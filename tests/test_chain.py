import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from chainconc import (
    ChainSpec,
    Distribution,
    EnumerationCapError,
    Kernel,
    LipschitzWeights,
    ValidationError,
    certify,
    chain_from_dict,
    conditional_law,
    dobrushin_coefficient,
    homogeneous_chain,
    marginal,
    mixing_time,
    prefix_probability,
    t_step_pair_tv,
    tv_distance,
    validate_chain,
    wasserstein_matrix_tv,
)
from chainconc.chain import (
    block_law_given_coordinate,
    dobrushin_coefficients,
    forward_law,
    trajectories_from_uniforms,
)
from chainconc.concentration import build_gamma
from chainconc.rng import uniform_blocks, uniform_matrix
from conftest import random_chain

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]


def dist(*probs):
    return Distribution.from_array(list(probs))


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_exact_stochastic_chain():
    spec = ChainSpec((2, 2), dist(0.5, 0.5), (Kernel(np.array([[0.5, 0.5], [0.5, 0.5]])),))
    out = validate_chain(spec)
    assert out.coord_sizes == (2, 2)
    assert_allclose(out.kernels[0].rows.sum(axis=1), 1.0, atol=0)


def test_validate_rejects_bad_row_sum_naming_kernel():
    spec = ChainSpec((2, 2), dist(0.5, 0.5), (Kernel(np.array([[1.0, 0.5], [0.5, 0.5]])),))
    with pytest.raises(ValidationError, match="kernel 0"):
        validate_chain(spec)


def test_validate_renormalizes_within_tolerance():
    row = np.array([0.5, 0.5 + 1e-13])
    spec = ChainSpec((2, 2), dist(0.5, 0.5), (Kernel(np.stack([row, row])),))
    out = validate_chain(spec)
    assert_allclose(out.kernels[0].rows.sum(axis=1), 1.0, rtol=0, atol=0)


def test_validate_rejects_negative_entry():
    with pytest.raises(ValidationError, match="negative"):
        Distribution.from_array([1.1, -0.1])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_validate_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError, match="non-finite"):
        Distribution.from_array([0.5, bad])
    with pytest.raises(ValidationError, match="non-finite"):
        Kernel.from_array([[0.5, 0.5], [bad, 1.0]])


def test_validate_rejects_shape_mismatch():
    spec = ChainSpec((2, 3), dist(0.5, 0.5), (Kernel(np.eye(2)),))
    with pytest.raises(ValidationError, match="shape"):
        validate_chain(spec)


def test_chain_from_dict_homogeneous_shorthand():
    spec = chain_from_dict({"kernel": TWO_STATE, "n": 5})
    assert spec.n == 5
    assert len(spec.kernels) == 4
    assert_allclose(spec.initial.probs, [0.5, 0.5])  # uniform default
    explicit = chain_from_dict(
        {"coord_sizes": [2, 2], "initial": [1.0, 0.0], "kernels": [TWO_STATE]}
    )
    assert explicit.n == 2


def test_shorthand_is_bitwise_the_explicit_form():
    # each form normalises the kernel and the initial law once; normalising the
    # shorthand twice moved the bits of 77 of these 300 chains
    rng = np.random.default_rng(5)
    weights = LipschitzWeights.ones(12)
    for _ in range(300):
        size = int(rng.integers(2, 5))
        kernel = rng.dirichlet(np.ones(size), size=size).tolist()
        initial = rng.dirichlet(np.ones(size)).tolist()
        for given_initial in (True, False):
            short = chain_from_dict({"kernel": kernel, "n": 12,
                                     **({"initial": initial} if given_initial else {})})
            full = chain_from_dict({"coord_sizes": [size] * 12, "kernels": [kernel] * 11,
                                    "initial": initial if given_initial else [1.0 / size] * size})
            assert short.coord_sizes == full.coord_sizes
            assert np.array_equal(short.initial.probs, full.initial.probs)
            assert all(np.array_equal(a.rows, b.rows) for a, b in zip(short.kernels, full.kernels))
            reports = [json.dumps(certify(spec, weights, "contractive").to_dict(), sort_keys=True)
                       for spec in (short, full)]
            assert reports[0] == reports[1]


@pytest.mark.parametrize("kernel, message", [
    ([[1.5, -0.5], [0.0, 1.0]], "kernel: negative entry -0.5 at row 0, column 1"),
    ([[0.5, 0.5], [0.5, 0.6]], "kernel: row 1 sums to 1.1"),
    ([[0.5, 0.5]], "homogeneous kernel must be square"),
])
def test_shorthand_checks_its_kernel_at_n_1(kernel, message):
    # a one-coordinate chain has no kernel to validate, but its document still gave one
    for build in (lambda: homogeneous_chain(kernel, 1),
                  lambda: chain_from_dict({"kernel": kernel, "n": 1})):
        with pytest.raises(ValidationError, match=message):
            build()


# ---------------------------------------------------------------------------
# total variation distance


@pytest.mark.parametrize(
    "p, q, expected",
    [
        ((0.5, 0.5), (0.5, 0.5), 0.0),
        ((1.0, 0.0), (0.0, 1.0), 1.0),
        ((0.5, 0.5), (0.8, 0.2), 0.3),
    ],
)
def test_tv_distance_examples(p, q, expected):
    assert tv_distance(dist(*p), dist(*q)) == pytest.approx(expected, abs=1e-15)


def test_tv_distance_length_mismatch():
    with pytest.raises(ValidationError):
        tv_distance(dist(1.0), dist(0.5, 0.5))


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_tv_distance_is_a_metric(size, seed):
    rng = np.random.default_rng(seed)
    triple = [Distribution(v / v.sum()) for v in rng.random((3, size)) + 0.01]
    p, q, r = triple
    assert tv_distance(p, q) == tv_distance(q, p)
    assert 0.0 <= tv_distance(p, q) <= 1.0
    assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
    assert tv_distance(p, p) == 0.0


# ---------------------------------------------------------------------------
# Dobrushin coefficient


@pytest.mark.parametrize(
    "rows, expected",
    [
        (np.eye(2), 1.0),
        (np.array([[0.3, 0.7], [0.3, 0.7]]), 0.0),
        (np.array(TWO_STATE), 0.7),
    ],
)
def test_dobrushin_examples(rows, expected):
    assert dobrushin_coefficient(Kernel(rows)) == pytest.approx(expected, abs=1e-15)


# disjoint rows, the last one summing to 1 only up to rounding
ROUNDED_ROWS = [[0, 1, 0, 0], [1, 0, 0, 0],
                [0.8326773486759026, 0, 0.0014666839997370792, 0.16585596732436036],
                [0.01046876663088994, 0, 0.6976278806328194, 0.2919033527362907]]


def test_dobrushin_is_clipped_at_one():
    k = Kernel.from_array(ROUNDED_ROWS)
    assert 0.5 * float(np.abs(k.rows[0] - k.rows[3]).sum()) > 1.0
    assert dobrushin_coefficient(k) == 1.0
    spec = homogeneous_chain(ROUNDED_ROWS, 4)
    assert t_step_pair_tv(spec, 0, 1) == 1.0 == oracles.t_step_tv(spec, 0, 1)


def test_batched_dobrushin_is_the_pairwise_loop_per_matrix(rng):
    stack = rng.dirichlet(np.ones(4), size=(9, 3))
    stack[rng.random(stack.shape) < 0.3] = 0.0
    stack[4] = Kernel.from_array(ROUNDED_ROWS).rows[[0, 1, 3]]  # clipped at 1
    stack[5] = stack[5, 0]  # equal rows
    want = [min(1.0, max(0.5 * float(np.abs(a - b).sum()) for a in m for b in m)) for m in stack]
    assert dobrushin_coefficients(stack).tolist() == want
    assert [dobrushin_coefficient(Kernel(m)) for m in stack] == want
    assert want[4] == 1.0 and want[5] == 0.0
    assert dobrushin_coefficients(stack[:0]).shape == (0,)


@given(seed=st.integers(0, 2**32 - 1), matrices=st.integers(0, 4), rows=st.integers(1, 12),
       states=st.integers(1, 12), zeros=st.booleans(), split=st.booleans(),
       rounded=st.booleans())
@example(seed=0, matrices=3, rows=12, states=12, zeros=True, split=True, rounded=True)
@example(seed=1, matrices=2, rows=1, states=9, zeros=False, split=False, rounded=False)
def test_dobrushin_upper_pairs_are_bitwise_all_pairs(seed, matrices, rows, states, zeros,
                                                     split, rounded):
    rng = np.random.default_rng(seed)
    stack = rng.random((matrices, rows, states))
    if zeros:
        stack[rng.random(stack.shape) < 0.3] = 0.0
    if split:  # rows on disjoint halves of the states: distance 1, or 1 + 2^-52 by rounding
        stack[:, ::2, states // 2:] = 0.0
        stack[:, 1::2, :states // 2] = 0.0
    total = stack.sum(axis=-1, keepdims=True)
    stack /= np.where(total > 0, total, 1.0)
    if rounded and matrices and rows >= 2 and states >= 4:  # clipped at 1
        stack[0, :2] = 0.0
        stack[0, :2, :4] = Kernel.from_array(ROUNDED_ROWS).rows[[0, 3]]
    want = oracles.dobrushin_coefficients_all_pairs(stack)
    assert dobrushin_coefficients(stack).tobytes() == want.tobytes()
    if matrices:
        assert dobrushin_coefficients(stack[0]).tobytes() == want[0].tobytes()


def test_dobrushin_bounds_and_zero_iff_equal_rows(rng):
    for _ in range(25):
        spec = random_chain(rng)
        for k in spec.kernels:
            theta = dobrushin_coefficient(k)
            assert 0.0 <= theta <= 1.0
            rows_equal = np.allclose(k.rows, k.rows[0], atol=0, rtol=0)
            assert (theta == 0.0) == rows_equal


# ---------------------------------------------------------------------------
# conditional laws


def test_conditional_law_product_chain_ignores_prefix():
    # all kernel rows equal: coordinates independent
    k = Kernel(np.array([[0.3, 0.7], [0.3, 0.7]]))
    spec = validate_chain(ChainSpec((2, 2, 2), dist(0.4, 0.6), (k, k)))
    law0 = conditional_law(spec, [0], 1)
    law1 = conditional_law(spec, [1], 1)
    assert_allclose(law0.probs, law1.probs, atol=1e-15)


def test_conditional_law_last_step_is_kernel_row():
    spec = homogeneous_chain(TWO_STATE, 4, initial=[0.5, 0.5])
    law = conditional_law(spec, [0, 1, 1], 3)
    assert_allclose(law.probs, [0.2, 0.8], atol=1e-15)


def test_conditional_law_three_step_example_against_enumeration():
    spec = homogeneous_chain(TWO_STATE, 3, initial=[0.5, 0.5])
    law = conditional_law(spec, [0], 1)
    assert_allclose(law.probs, [0.81, 0.09, 0.02, 0.08], atol=1e-12)
    assert_allclose(law.probs, oracles.conditional_block_law(spec, [0], 1), atol=1e-12)


def test_conditional_law_matches_enumeration_on_random_chains(rng):
    for _ in range(10):
        spec = random_chain(rng)
        i = int(rng.integers(0, spec.n))
        j = int(rng.integers(i, spec.n))
        prefix = [int(rng.integers(0, s)) for s in spec.coord_sizes[:i]]
        law = conditional_law(spec, prefix, j)
        assert_allclose(law.probs, oracles.conditional_block_law(spec, prefix, j), atol=1e-12)


def test_conditional_law_marginal_consistency(rng):
    # marginalizing the block law onto X_j reproduces the forward marginal
    for _ in range(10):
        spec = random_chain(rng)
        assert spec.joint_size() <= 10**4
        j = int(rng.integers(0, spec.n))
        block = conditional_law(spec, [], j)
        block_sizes = spec.coord_sizes[j:]
        onto_j = block.probs.reshape(block_sizes).reshape(block_sizes[0], -1).sum(axis=1)
        assert_allclose(onto_j, marginal(spec, j).probs, atol=1e-12)


def test_conditional_law_rejects_zero_probability_prefix():
    spec = chain_from_dict(
        {"coord_sizes": [2, 2], "initial": [1.0, 0.0], "kernels": [TWO_STATE]}
    )
    with pytest.raises(ValidationError, match="zero probability"):
        conditional_law(spec, [1], 1)


def test_conditional_law_respects_cap():
    spec = homogeneous_chain(TWO_STATE, 12)
    with pytest.raises(EnumerationCapError):
        conditional_law(spec, [], 0, cap=100)
    with pytest.raises(ValidationError, match="positive"):
        conditional_law(spec, [], 0, cap=0)


def test_forward_law_is_bitwise_the_row_gather(rng):
    for _ in range(200):
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=rng.integers(1, 6)))
        # unnormalised rows with zero entries, and some rows entirely zero
        kernels = tuple(
            Kernel(rng.random((sizes[i], sizes[i + 1])) * (rng.random((sizes[i], 1)) < 0.8)
                   * (rng.random((sizes[i], sizes[i + 1])) < 0.7))
            for i in range(len(sizes) - 1))
        spec = ChainSpec(sizes, Distribution(rng.random(sizes[0])), kernels)
        for start in range(len(sizes)):
            law = rng.random(math.prod(sizes[:start + 1])) * (rng.random() < 0.9)
            for stop in range(start + 1, len(sizes) + 1):
                got = forward_law(spec, law, start, stop)
                expected = oracles.forward_law_row_gather(spec, law, start, stop)
                assert got.tobytes() == expected.tobytes()


def test_block_law_given_coordinate_matches_oracle(rng):
    for _ in range(10):
        spec = random_chain(rng)
        i = int(rng.integers(0, spec.n - 1))
        j = int(rng.integers(i + 1, spec.n))
        v = int(rng.integers(0, spec.coord_sizes[i]))
        law = block_law_given_coordinate(spec, i, v, j)
        assert_allclose(law.probs, oracles.block_law_given_value(spec, i, v, j), atol=1e-12)


def test_prefix_probability_product_formula(rng):
    spec = random_chain(rng, n=4)
    law = oracles.joint_law(spec)
    total = sum(p for traj, p in law.items() if traj[:2] == (1, 0))
    assert prefix_probability(spec, [1, 0]) == pytest.approx(total, abs=1e-12)


# ---------------------------------------------------------------------------
# t-step pair TV


def test_t_step_zero_is_one_for_nontrivial_spaces():
    spec = homogeneous_chain(TWO_STATE, 3)
    assert t_step_pair_tv(spec, 0, 0) == 1.0


def test_t_step_uniform_kernel_is_zero():
    spec = homogeneous_chain([[0.5, 0.5], [0.5, 0.5]], 3)
    assert t_step_pair_tv(spec, 0, 1) == 0.0


def test_t_step_matches_matrix_power_oracle():
    spec = homogeneous_chain(TWO_STATE, 20)
    assert t_step_pair_tv(spec, 0, 4) == pytest.approx(0.2401, abs=1e-12)
    assert t_step_pair_tv(spec, 3, 4) == pytest.approx(oracles.t_step_tv(spec, 3, 4), abs=1e-15)


def test_t_step_submultiplicative_in_dobrushin(rng):
    for _ in range(15):
        spec = random_chain(rng)
        thetas = [dobrushin_coefficient(k) for k in spec.kernels]
        for i in range(spec.n):
            for t in range(spec.n - i):
                bound = float(np.prod(thetas[i: i + t])) if t else 1.0
                assert t_step_pair_tv(spec, i, t) <= bound + 1e-12


@st.composite
def _lag_table_chains(draw):
    """Chains of sizes 1-5 with zero entries (so zero-marginal states too).

    The kernels are all equal, equal in runs, or free. Equal kernels are
    distinct Kernel objects with equal rows.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    layout = draw(st.sampled_from(["equal", "runs", "free"]))
    if layout == "free":
        sizes = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    else:
        sizes = [draw(st.integers(1, 5))] * n
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.6]))

    def rows(m, size):
        keep = rng.random((m, size)) >= zero_share
        keep[np.arange(m), rng.integers(0, size, m)] = True
        out = rng.dirichlet(np.ones(size), size=m) * keep
        return out / out.sum(axis=1, keepdims=True)

    kernels = []
    for i in range(n - 1):
        same = i > 0 and (layout == "equal" or layout == "runs" and draw(st.booleans()))
        kernels.append(kernels[-1].copy() if same else rows(sizes[i], sizes[i + 1]))
    return validate_chain(ChainSpec(tuple(sizes), Distribution(rows(1, sizes[0])[0]),
                                    tuple(Kernel(k) for k in kernels)))


@given(_lag_table_chains(), st.sampled_from([0.05, 0.3, 0.7]))
def test_lag_table_consumers_match_the_references(spec, eps):
    thetas = build_gamma(spec, "contractive")[1]["thetas"]
    assert thetas == [oracles.t_step_tv(spec, i, 1) for i in range(spec.n - 1)]
    assert mixing_time(spec, eps) == oracles.mixing_time_per_position(spec, eps)
    for i in range(spec.n):
        for t in range(spec.n - i):
            assert t_step_pair_tv(spec, i, t) == oracles.t_step_tv(spec, i, t)
    # a row of a product rounds alike only when the product keeps every row
    brute, ref = wasserstein_matrix_tv(spec).entries, oracles.wasserstein_matrix_rows(spec)
    if all(np.all(marginal(spec, i).probs > 0.0) for i in range(spec.n)):
        assert np.array_equal(brute, ref)
    else:
        assert_allclose(brute, ref, rtol=0, atol=1e-15)


def test_t_step_index_errors():
    spec = homogeneous_chain(TWO_STATE, 3)
    with pytest.raises(ValidationError):
        t_step_pair_tv(spec, 2, 1)
    with pytest.raises(ValidationError):
        t_step_pair_tv(spec, 3, 0)


# ---------------------------------------------------------------------------
# sampling


def test_sample_trajectory_deterministic_chain_unique_path():
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    spec = chain_from_dict(
        {"coord_sizes": [2, 2, 2], "initial": [1.0, 0.0], "kernels": [flip.tolist()] * 2}
    )
    for seed in (0, 1, 12345):
        states = trajectories_from_uniforms(spec, uniform_matrix(seed, 1, spec.n))
        assert states.tolist() == [[0, 1, 0]]


def test_sample_trajectory_is_deterministic():
    spec = homogeneous_chain(TWO_STATE, 6)
    for first in (0, 3):
        runs = [trajectories_from_uniforms(spec, uniform_matrix(42, 1, spec.n, first=first))
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])


def test_sample_trajectories_rows_match_single_samples():
    spec = homogeneous_chain(TWO_STATE, 5)
    block = trajectories_from_uniforms(spec, uniform_matrix(7, 10, spec.n))
    for r in range(10):
        row = trajectories_from_uniforms(spec, uniform_matrix(7, 1, spec.n, first=r))
        assert np.array_equal(block[r], row[0])
    # chunk-independence: rows [3, 10) reproduce the same trajectories
    tail = trajectories_from_uniforms(spec, uniform_matrix(7, 7, spec.n, first=3))
    assert np.array_equal(tail, block[3:])


def test_uniform_matrix_rows_are_chunk_independent():
    whole = uniform_matrix(11, 9, 7)
    for r in range(9):
        assert np.array_equal(uniform_matrix(11, 1, 7, first=r)[0], whole[r])
    assert uniform_matrix(11, 0, 7).shape == (0, 7)


@pytest.mark.parametrize("n_vars", [1, 3, 5, 24])
def test_uniform_blocks_are_bitwise_uniform_matrix(n_vars):
    big = 2**50 + 3  # a Philox counter offset far past any benchmark's replicates
    ranges = [(0, 100), (100, 200), (200, 237), (237, 237), (5, 9), (big, big + 64),
              (big + 64, big + 65), (3, 3)]
    blocks = list(map(np.copy, uniform_blocks(9, n_vars, ranges)))
    assert len(blocks) == len(ranges)
    for (a, b), block in zip(ranges, blocks):
        want = uniform_matrix(9, b - a, n_vars, first=a)
        assert block.shape == want.shape == (b - a, n_vars)
        assert block.tobytes() == want.tobytes()
    assert list(uniform_blocks(9, n_vars, [])) == []
    empty = list(uniform_blocks(9, n_vars, [(4, 4), (0, 0)]))
    assert [b.shape for b in empty] == [(0, n_vars)] * 2


def test_uniform_blocks_hold_under_thread_switching():
    # four streams at once, switching threads every microsecond: a block written
    # by its worker while the caller holds it would differ from its one-shot draw
    ranges = [(37 * k, 37 * k + 37) for k in range(80)]
    want = [uniform_matrix(5, 37, 9, first=a).tobytes() for a, _ in ranges]
    bad = []

    def consume():
        for block, ref in zip(uniform_blocks(5, 9, ranges), want):
            np.sort(block, axis=None)  # hold the block for a while
            if block.tobytes() != ref:
                bad.append(block)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=consume) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_uniform_blocks_reuse_two_buffers():
    # a block is valid until the next is requested: the draw after next overwrites it
    stream = uniform_blocks(4, 6, [(0, 50), (50, 100), (100, 150)])
    first, second, third = next(stream), next(stream), next(stream)
    assert np.shares_memory(first, third) and not np.shares_memory(second, third)
    assert third.tobytes() == uniform_matrix(4, 50, 6, first=100).tobytes()
    stream.close()


_LAST_UNIFORM = float(np.nextafter(1.0, 0.0))


@st.composite
def _row(draw, size, short_of_one):
    """Probability row with zero entries (CDF plateaus), optionally summing just below 1."""
    weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)
                   .filter(lambda w: sum(w) > 0))
    row = np.asarray(weights, dtype=float) / sum(weights)
    if short_of_one:
        row *= 1.0 - draw(st.integers(1, 64)) * 2.0**-53
    return row


@st.composite
def _chain_and_uniforms(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    short = draw(st.booleans())
    initial = draw(_row(sizes[0], short))
    kernels = tuple(
        Kernel(np.stack([draw(_row(sizes[i + 1], short)) for _ in range(sizes[i])]))
        for i in range(len(sizes) - 1)
    )
    # unvalidated, so rows that sum just below 1 reach the sampler as drawn
    spec = ChainSpec(tuple(sizes), Distribution(initial), kernels)
    breakpoints = sorted({float(x) for x in np.cumsum(initial)}.union(
        float(x) for k in kernels for x in np.cumsum(k.rows, axis=1).ravel()))
    special = [0.0, _LAST_UNIFORM] + [b for b in breakpoints if b < 1.0]
    m = draw(st.integers(0, 8))
    entry = st.one_of(st.sampled_from(special),
                      st.floats(0.0, 1.0, exclude_max=True, allow_subnormal=False))
    u = np.array(draw(st.lists(st.lists(entry, min_size=len(sizes), max_size=len(sizes)),
                               min_size=m, max_size=m)), dtype=float).reshape(m, len(sizes))
    return spec, u


@given(_chain_and_uniforms())
def test_sampler_matches_row_gather_reference(case):
    spec, u = case
    states = trajectories_from_uniforms(spec, u)
    assert states.dtype == np.int64 and states.flags.c_contiguous
    assert np.array_equal(states, oracles.inverse_cdf_trajectories(spec, u))


def test_sample_uniform_chain_frequencies():
    spec = homogeneous_chain([[0.5, 0.5], [0.5, 0.5]], 4)
    m = 10**5
    states = trajectories_from_uniforms(spec, uniform_matrix(42, m, spec.n))
    se = 0.5 / np.sqrt(m)
    for c in range(spec.n):
        freq = float(np.mean(states[:, c] == 0))
        assert abs(freq - 0.5) <= 3 * se


def test_sample_marginals_chi_square():
    from scipy.stats import chi2

    spec = homogeneous_chain(TWO_STATE, 6, initial=[0.5, 0.5])
    m = 10**5
    states = trajectories_from_uniforms(spec, uniform_matrix(42, m, spec.n))
    for c in range(spec.n):
        expected = marginal(spec, c).probs * m
        observed = np.bincount(states[:, c], minlength=spec.coord_sizes[c])
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert stat <= chi2.ppf(1 - 0.001, df=spec.coord_sizes[c] - 1)
