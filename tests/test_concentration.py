import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import oracles
from chainconc import (
    AdditiveFunction,
    ChainSpec,
    Distribution,
    EnumerationCapError,
    GammaMatrix,
    Kernel,
    LipschitzWeights,
    NoMixError,
    TabularFunction,
    ValidationError,
    certify,
    chain_from_dict,
    conditional_expectation,
    conditional_expectation_tables,
    homogeneous_chain,
    local_oscillation_vector,
    martingale_brackets,
    martingale_differences,
    mixing_time,
    tail_bound,
    validate_chain,
    variance_proxy,
    wasserstein_matrix_tv,
)
from chainconc import cli, verify
from chainconc.concentration import expectation
from chainconc.rng import chunk_ranges
from conftest import random_chain

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]


def product_chain(marginals):
    """Independent coordinates: every kernel row equals the next marginal."""
    sizes = tuple(len(m) for m in marginals)
    kernels = tuple(
        Kernel(np.tile(np.asarray(marginals[i + 1], dtype=float), (sizes[i], 1)))
        for i in range(len(marginals) - 1)
    )
    return validate_chain(ChainSpec(sizes, Distribution.from_array(marginals[0]), kernels))


def random_function(rng, spec):
    return TabularFunction(rng.normal(size=spec.joint_size()))


# ---------------------------------------------------------------------------
# tabulation


def uniform_chain(sizes) -> ChainSpec:
    return product_chain([np.full(s, 1.0 / s) for s in sizes])


SIZES = st.lists(st.integers(1, 4), min_size=1, max_size=7).map(tuple)
UNIT = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def elementwise_functions(draw, sizes):
    """An elementwise function of the coordinate index arrays, of one of four kinds."""
    n = len(sizes)
    kind = draw(st.sampled_from(["indicators", "weighted", "fancy", "single"]))
    c = draw(st.integers(0, n - 1))
    if kind == "indicators":
        value = draw(st.integers(0, 3))
        return lambda grids: sum((g == value).astype(float) for g in grids)
    if kind == "weighted":
        w = draw(st.lists(UNIT, min_size=n, max_size=n))
        return lambda grids: sum(w[i] * g for i, g in enumerate(grids))
    if kind == "fancy":
        table = np.array(draw(st.lists(UNIT, min_size=sizes[c], max_size=sizes[c])))
        return lambda grids: table[grids[c]] + 0.5 * grids[0]
    return lambda grids: np.exp(-0.3 * grids[c])


@given(st.data(), SIZES)
def test_from_vectorized_is_bitwise_the_flat_grid_tabulation(data, sizes):
    fn = data.draw(elementwise_functions(sizes))
    values = TabularFunction.from_vectorized(uniform_chain(sizes), fn).values
    expected = np.asarray(fn(oracles.coordinate_grid(sizes)), dtype=float)
    assert values.dtype == np.float64 and values.shape == (math.prod(sizes),)
    assert values.flags.c_contiguous and values.flags.writeable and values.flags.owndata
    assert values.tobytes() == expected.tobytes()


@given(SIZES, st.sampled_from(["long", "extra_axis"]))
def test_from_vectorized_rejects_a_result_that_does_not_broadcast(sizes, kind):
    total = math.prod(sizes)
    bad = np.zeros(total + 1) if kind == "long" else np.zeros((2,) + sizes)
    with pytest.raises(ValidationError, match="wrong-shaped"):
        TabularFunction.from_vectorized(uniform_chain(sizes), lambda grids: bad)


@given(SIZES)
def test_from_vectorized_cap_is_inclusive(sizes):
    total = math.prod(sizes)
    assume(total > 1)
    spec = uniform_chain(sizes)
    fn = lambda grids: sum(g.astype(float) for g in grids)  # noqa: E731
    assert TabularFunction.from_vectorized(spec, fn, cap=total).values.size == total
    with pytest.raises(EnumerationCapError, match=f"joint space of size {total} exceeds"):
        TabularFunction.from_vectorized(spec, fn, cap=total - 1)


def test_from_vectorized_memory_is_bounded():
    # flat index grids for the n = 20 demo chain peak above 160 MB
    spec = homogeneous_chain(TWO_STATE, 20, initial=[0.5, 0.5])
    tracemalloc.start()
    try:
        f = TabularFunction.from_vectorized(
            spec, lambda grids: sum((g == 1).astype(float) for g in grids), cap=2**21)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert f.values.size == 2**20
    assert peak_mb < 40.0


# ---------------------------------------------------------------------------
# additive functions, against their tabulation


@st.composite
def sparse_chains(draw):
    """A chain of 1-8 coordinates of 1-4 states, often with a size-1 coordinate,
    whose rows may hold zeros: some states are never reached."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
    if draw(st.booleans()):
        sizes[draw(st.integers(0, len(sizes) - 1))] = 1

    def row(size):
        weights = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
        return np.asarray(weights, dtype=float) / sum(weights)

    kernels = tuple(Kernel(np.stack([row(sizes[i + 1]) for _ in range(sizes[i])]))
                    for i in range(len(sizes) - 1))
    return validate_chain(ChainSpec(tuple(sizes), Distribution(row(sizes[0])), kernels))


@st.composite
def additive_cases(draw, spec):
    """(f, fn, named): an additive f, the fn that tabulates it by from_vectorized,
    and whether f is a named function, built as the CLI builds it."""
    kind = draw(st.sampled_from(["indicator_count", "coordinate_sum", "table"]))
    if kind == "indicator_count":
        value = draw(st.integers(-1, 5))  # inside and outside the state range
        f = cli._load_function({"function": {"name": kind, "value": value}}, spec)
        return f, lambda grids: sum((g == value).astype(float) for g in grids), True
    if kind == "coordinate_sum":
        f = cli._load_function({"function": {"name": kind}}, spec)
        return f, lambda grids: sum(g.astype(float) for g in grids), True
    width = max(spec.coord_sizes) + draw(st.integers(0, 2))
    g = np.array(draw(st.lists(UNIT, min_size=spec.n * width, max_size=spec.n * width)))
    g = g.reshape(spec.n, width)
    return AdditiveFunction(g), lambda grids: sum(g[i][x] for i, x in enumerate(grids)), False


@given(st.data())
def test_additive_function_is_its_tabulation(data):
    spec = data.draw(sparse_chains())
    f, fn, named = data.draw(additive_cases(spec))
    table = TabularFunction.from_vectorized(spec, fn)
    # every joint state, row-major, and the sampled values, bit for bit
    states = np.indices(spec.coord_sizes).reshape(spec.n, -1).T
    assert f.evaluate(states).tobytes() == table.values.tobytes()
    seed, ranges = data.draw(st.integers(0, 2**32 - 1)), chunk_ranges(300, 2)
    assert (verify._block_values(f, spec, seed, ranges).tobytes()
            == verify._block_values(table, spec, seed, ranges).tobytes())
    # the extremes by monotone rounding, and the mean to a few ulps of its scale
    assert f.value_range(spec) == (table.values.min(), table.values.max())
    scale = sum(float(np.abs(row[:size]).max()) for row, size in zip(f.g, spec.coord_sizes))
    assert abs(f.mean(spec) - expectation(table, spec)) <= 4 * np.finfo(float).eps * scale
    osc = local_oscillation_vector(f, spec)
    if named:  # integer values: the table's spreads round nowhere
        assert np.array_equal(osc, local_oscillation_vector(table, spec))
    else:  # each table entry is within (n - 1) u scale of its exact sum
        assert_allclose(osc, local_oscillation_vector(table, spec), rtol=0,
                        atol=16 * np.finfo(float).eps * scale)


def test_additive_function_rejects_a_table_that_does_not_fit():
    spec = homogeneous_chain(TWO_STATE, 3)
    for g in (np.zeros((2, 2)), np.zeros((3, 1)), np.zeros(3), np.array([[0.0, math.nan]] * 3)):
        with pytest.raises(ValidationError, match="additive table"):
            AdditiveFunction(g).mean(spec)


# ---------------------------------------------------------------------------
# local oscillation


def test_oscillation_of_constant_is_zero():
    spec = homogeneous_chain(TWO_STATE, 4)
    f = TabularFunction(np.full(spec.joint_size(), 3.7))
    assert_allclose(local_oscillation_vector(f, spec), np.zeros(4), atol=0)


def test_oscillation_of_first_coordinate_projection():
    spec = homogeneous_chain(TWO_STATE, 4)
    f = TabularFunction.from_vectorized(spec, lambda grids: grids[0].astype(float))
    assert_allclose(local_oscillation_vector(f, spec), [1.0, 0.0, 0.0, 0.0], atol=0)


def test_oscillation_of_weighted_indicator_sum_recovers_weights(rng):
    spec = homogeneous_chain(TWO_STATE, 5)
    c = rng.random(5) + 0.5
    f = TabularFunction.from_vectorized(
        spec, lambda grids: sum(c[i] * (grids[i] == 1) for i in range(5))
    )
    assert_allclose(local_oscillation_vector(f, spec), c, atol=1e-15)


@given(st.lists(st.integers(1, 4), min_size=1, max_size=6), st.integers(0, 2**32 - 1),
       st.booleans())
def test_oscillation_is_bitwise_the_moveaxis_scan(sizes, seed, ties):
    spec = uniform_chain(sizes)
    gen = np.random.default_rng(seed)
    # small integers give ties and zero spreads; scaled normals, rounding in the differences
    values = (gen.integers(-2, 3, spec.joint_size()).astype(float) if ties
              else gen.normal(size=spec.joint_size()) * 10.0 ** gen.integers(-20, 20))
    f = TabularFunction(values)
    osc = local_oscillation_vector(f, spec)
    assert osc.dtype == np.float64
    assert np.array_equal(osc, oracles.local_oscillation_moveaxis(f, spec))


# ---------------------------------------------------------------------------
# conditional expectations


def test_full_prefix_returns_function_value(rng):
    spec = random_chain(rng, n=3)
    f = random_function(rng, spec)
    traj = (1, 0, 1)
    assert conditional_expectation(f, spec, traj) == pytest.approx(f.at(spec, traj), abs=0)


def test_empty_prefix_is_global_expectation(rng):
    spec = random_chain(rng, n=4)
    f = random_function(rng, spec)
    assert conditional_expectation(f, spec, []) == pytest.approx(
        oracles.expectation(spec, f), abs=1e-12
    )


def test_indicator_conditional_matches_kernel_power():
    spec = homogeneous_chain(TWO_STATE, 3, initial=[0.5, 0.5])
    f = TabularFunction.from_vectorized(spec, lambda grids: (grids[2] == 0).astype(float))
    k2 = np.linalg.matrix_power(np.array(TWO_STATE), 2)
    assert conditional_expectation(f, spec, [0]) == pytest.approx(k2[0, 0], abs=1e-12)


def test_tables_agree_with_direct_route(rng):
    for _ in range(5):
        spec = random_chain(rng, n=3)
        f = random_function(rng, spec)
        tables = conditional_expectation_tables(f, spec)
        for prefix in [(), (0,), (1, 0), (0, 1, 1)]:
            expected = oracles.conditional_expectation(spec, f, prefix)
            got = float(tables[len(prefix)][tuple(prefix)])
            assert got == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# martingale differences


def test_constant_function_has_zero_increments(rng):
    spec = random_chain(rng, n=3)
    f = TabularFunction(np.full(spec.joint_size(), 2.5))
    m = martingale_differences(f, spec, (0,) * 3)
    assert_allclose(m, np.zeros(3), atol=1e-12)


def test_product_chain_increments_decouple(rng):
    marginals = [[0.4, 0.6], [0.3, 0.7], [0.5, 0.5]]
    spec = product_chain(marginals)
    g = [rng.normal(size=2) for _ in range(3)]
    f = TabularFunction.from_vectorized(
        spec, lambda grids: sum(np.asarray(g[i])[grids[i]] for i in range(3))
    )
    traj = (1, 0, 1)
    m = martingale_differences(f, spec, traj)
    for i in range(3):
        expected = g[i][traj[i]] - float(np.asarray(marginals[i]) @ g[i])
        assert m[i] == pytest.approx(expected, abs=1e-12)


def test_telescoping_against_enumeration_oracle(rng):
    for _ in range(10):
        spec = random_chain(rng, n=3)
        f = random_function(rng, spec)
        for traj in oracles.all_trajectories(spec.coord_sizes):
            m = martingale_differences(f, spec, traj)
            lhs = float(m.sum())
            rhs = f.at(spec, traj) - oracles.expectation(spec, f)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_zero_probability_trajectory_rejected():
    spec = chain_from_dict(
        {"coord_sizes": [2, 2], "initial": [1.0, 0.0], "kernels": [TWO_STATE]}
    )
    f = TabularFunction(np.arange(4, dtype=float))
    with pytest.raises(ValidationError, match="zero probability"):
        martingale_differences(f, spec, (1, 0))


# ---------------------------------------------------------------------------
# martingale brackets


def test_constant_function_brackets_are_degenerate(rng):
    spec = random_chain(rng, n=3)
    f = TabularFunction(np.full(spec.joint_size(), -1.0))
    for i in range(3):
        br = martingale_brackets(f, spec, i)
        assert br.width == pytest.approx(0.0, abs=1e-12)


def test_single_coordinate_function_width_is_oscillation(rng):
    spec = product_chain([[0.4, 0.6], [0.3, 0.7], [0.5, 0.5]])
    g = rng.normal(size=2)
    f = TabularFunction.from_vectorized(spec, lambda grids: np.asarray(g)[grids[1]])
    br = martingale_brackets(f, spec, 1)
    assert br.width == pytest.approx(abs(g[0] - g[1]), abs=1e-12)
    assert br.width == pytest.approx(local_oscillation_vector(f, spec)[1], abs=1e-12)


def test_bracket_width_bounded_by_oscillation_oracle(rng):
    # exhaustive inf/sup oracle: recompute the bracket width from direct
    # per-prefix conditional expectations, then check the returned width and
    # the oscillation bound
    for _ in range(5):
        spec = random_chain(rng, n=3)
        f = random_function(rng, spec)
        for i in range(spec.n):
            br = martingale_brackets(f, spec, i)
            worst = 0.0
            for prefix in oracles.all_trajectories(spec.coord_sizes[:i]):
                values = [
                    oracles.conditional_expectation(spec, f, list(prefix) + [v])
                    for v in range(spec.coord_sizes[i])
                ]
                worst = max(worst, max(values) - min(values))
            assert br.width == pytest.approx(worst, abs=1e-10)
            assert br.width <= br.oscillation_bound + 1e-12
            assert br.oscillation_bound == oracles.bracket_oscillation_bound(spec, f, i)


def test_increments_lie_inside_brackets(rng):
    for _ in range(5):
        spec = random_chain(rng, n=3)
        f = random_function(rng, spec)
        brackets = [martingale_brackets(f, spec, i) for i in range(spec.n)]
        sizes = spec.coord_sizes
        for traj in oracles.all_trajectories(sizes):
            m = martingale_differences(f, spec, traj)
            for i in range(spec.n):
                flat_prefix = 0
                for c in range(i):
                    flat_prefix = flat_prefix * sizes[c] + traj[c]
                assert brackets[i].lower[flat_prefix] - 1e-10 <= m[i]
                assert m[i] <= brackets[i].upper[flat_prefix] + 1e-10


# ---------------------------------------------------------------------------
# mixing time


def test_uniform_kernel_mixes_in_one_step():
    spec = homogeneous_chain([[0.5, 0.5], [0.5, 0.5]], 6)
    for eps in (0.01, 0.25, 0.9):
        assert mixing_time(spec, eps) == 1


def test_identity_kernel_never_mixes():
    spec = homogeneous_chain([[1.0, 0.0], [0.0, 1.0]], 6)
    assert mixing_time(spec, 0.1) is None
    assert mixing_time(spec, 0.999) is None


def test_demo_chain_mixing_time_is_four():
    spec = homogeneous_chain(TWO_STATE, 20)
    assert mixing_time(spec, 0.25) == 4
    assert 0.7**3 > 0.25 >= 0.7**4


def test_mixing_time_consistency_with_t_step_tv(rng):
    from chainconc import t_step_pair_tv

    spec = homogeneous_chain(TWO_STATE, 12)
    eps = 0.3
    tau = mixing_time(spec, eps)
    assert all(t_step_pair_tv(spec, i, tau) <= eps for i in range(spec.n - tau))
    assert any(t_step_pair_tv(spec, i, tau - 1) > eps for i in range(spec.n - tau + 1))


def test_mixing_time_rejects_bad_eps():
    spec = homogeneous_chain(TWO_STATE, 4)
    for eps in (0.0, 1.0, -0.5):
        with pytest.raises(ValidationError):
            mixing_time(spec, eps)


# ---------------------------------------------------------------------------
# variance proxies and tail bounds


def test_identity_gamma_gives_mcdiarmid_quarter():
    n = 6
    g = GammaMatrix(np.eye(n), "brute_force_tv")
    c = LipschitzWeights.ones(n)
    assert variance_proxy(g, c, "exact") == pytest.approx(n / 4, abs=0)


def test_variance_proxy_worked_example():
    g = GammaMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), "contractive")
    c = LipschitzWeights.from_array([1.0, 1.0])
    assert variance_proxy(g, c, "exact") == pytest.approx(0.8125, abs=0)
    assert variance_proxy(g, c, "opnorm") == pytest.approx(0.8202, abs=1e-4)


def test_variance_conventions_are_ordered_and_quarter_related(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        m = np.triu(rng.random((n, n)))
        np.fill_diagonal(m, 1.0)
        g = GammaMatrix(m, "brute_force_tv")
        c = LipschitzWeights(rng.random(n))
        exact = variance_proxy(g, c, "exact")
        opnorm = variance_proxy(g, c, "opnorm")
        paper = variance_proxy(g, c, "paper")
        assert exact <= opnorm + 1e-15
        assert opnorm == 0.25 * paper  # bitwise: same norm computation scaled


def test_variance_proxy_dimension_mismatch():
    g = GammaMatrix(np.eye(3), "contractive")
    with pytest.raises(ValidationError):
        variance_proxy(g, LipschitzWeights.ones(2), "exact")


def test_tail_bound_values_and_monotonicity():
    assert tail_bound(1.0, 0.0) == 1.0
    assert tail_bound(1.0, 2.0) == pytest.approx(math.exp(-2.0), abs=0)
    assert tail_bound(0.8125, 3.0) == pytest.approx(math.exp(-9.0 / 1.625), abs=0)
    assert tail_bound(0.8125, 3.0) == pytest.approx(0.00393, abs=1e-5)
    ts = np.linspace(0, 5, 11)
    bounds = [tail_bound(2.0, t) for t in ts]
    assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))
    with pytest.raises(ValidationError):
        tail_bound(0.0, 1.0)


# ---------------------------------------------------------------------------
# certify


def test_product_chain_brute_force_is_mcdiarmid(rng):
    spec = product_chain([[0.4, 0.6], [0.3, 0.7], [0.5, 0.5], [0.2, 0.8]])
    c = LipschitzWeights(rng.random(4) + 0.5)
    report = certify(spec, c, "brute_force")
    assert report.sigma2_exact == pytest.approx(0.25 * float(c.c @ c.c), abs=1e-12)
    assert_allclose(report.gamma.entries, np.eye(4), atol=1e-15)


def test_contractive_demo_certificate():
    spec = homogeneous_chain(TWO_STATE, 20, initial=[0.5, 0.5])
    report = certify(spec, LipschitzWeights.ones(20), "contractive")
    assert_allclose(report.details["thetas"], [0.7] * 19, atol=1e-12)
    assert report.gamma.entries[0, 5] == pytest.approx(0.7**5, abs=1e-12)
    # contractive dominates brute force on a short prefix of the same chain
    short = homogeneous_chain(TWO_STATE, 6, initial=[0.5, 0.5])
    contractive = certify(short, LipschitzWeights.ones(6), "contractive")
    brute = certify(short, LipschitzWeights.ones(6), "brute_force")
    assert contractive.sigma2_exact >= brute.sigma2_exact - 1e-12
    assert np.all(contractive.gamma.entries >= brute.gamma.entries - 1e-12)


def test_ergodic_demo_partition():
    spec = homogeneous_chain(TWO_STATE, 20, initial=[0.5, 0.5])
    report = certify(spec, LipschitzWeights.ones(20), "ergodic", eps=0.25)
    assert report.details["tau"] == 4
    assert report.details["n_blocks"] == 5
    assert report.details["block_weights"] == [4.0] * 5
    assert report.gamma.n == 5
    assert_allclose(report.gamma.entries[0], [1.0, 1.0, 0.25, 0.0625, 0.015625], atol=0)
    # paper-convention value coincides with tau * ||c||^2 * ||Gamma||^2 here
    from chainconc import operator_norm

    norm = operator_norm(report.gamma)
    assert report.sigma2_paper == pytest.approx(norm**2 * 5 * 16, rel=1e-12)


def test_ergodic_last_block_may_be_shorter():
    spec = homogeneous_chain(TWO_STATE, 10, initial=[0.5, 0.5])
    report = certify(spec, LipschitzWeights.ones(10), "ergodic", eps=0.25)
    assert report.details["tau"] == 4
    assert report.details["n_blocks"] == 3
    assert report.details["block_weights"] == [4.0, 4.0, 2.0]


def test_ergodic_aborts_on_no_mix():
    spec = homogeneous_chain([[1.0, 0.0], [0.0, 1.0]], 5)
    with pytest.raises(NoMixError):
        certify(spec, LipschitzWeights.ones(5), "ergodic", eps=0.25)


def test_degenerate_single_coordinate_chain():
    spec = chain_from_dict({"coord_sizes": [3], "initial": [0.2, 0.3, 0.5], "kernels": []})
    for method, kwargs in [("contractive", {}), ("brute_force", {}), ("ergodic", {"eps": 0.5})]:
        report = certify(spec, LipschitzWeights.from_array([2.0]), method, **kwargs)
        assert report.gamma.n == 1
        assert report.sigma2_exact == pytest.approx(1.0, abs=0)  # c^2 / 4


def test_wasserstein_domination_of_oscillations(rng):
    # row i of Gamma really does dominate how kernels propagate oscillations
    for _ in range(3):
        spec = random_chain(rng, n=4)
        gamma = wasserstein_matrix_tv(spec).entries
        for _ in range(20):
            f = random_function(rng, spec)
            deltas = local_oscillation_vector(f, spec)
            propagated = gamma @ deltas
            for i in range(spec.n):
                width = martingale_brackets(f, spec, i).oscillation_bound
                assert width <= propagated[i] + 1e-12


def test_report_serialization_roundtrip():
    spec = homogeneous_chain(TWO_STATE, 5, initial=[0.5, 0.5])
    report = certify(spec, LipschitzWeights.ones(5), "contractive")
    doc = report.to_dict()
    assert doc["sigma2_opnorm"] == 0.25 * doc["sigma2_paper"]
    assert doc["method"] == "contractive"
    assert len(doc["tail_curve"]) == 10
    csv = report.tail_curve_csv()
    assert csv.startswith("t,bound\n")
    assert len(csv.strip().splitlines()) == 11


def test_expectation_is_t0_holding_two_tables_at_a_time():
    """The exact center is T_0 of the backward recursion, bit for bit, and keeps
    only the running table: no copy of f's table and no list of all of them."""
    spec = homogeneous_chain([[0.9, 0.1], [0.2, 0.8]], 16)
    f = TabularFunction.from_vectorized(spec, lambda grids: sum(g * (k + 1.0) for k, g in enumerate(grids)))
    tracemalloc.start()
    try:
        center = expectation(f, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert center == float(conditional_expectation_tables(f, spec)[0])
    assert peak < 0.8 * f.values.nbytes  # T_15 and T_14 are half and a quarter of it
