import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_chain
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import chainconc.gamma
import oracles
from chainconc import (
    ChainSpec,
    Distribution,
    GammaMatrix,
    Kernel,
    LipschitzWeights,
    ValidationError,
    certify,
    gamma_contractive,
    gamma_ergodic,
    homogeneous_chain,
    operator_norm,
    validate_chain,
    wasserstein_matrix_tv,
)
from chainconc.cli import main


def test_contractive_matrix_matches_displayed_pattern():
    g = gamma_contractive([0.5, 0.5])
    assert_allclose(
        g.entries,
        [[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]],
        atol=0,
    )
    assert g.provenance == "contractive"


def test_contractive_theta_zero_gives_identity():
    assert_allclose(gamma_contractive([0.0, 0.0, 0.0]).entries, np.eye(4), atol=0)


def test_contractive_theta_one_gives_ones_triangle():
    assert_allclose(gamma_contractive([1.0, 1.0]).entries, np.triu(np.ones((3, 3))), atol=0)


def test_contractive_uses_running_products():
    g = gamma_contractive([0.5, 0.2, 0.9])
    assert g.entries[0, 2] == pytest.approx(0.1, abs=1e-15)
    assert g.entries[0, 3] == pytest.approx(0.09, abs=1e-15)
    assert g.entries[1, 3] == pytest.approx(0.18, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 100, 1000])
def test_contractive_is_bitwise_the_running_product(rng, n):
    thetas = rng.random(n - 1)
    expected = np.eye(n)
    for i in range(n):
        running = 1.0
        for j in range(i + 1, n):
            running *= thetas[j - 1]
            expected[i, j] = running
    assert np.array_equal(gamma_contractive(thetas).entries, expected)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 9, 64, 257, 1500])
def test_contractive_is_bitwise_the_masked_batch_product(rng, n):
    thetas = rng.random(n)
    thetas[rng.random(n) < 0.1] = 0.0
    thetas[rng.random(n) < 0.1] = 1.0
    thetas[rng.random(n) < 0.1] = 1.0 - 2.0**-52
    want = oracles.contractive_gamma_entries_masked(thetas)
    g = gamma_contractive(thetas)
    assert g.entries.tobytes() == want.tobytes()
    # the rows a report writes, against the dense row-by-row construction
    for row, dense in zip(g.rows(), oracles.contractive_gamma_entries(thetas), strict=True):
        assert row.dtype == np.float64 and row.tobytes() == dense.tobytes()


def test_contractive_peak_memory_is_about_its_result():
    # the strict-lower mask and a whole-matrix np.tril check took the peak to
    # 68.7 MB; the dense result alone is 32 MB, and the factored one holds
    # its thetas and two factors
    thetas = np.random.default_rng(4).uniform(0.3, 1.0, 2000)
    tracemalloc.start()
    try:
        gamma_contractive(thetas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * thetas.nbytes


def test_contractive_rejects_out_of_range_theta():
    with pytest.raises(ValidationError):
        gamma_contractive([0.5, 1.2])
    with pytest.raises(ValidationError):
        gamma_contractive([-0.1])


def test_ergodic_singleton_is_identity():
    assert_allclose(gamma_ergodic(1, 0.3).entries, np.eye(1), atol=0)


def test_ergodic_first_row_pattern():
    g = gamma_ergodic(4, 0.25)
    assert_allclose(g.entries[0], [1.0, 1.0, 0.25, 0.0625], atol=0)
    assert g.provenance == "ergodic"


def test_ergodic_eps_zero_is_banded():
    g = gamma_ergodic(4, 0.0)
    expected = np.eye(4) + np.diag(np.ones(3), k=1)
    assert_allclose(g.entries, expected, atol=0)


def test_ergodic_is_bitwise_the_double_loop(rng):
    cases = [(n, float(rng.random())) for n in range(1, 301)] + [(n, 0.0) for n in (1, 2, 7, 300)]
    cases += [(n, eps) for n in (1, 2, 7, 300) for eps in (1.0 - 2.0**-52, 1e-160)]
    for n_blocks, eps in cases:
        expected = oracles.ergodic_gamma_entries(n_blocks, eps)
        g = gamma_ergodic(n_blocks, eps)
        assert g.entries.tobytes() == expected.tobytes()
        # the rows a report writes, against the dense sliding-window construction
        windows = oracles.ergodic_gamma_entries_windows(n_blocks, eps)
        for row, dense in zip(g.rows(), windows, strict=True):
            assert row.dtype == np.float64 and row.tobytes() == dense.tobytes()


def test_ergodic_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        gamma_ergodic(0, 0.5)
    with pytest.raises(ValidationError):
        gamma_ergodic(3, 1.0)


def test_gamma_matrix_invariants_enforced():
    with pytest.raises(ValidationError):
        GammaMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), "contractive")  # not triangular
    with pytest.raises(ValidationError, match="upper triangular"):
        GammaMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [math.nan, 0.0, 1.0]]),
                    "contractive")
    with pytest.raises(ValidationError):
        GammaMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]), "contractive")  # bad diagonal
    with pytest.raises(ValidationError):
        GammaMatrix(np.eye(2), "mystery")  # unknown provenance


# ---------------------------------------------------------------------------
# operator norm


def test_operator_norm_identity():
    assert operator_norm(GammaMatrix(np.eye(5), "contractive")) == pytest.approx(1.0, abs=1e-12)
    assert operator_norm(GammaMatrix(np.eye(0), "contractive")) == 0.0


def test_operator_norm_small_triangular_example():
    g = GammaMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), "contractive")
    # dense eigensolver oracle on the 2x2 symmetrized product
    expected = math.sqrt(float(np.linalg.eigvalsh(g.entries.T @ g.entries)[-1]))
    assert operator_norm(g) == pytest.approx(expected, rel=1e-9)
    assert operator_norm(g) == pytest.approx(1.28078, abs=1e-5)


def test_operator_norm_golden_ratio():
    g = GammaMatrix(np.triu(np.ones((2, 2))), "contractive")
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    assert operator_norm(g) == pytest.approx(golden, rel=1e-9)


def test_operator_norm_matches_svd_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(1, 8))
        m = np.triu(rng.random((n, n)))
        np.fill_diagonal(m, 1.0)
        g = GammaMatrix(m, "brute_force_tv")
        assert operator_norm(g) == pytest.approx(oracles.spectral_norm(m), rel=1e-9)
        assert operator_norm(g) >= 1.0 - 1e-12  # unit diagonal forces norm >= 1


def _assert_certified(g):
    """operator_norm is never below the SVD norm and within 1e-12 relative of it."""
    norm, ref = operator_norm(g), oracles.spectral_norm(g.entries)
    assert norm >= ref
    assert (norm - ref) / ref <= 1e-12


def _dense(g):
    """The same entries without factors: Noda iteration on the Gram matrix."""
    return GammaMatrix(g.entries, "brute_force_tv")


BOTH_PATHS = (lambda g: g, _dense)  # Noda iteration on the factors, then on the Gram matrix


def test_operator_norm_is_an_upper_bound_on_random_triangular(rng):
    for _ in range(200):
        n = int(rng.integers(1, 61))
        m = np.triu(rng.random((n, n)) * rng.choice([1e-3, 1.0, 10.0]))
        m[rng.random((n, n)) < rng.random()] = 0.0  # sparse, often reducible
        np.fill_diagonal(m, 1.0)
        _assert_certified(GammaMatrix(m, "brute_force_tv"))


def _zero_rows_above_diagonal():
    m = np.triu(np.random.default_rng(7).random((8, 8)))
    np.fill_diagonal(m, 1.0)
    m[[0, 2, 5], :] = np.eye(8)[[0, 2, 5]]
    return m


@pytest.mark.parametrize("m", [
    np.eye(1),
    np.eye(5),
    np.block([[np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 3))],
              [np.zeros((3, 2)), np.array([[1.0, 2.0, 1.0], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])]]),
    _zero_rows_above_diagonal(),
], ids=["n1", "identity", "block_diagonal", "zero_rows"])
def test_operator_norm_is_an_upper_bound_on_reducible_gamma(m):
    _assert_certified(GammaMatrix(m, "brute_force_tv"))


@pytest.mark.parametrize("n_blocks,eps", [(1, 0.3), (2, 0.0), (7, 0.25), (40, 0.9)])
def test_operator_norm_is_an_upper_bound_on_ergodic_gamma(n_blocks, eps):
    for path in BOTH_PATHS:
        _assert_certified(path(gamma_ergodic(n_blocks, eps)))


def test_operator_norm_is_an_upper_bound_on_long_contractive_gamma():
    rng = np.random.default_rng(9)
    n = int(rng.integers(300, 1001))
    thetas = rng.uniform(0.3, 1.0, n - 1)
    for path in BOTH_PATHS:
        # power iteration stopped at 3.333206113577081 here, 4.1e-8 below the norm
        g = path(gamma_contractive([0.7] * 999))
        assert operator_norm(g) >= 3.333206250053563
        _assert_certified(g)
        # a case whose bound from the dense inverse iteration alone is 3.7e-12
        # above the norm: entries of x near 1e-20 need the power step
        _assert_certified(path(gamma_contractive(thetas)))


SPECIAL_THETAS = [0.0, 1.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 1e-8]


@st.composite
def theta_lists(draw):
    """n - 1 thetas for n in 1..400, with exact 0s (a reducible Gamma), 1s and subnormals."""
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = rng.uniform(draw(st.sampled_from([0.0, 0.5, 0.9, 0.999])), 1.0, n - 1)
    if n > 1:
        for i, value in draw(st.lists(st.tuples(st.integers(0, n - 2), st.sampled_from(
                SPECIAL_THETAS) | st.floats(0.0, 1.0)), max_size=12)):
            thetas[i] = value
    return thetas


@given(theta_lists())
@example(np.zeros(50))
@example(np.ones(399))
@example(np.full(120, 5e-324))
@example(np.array([0.9] * 30 + [0.0] + [0.9] * 30))  # two equal blocks
@example(np.array([0.5] * 10 + [1e-310] + [0.95] * 60 + [0.0] + [1.0] * 5))
def test_factor_norm_is_certified_on_any_thetas(thetas):
    _assert_certified(gamma_contractive(thetas))


@given(st.integers(1, 400), st.just(0.0) | st.floats(0.0, 1.0, exclude_max=True))
@example(1, 0.0)
@example(400, 0.0)
@example(300, 0.999)
def test_factor_norm_is_certified_on_any_ergodic_gamma(n_blocks, eps):
    _assert_certified(gamma_ergodic(n_blocks, eps))


@st.composite
def brute_gammas(draw):
    """wasserstein_matrix_tv of a chain of n in 1..40 coordinates of 1-5 states,
    where about a third of the states are reached by no row: zero marginals."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows(count, size):
        p = rng.exponential(size=(count, size)) ** draw(st.sampled_from([1.0, 4.0]))
        dead = rng.random(size) < 0.3
        dead[rng.integers(size)] = False
        p[:, dead] = 0.0
        return p / p.sum(axis=1, keepdims=True)

    kernels = tuple(Kernel(rows(a, b)) for a, b in zip(sizes, sizes[1:]))
    spec = validate_chain(ChainSpec(tuple(sizes), Distribution(rows(1, sizes[0])[0]), kernels))
    return wasserstein_matrix_tv(spec)


@given(brute_gammas())
def test_dense_norm_is_certified_on_any_brute_gamma(g):
    _assert_certified(g)


def test_factors_are_the_bidiagonal_pair_of_gamma(rng):
    for g in (gamma_contractive(rng.random(9)), gamma_ergodic(10, 0.3), gamma_ergodic(10, 0.0)):
        a, b = g.factors
        big_a, big_b = np.eye(10) + np.diag(a, 1), np.eye(10) + np.diag(b, 1)
        assert_allclose(big_a @ np.linalg.inv(big_b), g.entries, rtol=1e-14, atol=1e-15)


def test_wrong_factors_only_loosen_the_bound():
    g = gamma_contractive([0.7] * 99)
    for wrong in ((np.zeros(99), np.zeros(99)), (np.full(99, math.nan), -g.factors[1]),
                  (g.factors[1], g.factors[0])):
        assert operator_norm(GammaMatrix(g.entries, "contractive", wrong)) >= operator_norm(_dense(g))
    with pytest.raises(ValidationError):
        GammaMatrix(g.entries, "contractive", (np.zeros(98), np.zeros(98)))


@pytest.mark.parametrize("method", ["contractive", "ergodic", "brute_force"])
def test_certify_needs_no_lapack(monkeypatch, method):
    """Factored Gammas call no LAPACK routine; a brute-force one factors its
    Gram matrix but needs no eigensolver."""
    def fail(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    if method != "brute_force":
        monkeypatch.setattr(np.linalg, "cholesky", fail)
    spec = homogeneous_chain([[0.9, 0.1], [0.2, 0.8]], 300)
    report = certify(spec, LipschitzWeights(np.ones(300)), method, eps=0.25)
    monkeypatch.undo()
    assert report.sigma2_opnorm >= 0.25 * oracles.spectral_norm(report.gamma.entries) ** 2 * \
        float(report.effective_weights @ report.effective_weights)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_operator_norm_rejects_non_finite_entries(bad):
    m = np.array([[1.0, bad], [0.0, 1.0]])
    for g in (GammaMatrix(m, "brute_force_tv"), GammaMatrix(m, "contractive", ([0.0], [-0.5]))):
        with pytest.raises(ValidationError, match="finite"):
            operator_norm(g)


def test_operator_norm_of_a_gamma_whose_gram_overflows_is_infinite():
    m = np.array([[1.0, 1e200], [0.0, 1.0]])
    with np.errstate(all="ignore"):
        for factors in (None, ([1e200], [0.0])):
            assert operator_norm(GammaMatrix(m, "brute_force_tv", factors)) == math.inf


def test_factor_norm_allocates_no_gram():
    g = gamma_contractive(np.random.default_rng(3).uniform(0.3, 1.0, 1999))
    tracemalloc.start()
    try:
        operator_norm(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the 2000 x 2000 Gram matrix alone is 32 MB


def test_cholesky_failure_keeps_a_certified_bound(monkeypatch, tmp_path):
    """A factorization that fails stops Noda iteration at its last x; the
    Collatz-Wielandt bound at any positive x is still an upper bound."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(chainconc.gamma.np.linalg, "cholesky", fail)
    rng = np.random.default_rng(11)
    spec = random_chain(rng, n=40)
    for g in (GammaMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), "brute_force_tv"),
              wasserstein_matrix_tv(spec), _dense(gamma_contractive(rng.random(99)))):
        assert operator_norm(g) >= oracles.spectral_norm(g.entries)
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"kernel": [[0.9, 0.1], [0.2, 0.8]], "n": 4}))
    assert main(["certify", "--input", str(chain), "--method", "brute",
                 "--output", str(tmp_path / "o.json")]) == 0


def test_to_dict_keeps_the_bytes_of_tolist(rng):
    spec = random_chain(rng, n=6)
    hand = np.array([[1.0, 0.5, 0.25], [-0.0, 1.0, 0.5], [0.0, -0.0, 1.0]])
    for g in (gamma_contractive(rng.random(30)), gamma_ergodic(12, 0.4), wasserstein_matrix_tv(spec),
              GammaMatrix(hand, "brute_force_tv"), GammaMatrix(np.eye(0), "brute_force_tv")):
        want = {"shape": list(g.entries.shape), "provenance": g.provenance,
                "entries": g.entries.tolist()}
        assert json.dumps(g.to_dict()) == json.dumps(want)
    assert json.dumps(GammaMatrix(hand, "brute_force_tv").to_dict()).count("-0.0") == 2


# ---------------------------------------------------------------------------
# exact-arithmetic oracle: Gamma x, Gamma^T z and the certified bound


# 1 - 2^-52 is the largest theta below 1; 1e-160 and 1e-200 have products that
# underflow, to a subnormal and to 0
ORACLE_THETAS = [0.0, 1.0, 1.0 - 2.0**-52, 5e-324, np.finfo(float).tiny, 1e-160, 1e-200, 0.5]


@st.composite
def small_gammas(draw):
    """A contractive Gamma of n <= 40 with ORACLE_THETAS among its thetas, or an
    ergodic one of up to 40 blocks; factored, or its dense entries."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        g = gamma_contractive(draw(st.lists(st.sampled_from(ORACLE_THETAS) | st.floats(0.0, 1.0),
                                            min_size=n - 1, max_size=n - 1)))
    else:
        g = gamma_ergodic(n, draw(st.sampled_from([0.0, 1.0 - 2.0**-52, 1e-160, 0.5])
                                  | st.floats(0.0, 1.0, exclude_max=True)))
    return _dense(g) if draw(st.booleans()) else g


def _gamma_k(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53."""
    u = Fraction(1, 2**53)
    return k * u / (1 - k * u)


@settings(max_examples=60)
@given(small_gammas(), st.integers(0, 2**32 - 1))
def test_products_are_within_their_rounding_of_exact(g, seed):
    """Each entry of Gamma x and Gamma^T z, x >= 0, lies within gamma_{2n-1}
    relative of its exact value, plus up to 2^-1074 for each product that
    underflows."""
    rng = np.random.default_rng(seed)
    m, n = oracles.exact_gamma(g), g.n
    x = rng.uniform(0.0, 1.0, n) * 2.0 ** rng.integers(-1000, 10, n)
    for got, want in ((g.matvec(x), oracles.exact_matvec(m, x)),
                      (g.rmatvec(x), oracles.exact_rmatvec(m, x))):
        assert got.dtype == np.float64 and got.shape == (n,)
        for value, exact in zip(got.tolist(), want):
            slack = _gamma_k(2 * n - 1) * exact + n * Fraction(2) ** -1074
            assert abs(Fraction(value) - exact) <= slack


@settings(max_examples=60)
@given(small_gammas(), st.integers(0, 2**32 - 1))
def test_norm_is_at_or_above_the_exact_collatz_wielandt_value(g, seed):
    """The certified ||Gamma||^2 is at or above the exact Collatz-Wielandt
    value at its own x, and at any x in [2^-510, 2^512]."""
    m = oracles.exact_gamma(g)
    rng = np.random.default_rng(seed)
    spread = 2.0 ** rng.integers(-510, 512, g.n) * rng.uniform(1.0, 2.0, g.n)
    own = chainconc.gamma._search_vector(g)
    assert operator_norm(g) == chainconc.gamma._certified_norm(g, own)
    for x in (own, spread):
        norm = chainconc.gamma._certified_norm(g, x)
        assert norm == math.inf or Fraction(norm) ** 2 >= oracles.exact_collatz_wielandt(m, x)
