import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import chainconc.gamma
import oracles
from chainconc import (
    ConvergenceError,
    GammaMatrix,
    ValidationError,
    gamma_contractive,
    gamma_ergodic,
    operator_norm,
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
    for n_blocks, eps in cases:
        expected = oracles.ergodic_gamma_entries(n_blocks, eps)
        assert gamma_ergodic(n_blocks, eps).entries.tobytes() == expected.tobytes()


def test_ergodic_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        gamma_ergodic(0, 0.5)
    with pytest.raises(ValidationError):
        gamma_ergodic(3, 1.0)


def test_gamma_matrix_invariants_enforced():
    with pytest.raises(ValidationError):
        GammaMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]), "contractive")  # not triangular
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


def _assert_certified(m):
    """operator_norm is never below the SVD norm and within 1e-12 relative of it."""
    norm, ref = operator_norm(GammaMatrix(m, "brute_force_tv")), oracles.spectral_norm(m)
    assert norm >= ref
    assert (norm - ref) / ref <= 1e-12


def test_operator_norm_is_an_upper_bound_on_random_triangular(rng):
    for _ in range(200):
        n = int(rng.integers(1, 61))
        m = np.triu(rng.random((n, n)) * rng.choice([1e-3, 1.0, 10.0]))
        m[rng.random((n, n)) < rng.random()] = 0.0  # sparse, often reducible
        np.fill_diagonal(m, 1.0)
        _assert_certified(m)


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
    _assert_certified(m)


@pytest.mark.parametrize("n_blocks,eps", [(1, 0.3), (2, 0.0), (7, 0.25), (40, 0.9)])
def test_operator_norm_is_an_upper_bound_on_ergodic_gamma(n_blocks, eps):
    _assert_certified(gamma_ergodic(n_blocks, eps).entries)


def test_operator_norm_is_an_upper_bound_on_long_contractive_gamma():
    # power iteration stopped at 3.333206113577081 here, 4.1e-8 below the norm
    m = gamma_contractive([0.7] * 999).entries
    assert operator_norm(GammaMatrix(m, "contractive")) >= 3.333206250053563
    _assert_certified(m)
    # a case whose bound from the inverse iteration alone is 3.7e-12 above the
    # norm: entries of x near 1e-20 need the power step
    rng = np.random.default_rng(9)
    n = int(rng.integers(300, 1001))
    _assert_certified(gamma_contractive(rng.uniform(0.3, 1.0, n - 1)).entries)


def test_lapack_failure_raises_convergence_error(monkeypatch, tmp_path):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(chainconc.gamma.np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError):
        operator_norm(gamma_contractive([0.5, 0.5]))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"kernel": [[0.9, 0.1], [0.2, 0.8]], "n": 4}))
    assert main(["certify", "--input", str(chain), "--output", str(tmp_path / "o.json")]) == 1
