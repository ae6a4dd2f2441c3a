import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chainconc import (
    ChainSpec,
    Distribution,
    Kernel,
    ValidationError,
    chain_from_dict,
    dobrushin_coefficient,
    goldstein_coupling,
    homogeneous_chain,
    marginal,
    tv_distance,
    validate_chain,
    wasserstein_matrix_tv,
)
from chainconc.chain import block_law_given_coordinate
from conftest import random_chain, random_distribution

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]


def dist(*probs):
    return Distribution.from_array(list(probs))


def test_identical_laws_give_diagonal_coupling():
    p = dist(0.25, 0.5, 0.25)
    table = goldstein_coupling(p, p)
    assert_allclose(table.joint, np.diag(p.probs), atol=0)
    assert table.off_diagonal_mass() == 0.0


def test_disjoint_supports_put_all_mass_off_diagonal():
    table = goldstein_coupling(dist(1.0, 0.0), dist(0.0, 1.0))
    assert_allclose(table.joint, [[0.0, 1.0], [0.0, 0.0]], atol=0)
    assert table.off_diagonal_mass() == pytest.approx(1.0, abs=1e-15)


def test_worked_coupling_example():
    p, q = dist(0.5, 0.5), dist(0.8, 0.2)
    table = goldstein_coupling(p, q)
    assert_allclose(np.diag(table.joint), [0.5, 0.2], atol=1e-15)
    assert table.joint[1, 0] == pytest.approx(0.3, abs=1e-15)
    assert_allclose(table.row_marginal(), p.probs, atol=1e-12)
    assert_allclose(table.col_marginal(), q.probs, atol=1e-12)
    assert table.off_diagonal_mass() == pytest.approx(tv_distance(p, q), abs=1e-12)


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        goldstein_coupling(dist(1.0), dist(0.5, 0.5))


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_coupling_marginals_and_maximality(size, seed):
    rng = np.random.default_rng(seed)
    p = Distribution(random_distribution(rng, size, floor=0.0))
    q = Distribution(random_distribution(rng, size, floor=0.0))
    table = goldstein_coupling(p, q)
    assert np.all(table.joint >= 0)
    assert_allclose(table.row_marginal(), p.probs, atol=1e-12)
    assert_allclose(table.col_marginal(), q.probs, atol=1e-12)
    assert table.off_diagonal_mass() == pytest.approx(tv_distance(p, q), abs=1e-12)


def test_independent_coupling_never_beats_maximal(rng):
    # off-diagonal mass of any coupling is at least TV; equality singles out
    # the maximal construction
    strictly_worse = 0
    for _ in range(100):
        size = int(rng.integers(2, 9))
        p = Distribution(random_distribution(rng, size))
        q = Distribution(random_distribution(rng, size))
        tv = tv_distance(p, q)
        independent = np.outer(p.probs, q.probs)
        independent_mass = float(independent.sum() - np.trace(independent))
        assert independent_mass >= tv - 1e-12
        maximal_mass = goldstein_coupling(p, q).off_diagonal_mass()
        assert maximal_mass == pytest.approx(tv, abs=1e-12)
        if independent_mass > maximal_mass + 1e-9:
            strictly_worse += 1
    assert strictly_worse >= 95  # generic pairs: only the maximal coupling attains TV


# ---------------------------------------------------------------------------
# brute-force Gamma matrices


def test_product_chain_gamma_is_identity():
    k = [[0.3, 0.7], [0.3, 0.7]]
    spec = chain_from_dict({"coord_sizes": [2, 2, 2], "initial": [0.4, 0.6], "kernels": [k, k]})
    g = wasserstein_matrix_tv(spec)
    assert_allclose(g.entries, np.eye(3), atol=1e-15)


def test_two_state_chain_gamma_entries():
    spec = homogeneous_chain(TWO_STATE, 3, initial=[0.5, 0.5])
    g = wasserstein_matrix_tv(spec)
    assert g.entries[0, 1] == pytest.approx(0.7, abs=1e-12)
    assert g.entries[0, 2] == pytest.approx(0.49, abs=1e-12)
    assert g.entries[1, 2] == pytest.approx(0.7, abs=1e-12)
    # dominated by theta powers
    assert g.entries[0, 2] <= 0.7**2 + 1e-12


def test_permutation_chain_gamma_is_all_ones_upper_triangle():
    flip = [[0.0, 1.0], [1.0, 0.0]]
    spec = chain_from_dict(
        {"coord_sizes": [2, 2, 2, 2], "initial": [0.5, 0.5], "kernels": [flip] * 3}
    )
    g = wasserstein_matrix_tv(spec)
    assert_allclose(g.entries, np.triu(np.ones((4, 4))), atol=0)


def test_gamma_shape_invariants_and_contraction_domination(rng):
    for _ in range(10):
        spec = random_chain(rng)
        g = wasserstein_matrix_tv(spec).entries
        n = spec.n
        assert_allclose(np.diag(g), 1.0, atol=0)
        assert np.all(np.tril(g, -1) == 0)
        assert np.all((g >= 0) & (g <= 1 + 1e-15))
        thetas = [dobrushin_coefficient(k) for k in spec.kernels]
        for i in range(n):
            for j in range(i + 1, n):
                assert g[i, j] <= float(np.prod(thetas[i:j])) + 1e-12


def enumerated_gamma(spec):
    """Gamma by enumeration: TV between conditional block laws over the support."""
    m = np.eye(spec.n)
    for i in range(spec.n - 1):
        support = np.flatnonzero(marginal(spec, i).probs > 0.0)
        for j in range(i + 1, spec.n):
            laws = [block_law_given_coordinate(spec, i, int(x), j) for x in support]
            m[i, j] = max((tv_distance(a, b) for a, b in itertools.combinations(laws, 2)),
                          default=0.0)
    return m


def sparse_row(rng, size):
    """Dirichlet row with about a third of its entries zeroed, at least one kept."""
    p = rng.dirichlet(np.ones(size))
    p[rng.random(size) < 0.35] = 0.0
    if p.sum() == 0.0:
        p[rng.integers(size)] = 1.0
    return p / p.sum()


def test_closed_form_gamma_matches_enumeration(rng):
    zero_marginal = unit_coordinates = 0
    for _ in range(60):
        n = int(rng.integers(2, 7))
        sizes = tuple(int(rng.integers(1, 5)) for _ in range(n))
        spec = validate_chain(ChainSpec(
            sizes, Distribution(sparse_row(rng, sizes[0])),
            tuple(Kernel(np.stack([sparse_row(rng, sizes[i + 1]) for _ in range(sizes[i])]))
                  for i in range(n - 1))))
        zero_marginal += any((marginal(spec, i).probs == 0.0).any() for i in range(n))
        unit_coordinates += 1 in sizes
        assert_allclose(wasserstein_matrix_tv(spec).entries, enumerated_gamma(spec),
                        rtol=0, atol=1e-15)
    assert zero_marginal >= 20 and unit_coordinates >= 20
