"""Independent numpy oracles for the outputs of benchmark operations.

Each check returns a list of problems (empty when the output is right). They
run outside the timed passes and use only numpy and the generated inputs,
never chainconc.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

OPNORM_RTOL = 1e-6
GAMMA_ATOL = 1e-12
VALUE_ATOL = 1e-9


def chain_arrays(doc: dict) -> tuple[np.ndarray, list[np.ndarray]]:
    """(initial, kernels) of a chain document in either of its two forms."""
    if "kernel" in doc:
        k = np.asarray(doc["kernel"], dtype=float)
        init = doc.get("initial")
        init = np.full(k.shape[0], 1.0 / k.shape[0]) if init is None else np.asarray(init, float)
        return init, [k] * (int(doc["n"]) - 1)
    return np.asarray(doc["initial"], float), [np.asarray(k, float) for k in doc["kernels"]]


def dobrushin(k: np.ndarray) -> float:
    """Largest total-variation distance between two rows."""
    return 0.5 * float(np.abs(k[:, None, :] - k[None, :, :]).sum(axis=2).max())


def contractive_gamma(thetas) -> np.ndarray:
    """Entry (i, j) = theta_i * ... * theta_{j-1}."""
    th = np.asarray(thetas, float)
    g = np.eye(th.size + 1)
    for i in range(th.size):
        g[i, i + 1:] = np.cumprod(th[i:])
    return g


def brute_gamma(initial: np.ndarray, kernels) -> np.ndarray:
    """Entry (i, j) = Dobrushin coefficient of K_i ... K_{j-1} on the support of X_i."""
    n = len(kernels) + 1
    g = np.eye(n)
    law = initial
    for i in range(n - 1):
        support = np.flatnonzero(law > 0.0)
        prod = np.eye(kernels[i].shape[0])
        for j in range(i + 1, n):
            prod = prod @ kernels[j - 1]
            if support.size > 1:
                g[i, j] = dobrushin(prod[support])
        law = law @ kernels[i]
    return g


def sigma2_problems(gamma: np.ndarray, c: np.ndarray, exact: float, opnorm: float,
                    paper: float) -> tuple[list[str], float]:
    """Variance-proxy identities against LAPACK; also the operator-norm relative gap."""
    problems = []
    norm = float(np.linalg.norm(gamma, 2))
    cc = float(c @ c)
    ref = 0.25 * norm**2 * cc
    if not abs(opnorm - ref) <= OPNORM_RTOL * ref:
        problems.append(f"sigma2_opnorm {opnorm!r} vs LAPACK {ref!r}")
    if not exact <= opnorm:
        problems.append(f"sigma2_exact {exact!r} > sigma2_opnorm {opnorm!r}")
    if paper != 4.0 * opnorm:
        problems.append(f"sigma2_paper {paper!r} != 4 * sigma2_opnorm {opnorm!r}")
    gap = abs(norm - math.sqrt(paper / cc)) / norm if cc > 0 and norm > 0 else 0.0
    return problems, gap


def report_problems(report: dict, chain_doc: dict | None) -> tuple[list[str], float]:
    """Check one certify report; chain_doc enables the Gamma oracles."""
    gamma = np.asarray(report["gamma"]["entries"], float)
    problems, gap = sigma2_problems(gamma, np.asarray(report["effective_weights"], float),
                                    report["sigma2_exact"], report["sigma2_opnorm"],
                                    report["sigma2_paper"])
    if chain_doc is not None and report["method"] in ("contractive", "brute_force"):
        initial, kernels = chain_arrays(chain_doc)
        if report["method"] == "contractive":
            want = contractive_gamma([dobrushin(k) for k in kernels])
        else:
            want = brute_gamma(initial, kernels)
        err = float(np.abs(gamma - want).max()) if gamma.shape == want.shape else math.inf
        if not err <= GAMMA_ATOL:
            problems.append(f"{report['method']} Gamma differs from the oracle by {err!r}")
    return problems, gap


def coordinate_means(initial: np.ndarray, kernels) -> np.ndarray:
    """Marginal laws of X_0, ..., X_{n-1}, one row each."""
    laws = [initial]
    for k in kernels:
        laws.append(laws[-1] @ k)
    return np.array(laws)


def weighted_count_mean(chain_doc: dict, value: int, weights) -> float:
    """E sum_i c_i 1{X_i = value}."""
    initial, kernels = chain_arrays(chain_doc)
    return float(coordinate_means(initial, kernels)[:, value] @ np.asarray(weights, float))


def rl_problems(report: dict, mdp: dict) -> tuple[list[str], float]:
    """class_size, per-policy values by forward marginals, per-policy sigma2 identities."""
    S, A, H = int(mdp["S"]), int(mdp["A"]), int(mdp["H"])
    trans = np.asarray(mdp["transitions"], float)
    rewards = np.asarray(mdp["rewards"], float)
    initial = np.asarray(mdp["initial"], float)
    caps = np.asarray(mdp.get("stage_caps") or np.ones(H), float)
    problems = []
    bounds = report["bounds"]
    if bounds["class_size"] != A**S:
        problems.append(f"class_size {bounds['class_size']} != A^S = {A**S}")
    want_policies = [list(a) for a in itertools.product(range(A), repeat=S)]
    got_policies = [p["policy"]["actions"] for p in report["per_policy"]]
    if got_policies != want_policies:
        problems.append("per-policy list is not the A^S stationary policies in order")
        return problems, 0.0
    states = np.arange(S)
    gap = 0.0
    for entry, actions in zip(report["per_policy"], want_policies):
        kernel = trans[states, actions, :]
        reward = rewards[states, actions]
        law, value = initial, 0.0
        for _ in range(H):
            value += float(law @ reward)
            law = law @ kernel
        if not abs(entry["expected_value"] - value) <= VALUE_ATOL:
            problems.append(f"policy {actions}: expected_value {entry['expected_value']!r} "
                            f"vs forward marginals {value!r}")
        gamma = contractive_gamma([dobrushin(kernel)] * (H - 1))
        found, g = sigma2_problems(gamma, caps, entry["sigma2_exact"], entry["sigma2_opnorm"],
                                   entry["sigma2_paper"])
        problems += [f"policy {actions}: {p}" for p in found]
        gap = max(gap, g)
    return problems, gap
