"""Seeded inputs and operation lists of the benchmark workloads.

``generate(workload, seed)`` is pure numpy and returns plain data: the JSON
documents to write, and the operations of one pass in order. The seed picks
the kernel entries, weights, policies' MDPs and sampling seeds; the sizes and
the contraction schedule of every chain are fixed by the workload, so the
work in a pass is the same for every seed and only its values change.

Slow-mixing chains use kernels K = theta * Q + (1 - theta) * 1 pi^T with Q
a random permutation: every product K_i ... K_{j-1} then has Dobrushin
coefficient exactly theta_i ... theta_{j-1}, so mixing times and the
contractive Gamma do not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

WORKLOADS = ("certify_sweep", "tail_mc", "policy_class")

DEMO_KERNEL = [[0.9, 0.1], [0.2, 0.8]]
DEMO_N = 20
DEMO_CAP = 2**21

# (S, homogeneous?, n, base theta) of the slow-mixing certify chains
SWEEP_CHAINS = (
    (2, True, 100, 0.80),
    (3, False, 400, 0.80),
    (4, True, 700, 0.85),
    (4, False, 1000, 0.80),
)
# (S, n) of the short inhomogeneous chains certified by enumeration. A pass has
# an odd number of ops (15), so the recorded op_p50_s (the median of per-op
# medians) is one op's median latency rather than the mean of two.
BRUTE_CHAINS = ((2, 14), (2, 15), (2, 16), (2, 18), (3, 10), (3, 11), (3, 12))
ERGODIC_EPS = 0.25

# The callable chain's length and the rl-verify replicate count are sized so
# several passes fit in one 30 s run on two cores: a pass takes 5-9 s. The
# 1e6-replicate pilot runs whatever the replicate count.
TAIL_S, TAIL_N = 4, 24
TAIL_REPLICATES = 10**5

MDP_S, MDP_A, MDP_H = 5, 3, 30
RL_REPLICATES = 2 * 10**3
# the policy_class warm-up runs rl-bound on a 4-policy MDP, so that set-up
# exercises the rl code path without repeating a timed op
WARMUP_MDP_S, WARMUP_MDP_A, WARMUP_MDP_H = 2, 2, 5


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, WORKLOADS.index(workload)]))


def theta_schedule(n: int, base: float, homogeneous: bool) -> np.ndarray:
    """Per-step contraction coefficients: constant, or a fixed ripple around base."""
    if homogeneous:
        return np.full(n - 1, base)
    return base + 0.05 * np.sin(2.0 * np.pi * np.arange(n - 1) / 7.0)


def permutation_kernel(rng, size: int, theta: float) -> np.ndarray:
    q = np.eye(size)[rng.permutation(size)]
    pi = rng.dirichlet(np.ones(size))
    return theta * q + (1.0 - theta) * pi[None, :]


def slow_chain_doc(rng, size: int, homogeneous: bool, n: int, base: float) -> dict:
    thetas = theta_schedule(n, base, homogeneous)
    doc = {"initial": rng.dirichlet(np.ones(size)).tolist(),
           "weights": rng.uniform(0.5, 1.5, n).tolist()}
    if homogeneous:
        doc.update(kernel=permutation_kernel(rng, size, base).tolist(), n=n)
    else:
        doc.update(coord_sizes=[size] * n,
                   kernels=[permutation_kernel(rng, size, t).tolist() for t in thetas])
    return doc


def dirichlet_chain_doc(rng, size: int, n: int) -> dict:
    return {"coord_sizes": [size] * n,
            "initial": rng.dirichlet(np.ones(size)).tolist(),
            "kernels": [rng.dirichlet(np.ones(size), size=size).tolist() for _ in range(n - 1)],
            "weights": rng.uniform(0.5, 1.5, n).tolist()}


def mdp_doc(rng, n_states: int = MDP_S, n_actions: int = MDP_A, horizon: int = MDP_H) -> dict:
    # Dirichlet(2) rows keep every induced chain's mixing time at 2 or 3 steps,
    # so the per-policy mixing-time work barely depends on the seed
    return {"S": n_states, "A": n_actions, "H": horizon,
            "initial": rng.dirichlet(np.ones(n_states)).tolist(),
            "transitions": rng.dirichlet(np.full(n_states, 2.0),
                                         size=(n_states, n_actions)).tolist(),
            "rewards": rng.uniform(0.0, 1.0, (n_states, n_actions)).tolist()}


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload: {"files": {name: doc}, "ops": [...], "warmup": op}.

    File names are relative to the run's input directory; ops name the files
    they read. Every op is a dict with a unique "name" and a "kind".
    """
    rng = rng_for(workload, seed)
    if workload == "certify_sweep":
        return _certify_sweep(rng)
    if workload == "tail_mc":
        return _tail_mc(rng)
    if workload == "policy_class":
        return _policy_class(rng)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _certify_sweep(rng) -> dict:
    files, ops = {}, []
    for size, homogeneous, n, base in SWEEP_CHAINS:
        label = f"S{size}-{'hom' if homogeneous else 'inh'}-n{n}"
        files[f"{label}.json"] = slow_chain_doc(rng, size, homogeneous, n, base)
        ops.append({"name": f"certify-contractive-{label}", "kind": "certify",
                    "input": f"{label}.json", "args": ["--method", "contractive"]})
        ops.append({"name": f"certify-ergodic-{label}", "kind": "certify",
                    "input": f"{label}.json",
                    "args": ["--method", "ergodic", "--eps", repr(ERGODIC_EPS)]})
    for size, n in BRUTE_CHAINS:
        label = f"S{size}-inh-n{n}"
        files[f"{label}.json"] = dirichlet_chain_doc(rng, size, n)
        ops.append({"name": f"certify-brute-{label}", "kind": "certify",
                    "input": f"{label}.json", "args": ["--method", "brute"]})
    return {"files": files, "ops": ops, "warmup": dict(ops[0], name="warmup")}


def _tail_mc(rng) -> dict:
    demo = {"kernel": DEMO_KERNEL, "n": DEMO_N, "initial": [0.5, 0.5]}
    files = {"demo_chain.json": demo}
    verify_ops = []
    for k in range(2):
        value = int(rng.integers(0, 2))
        files[f"demo_verify{k}.json"] = dict(demo, function={"name": "indicator_count",
                                                              "value": value})
        verify_ops.append({"name": f"verify-demo-{k}", "kind": "verify",
                           "input": f"demo_verify{k}.json", "certificate": "demo_cert.json",
                           "value": value, "seed": _seed(rng)})
    files["tail_chain.json"] = dirichlet_chain_doc(rng, TAIL_S, TAIL_N)
    value = int(rng.integers(0, TAIL_S))
    ops = [
        {"name": "demo", "kind": "demo", "seed": _seed(rng)},
        verify_ops[0],
        {"name": "empirical_tail-callable", "kind": "empirical_tail", "chain": "tail_chain.json",
         "value": value, "seed": _seed(rng)},
        verify_ops[1],
        {"name": "empirical_mgf-callable", "kind": "empirical_mgf", "chain": "tail_chain.json",
         "value": value, "seed": _seed(rng)},
    ]
    return {"files": files, "ops": ops,
            "warmup": dict(verify_ops[0], name="warmup", seed=_seed(rng))}


def _policy_class(rng) -> dict:
    files = {f"mdp{k}.json": mdp_doc(rng) for k in range(3)}
    files["warmup_mdp.json"] = mdp_doc(rng, WARMUP_MDP_S, WARMUP_MDP_A, WARMUP_MDP_H)
    ops = [
        {"name": "rl-bound-hamming", "kind": "rl-bound", "input": "mdp0.json",
         "args": ["--metric", "hamming"]},
        {"name": "rl-verify-hamming", "kind": "rl-verify", "input": "mdp1.json",
         "args": ["--metric", "hamming", "--replicates", str(RL_REPLICATES),
                  "--seed", str(_seed(rng))]},
        {"name": "rl-verify-mixing", "kind": "rl-verify", "input": "mdp2.json",
         "args": ["--metric", "mixing", "--replicates", str(RL_REPLICATES),
                  "--seed", str(_seed(rng))]},
    ]
    return {"files": files, "ops": ops,
            "warmup": dict(ops[0], name="warmup", input="warmup_mdp.json")}


def digest(inputs: dict) -> str:
    """sha256 of the canonical JSON of generated inputs."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
