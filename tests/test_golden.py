"""Golden report corpus: sha256 of report bodies for fixed inputs.

A refactor must leave every one of these bytes unchanged. A documented
numeric fix updates the hash it moves and records why in CHANGES.md.
Report files are hashed with their ``meta`` block removed, because it holds
the output paths of the run.
"""

import hashlib
import json

import numpy as np

from chainconc import chain_from_dict, empirical_mgf, empirical_tail
from chainconc.cli import main

GOLDEN = {
    "demo/demo_certificate.json":
        "7c0412309f49fd1f2d73bc8bd4a5d648352670147129560a6a255c748eea4eb7",
    "demo/demo_certificate_ergodic.json":
        "a8d34a8ace6800bc6982cbdf49d7efe200925a1117a0c5881774c067d4f137e2",
    "demo/demo_tail.json":
        "a6f2f94e1756af76b0e66c1640f5c23e6c619dee7f17e99b1b8a3aaa8f7dec8c",
    "verify/tail.json":
        "2e63f72c1dabe3f4de58353c7cb23db2a2cffe1e9b7e9f08f67422cf7334cdf1",
    "rl-verify/rl_verify.json":
        "617781c41382219550f8041e7bca9044c99269c57c86bdec147d4d1a2124a7cc",
    "empirical_tail":
        "074ab4b3c2a056f415e533ebfade19b3f5293e9f9b75bbda13250dbee584f732",
    "empirical_mgf":
        "d8e4a604a0a89ee317eb52cf075bd306e73e49b7eedcaada120ce4f661811a20",
    "certify/contractive":
        "210ac7a51b75f9100b97419e18c5f70ee556c399736e98d2d3370e6d7eff5bd3",
    "certify/ergodic":
        "e1b3f677791b50310fc31b611d8c8c923af4df67b99f276ea272e903d135a85e",
    "certify/brute":
        "58d96f9576846b54fb874a65880a33f46e725dee99dea6c2659b08577866b37c",
    "gamma/contractive":
        "1031e09c5a17ef444e33f527165c2700477b7c0f33364d55dcfd3b071ab58c4a",
    "gamma/ergodic":
        "b0843483d64f36a850cc690b2d7f90fbe7f5daa994f3115b263e00fde3032152",
    "gamma/brute":
        "93275712386c1eb4dca662312ceb327d97cd92e01977c0bd040d15d91708158f",
    "gamma/thetas":
        "748c27efeb3be8424e3a71c1ca29d6efcd3d74e3660f9e02fba98fc4a4a652f7",
    "gamma/n_blocks":
        "82c4586a0f944937e6b0681734b436dd18d92f583c2d6db972f651c9a6a27589",
    "coupling":
        "f1fa0c216fbeb388871a987474f65179f5fa0771fcfa6aecf98e0c6477eb661e",
    "mix":
        "2602372f7c06d4ddac859378f7cd2a3a9f35865cc45355dbe07542765fe806d7",
    "rl-bound/hamming":
        "ca5c8defa6d1446a24dfde351ca8fb360538c0b29d56d5be9c0a2897c3bd9292",
    "rl-bound/mixing":
        "b72b9b6f4f160a6f694bccb5cb8f37096a5909b25f6a708cd56375161f6aac13",
}


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _body_sha(path) -> str:
    doc = json.loads(path.read_text())
    doc.pop("meta")
    return _sha(doc)


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _chain_doc(rng, sizes, zero_every=0):
    """Inhomogeneous chain with Dirichlet rows; every zero_every-th entry zeroed."""
    def row(size):
        p = rng.dirichlet(np.ones(size))
        if zero_every and size > 1:
            p[::zero_every] = 0.0
            p /= p.sum()
        return p.tolist()

    return {"coord_sizes": list(sizes), "initial": row(sizes[0]),
            "kernels": [[row(sizes[i + 1]) for _ in range(sizes[i])]
                        for i in range(len(sizes) - 1)]}


def golden_hashes(tmp_path) -> dict:
    rng = np.random.default_rng(20261017)
    out = {}

    demo = tmp_path / "demo"
    assert main(["demo", "--output", str(demo), "--replicates", "3000", "--seed", "11"]) == 0
    for name in ("demo_certificate.json", "demo_certificate_ergodic.json", "demo_tail.json"):
        out[f"demo/{name}"] = _body_sha(demo / name)

    sizes = (2, 3, 3, 2, 4, 3)
    doc = _chain_doc(rng, sizes, zero_every=3)
    doc["function"] = rng.uniform(-1.0, 2.0, int(np.prod(sizes))).tolist()
    tail = tmp_path / "tail.json"
    assert main(["verify", "--input", _write(tmp_path / "verify.json", doc),
                 "--output", str(tail), "--replicates", "5000", "--seed", "9"]) == 0
    out["verify/tail.json"] = _body_sha(tail)

    trans = rng.dirichlet(np.ones(3), size=(3, 2))
    mdp = {"S": 3, "A": 2, "H": 7, "initial": [0.2, 0.3, 0.5],
           "transitions": trans.tolist(), "rewards": rng.uniform(0, 1, (3, 2)).tolist()}
    mdp_file = _write(tmp_path / "mdp.json", mdp)
    rlv = tmp_path / "rl_verify.json"
    assert main(["rl-verify", "--input", mdp_file,
                 "--output", str(rlv), "--replicates", "3000", "--seed", "5"]) == 0
    out["rl-verify/rl_verify.json"] = _body_sha(rlv)

    # a callable without BLAS: a row-wise numpy reduction of a C-ordered matrix
    spec = chain_from_dict(_chain_doc(rng, (4,) * 12, zero_every=4))
    weights = np.linspace(0.5, 1.5, spec.n)

    def f(states):
        return ((states == 1) * weights).sum(axis=1)

    out["empirical_tail"] = _sha(
        empirical_tail(spec, f, 3.0, replicates=5000, seed=3, chunks=3).to_dict())
    out["empirical_mgf"] = _sha(empirical_mgf(spec, f, 3.0, replicates=5000, seed=4).to_dict())

    # Gamma constructions, certificates and the remaining subcommands. The
    # brute chain has zero-marginal states, so its Gamma rows are restricted
    # to the support of each coordinate.
    brute = _write(tmp_path / "brute.json", _chain_doc(rng, (3, 4, 4, 3, 5, 3, 4), zero_every=3))
    mixing = _write(tmp_path / "mixing.json", _chain_doc(rng, (3,) * 9))
    contract = _write(tmp_path / "contract.json", _chain_doc(rng, (2, 3, 3, 2, 4, 3)))
    runs = {
        "certify/contractive": ["certify", "--input", contract, "--method", "contractive",
                                "--convention", "exact"],
        "certify/ergodic": ["certify", "--input", mixing, "--method", "ergodic",
                            "--eps", "0.25"],
        "certify/brute": ["certify", "--input", brute, "--method", "brute",
                          "--convention", "paper"],
        "gamma/contractive": ["gamma", "--input", contract, "--method", "contractive"],
        "gamma/ergodic": ["gamma", "--input", mixing, "--method", "ergodic", "--eps", "0.25"],
        "gamma/brute": ["gamma", "--input", brute, "--method", "brute"],
        "gamma/thetas": ["gamma", "--input", _write(tmp_path / "thetas.json",
                                                    {"thetas": [0.3, 0.9, 0.55, 0.7]})],
        "gamma/n_blocks": ["gamma", "--input", _write(tmp_path / "blocks.json", {"n_blocks": 5}),
                           "--method", "ergodic", "--eps", "0.3"],
        "coupling": ["coupling", "--input", _write(
            tmp_path / "pq.json", {"p": rng.dirichlet(np.ones(5)).tolist(),
                                   "q": rng.dirichlet(np.ones(5)).tolist()})],
        "mix": ["mix", "--input", mixing, "--eps", "0.1"],
        "rl-bound/hamming": ["rl-bound", "--input", mdp_file, "--metric", "hamming"],
        "rl-bound/mixing": ["rl-bound", "--input", mdp_file, "--metric", "mixing",
                            "--eps", "0.3", "--method", "ergodic"],
    }
    for name, argv in runs.items():
        report = tmp_path / (name.replace("/", "-") + ".json")
        assert main(argv + ["--output", str(report)]) == 0, name
        out[name] = _body_sha(report)
    return out


def test_golden_report_bytes(tmp_path):
    assert golden_hashes(tmp_path) == GOLDEN
