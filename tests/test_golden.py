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
    rlv = tmp_path / "rl_verify.json"
    assert main(["rl-verify", "--input", _write(tmp_path / "mdp.json", mdp),
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
    return out


def test_golden_report_bytes(tmp_path):
    assert golden_hashes(tmp_path) == GOLDEN
