"""Golden report corpus: sha256 of report bodies for fixed inputs.

A refactor must leave every one of these bytes unchanged. A documented
numeric fix updates the hash it moves and records why in CHANGES.md.
Report files are hashed with their ``meta`` block removed, because it holds
the output paths of the run.
"""

import hashlib
import json

import numpy as np

from chainconc import (
    HammingMetric,
    Policy,
    PolicyClass,
    TabularFunction,
    chain_from_dict,
    cli,
    empirical_mgf,
    empirical_sup_value,
    empirical_tail,
    local_oscillation_vector,
    martingale_brackets,
    mdp_from_dict,
)
from chainconc.cli import main
from chainconc.errors import json_default

GOLDEN = {
    "demo/demo_certificate.json":
        "edd3bc129a9ba6da9bc19b4bee29797af531eceb10648bb3af0fb76985937e66",
    "demo/demo_certificate_ergodic.json":
        "ff591ee70ee2e902f62bfc8e1073db3355c4ee954af5fc424becb75478910c2b",
    "demo/demo_tail.json":
        "b52d96e71abb1f7a94dc8ec37b9b2dd201c90243fe71e15e0ef986ec7a1a4f6f",
    "verify/tail.json":
        "318289b4dead9e5bf076fdb08cec14355d01c3b99563ebd2dfdd75f21e0a89b7",
    "rl-verify/rl_verify.json":
        "9f019ee3f03236cfc57385da7493490fee4a2bfc59fd5294c03804d3bf1d6ea5",
    "empirical_tail":
        "074ab4b3c2a056f415e533ebfade19b3f5293e9f9b75bbda13250dbee584f732",
    "empirical_mgf":
        "1cd21a0de80a4f46bc2342bcbe5e3d3f09997ec003285b87f09c947b09f17f42",
    "certify/contractive":
        "c7d6cf5fdfd60efb6b27dbec7a8c5ecfb563307a34fdd7dbd5d16a0f7fb942d6",
    "certify/ergodic":
        "c596daaedfb44630f3b6357c97957965d87e848e4188d4e583bda9aa50cbb169",
    "certify/brute":
        "45b3fcfc8ca0d3aac1e713a9789f3ee49db77ebcb43261569721db978bcb802b",
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
        "b59642dc47cd9938831fe047fb22177ce10510b16b7a15135337b06a5d7f6ee4",
    "rl-bound/mixing":
        "4aae11cc07b29589850528ed2fd215f599230a631e7cd22d4b621a7a1fe158f6",
    "rl-bound/brute":
        "96e83fe58502b2ec2c524a7ce442343143169acdcd2e499031e3f2fab898710d",
    "rl-bound/exact":
        "b267b47e363dd0abd2c190c67a2b3bf400b0b4e61df66b7cab7177d2f85d3167",
    "rl-bound/paper":
        "a75ed0fb3ca798c819398aed6ecc4aa9b51e591a8240ce4ee672750874ec6143",
    "rl-verify/mixing":
        "5b55af09199a7d58deecfebf2baddce72f013667af01197482dedcc94443a2d7",
    "empirical_sup_value/zero_entries":
        "545f930cf300b05f569732f5c6a08924b965053ae8e11c7e06da81500b69430c",
    "verify/indicator_count":
        "09c4409338338d2205be97b0de110e74a581513259fbbe595c3eb3edb6b3b713",
    "verify/coordinate_sum":
        "beaeb87d53c7c8d06b62826034b84a1e33e1f2d53e316277650a8ef0e1d7a91b",
    "certify/brute_homogeneous":
        "e568967ec2ac964c47a244aa2eaac44fdd6247727598896a3934587102ab7543",
    "mix/homogeneous":
        "3f1bbbe8f409221083befc67eb458e2f0226e1cbd57c30d40dd7d7a8c2bd3e38",
    "martingale_brackets":
        "5c21bad8845f9252ca7b77732b68ab9876dbd64817d175f5b62367094770cfff",
    "rl-bound/hamming_scale":
        "a5a50add7a79baf9cd9ac55876a8c96eb0ce5574ba60ecb5d515ae7f5e340241",
    "rl-bound/mixing_scale":
        "41761bea05b702ccf4579d5510e9f8d7d66a17bdfeab3bd91d65baf6ffa18328",
    "rl-bound/ergodic":
        "4db3b398dc8f297a4afe2619233af7097105f1b7e52029d11a1c3376a1a775ed",
    "rl-verify/ergodic_mixing":
        "6c4791d4c24c8ab1e61e9316f5c5b21aaf1e800787458e7d85e89211fab08208",
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
    # its oscillations, 2.8-2.9, exceed the default unit weights: the run is
    # repeated with explicit weights at the end
    unweighted = {"verify/tail.json": (doc, ["--replicates", "5000", "--seed", "9"])}

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
        "rl-bound/brute": ["rl-bound", "--input", mdp_file, "--method", "brute"],
        "rl-bound/exact": ["rl-bound", "--input", mdp_file, "--convention", "exact"],
        "rl-bound/paper": ["rl-bound", "--input", mdp_file, "--convention", "paper"],
        "rl-verify/mixing": ["rl-verify", "--input", mdp_file, "--metric", "mixing",
                             "--replicates", "3000", "--seed", "6"],
    }
    for name, argv in runs.items():
        report = tmp_path / (name.replace("/", "-") + ".json")
        assert main(argv + ["--output", str(report)]) == 0, name
        out[name] = _body_sha(report)

    # a random class on an MDP with zero transition entries: the distinct
    # tables among 49 draws (the later entries depend on that draw count)
    trans = rng.dirichlet(np.ones(4), size=(4, 3))
    trans[:, :, ::3] = 0.0
    trans /= trans.sum(axis=2, keepdims=True)
    zero_mdp = mdp_from_dict({"S": 4, "A": 3, "H": 6, "initial": [0.1, 0.2, 0.3, 0.4],
                              "transitions": trans.tolist(),
                              "rewards": rng.uniform(0, 1, (4, 3)).tolist()})
    tables = dict.fromkeys(tuple(rng.integers(0, 3, 4).tolist()) for _ in range(49))
    out["empirical_sup_value/zero_entries"] = _sha(empirical_sup_value(
        zero_mdp, PolicyClass(tuple(map(Policy, tables)), HammingMetric()), replicates=5000,
        seed=8, chunks=3).to_dict())

    # a named function, additive and so not tabulated, with a --cap that nothing reads
    named = dict(_chain_doc(rng, (3, 2, 4, 3)), function={"name": "indicator_count", "value": 2})
    tail = tmp_path / "named_tail.json"
    assert main(["verify", "--input", _write(tmp_path / "named.json", named), "--cap", "72",
                 "--output", str(tail), "--replicates", "4000", "--seed", "12"]) == 0
    out["verify/indicator_count"] = _body_sha(tail)

    # every bracket of a chain with zero transitions and a size-1 coordinate
    spec = chain_from_dict(_chain_doc(rng, (3, 1, 4, 2, 3), zero_every=3))
    f = TabularFunction(rng.normal(size=spec.joint_size()))
    out["martingale_brackets"] = _sha([
        {"coordinate": br.coordinate, "lower": br.lower.tolist(), "upper": br.upper.tolist(),
         "prefix_probs": br.prefix_probs.tolist(), "width": br.width,
         "oscillation_bound": br.oscillation_bound}
        for br in (martingale_brackets(f, spec, i) for i in range(spec.n))])

    # the other named function, with zero transitions and a size-1 coordinate
    # (oscillations 1, 3, 0, 2, 2 against the default unit weights)
    named = dict(_chain_doc(rng, (2, 4, 1, 3, 3), zero_every=2), function={"name": "coordinate_sum"})
    unweighted["verify/coordinate_sum"] = (named, ["--cap", "72", "--replicates", "4000",
                                                    "--seed", "13"])

    # a homogeneous chain never enters state 1, so every coordinate's support
    # is a strict subset and every lag has one product shared by all positions
    kernel = rng.dirichlet(np.ones(4), size=4)
    kernel[:, 1] = 0.0
    kernel /= kernel.sum(axis=1, keepdims=True)
    shared = _write(tmp_path / "shared.json", {"kernel": kernel.tolist(), "n": 8,
                                               "initial": [0.5, 0.0, 0.3, 0.2]})
    runs = {
        "certify/brute_homogeneous": ["certify", "--input", shared, "--method", "brute",
                                      "--convention", "exact"],
        "mix/homogeneous": ["mix", "--input", shared, "--eps", "0.05"],
        # non-unit scales, which the traversal multiplies into every distance count
        "rl-bound/hamming_scale": ["rl-bound", "--input", mdp_file, "--metric", "hamming",
                                   "--scale", "0.37"],
        "rl-bound/mixing_scale": ["rl-bound", "--input", mdp_file, "--metric", "mixing",
                                  "--eps", "0.3", "--scale", "2.5"],
        # ergodic certificates keyed by their mixing time, at the default eps
        "rl-bound/ergodic": ["rl-bound", "--input", mdp_file, "--method", "ergodic"],
        "rl-verify/ergodic_mixing": ["rl-verify", "--input", mdp_file, "--method", "ergodic",
                                     "--metric", "mixing", "--replicates", "3000",
                                     "--seed", "14"],
    }
    for name, argv in runs.items():
        report = tmp_path / (name.replace("/", "-") + ".json")
        assert main(argv + ["--output", str(report)]) == 0, name
        out[name] = _body_sha(report)

    # inline verification rejects a function beyond its weights, the default
    # unit weights included; with its oscillations as weights it certifies
    for name, (doc, flags) in unweighted.items():
        report = tmp_path / (name.replace("/", "-").replace(".json", "") + ".json")
        argv = ["verify", *flags, "--output", str(report), "--input"]
        assert main(argv + [_write(tmp_path / "unweighted.json", doc)]) == 1, name
        assert not report.exists()
        spec = chain_from_dict(doc)
        weights = local_oscillation_vector(cli._load_function(doc, spec), spec)
        assert main(argv + [_write(tmp_path / "weighted.json",
                                   dict(doc, weights=weights.tolist()))]) == 0, name
        out[name] = _body_sha(report)
    return out


def test_golden_report_bytes(tmp_path):
    assert golden_hashes(tmp_path) == GOLDEN


def test_report_writer_matches_json_dump_on_the_corpus(tmp_path, monkeypatch):
    write = cli._write_json
    written = []

    def checked_write(path, doc):
        write(path, doc)
        with open(path, "rb") as fh:
            want = json.dumps(doc, indent=2, sort_keys=True, default=json_default) + "\n"
            assert fh.read() == want.encode(), path
        written.append(path)

    monkeypatch.setattr(cli, "_write_json", checked_write)
    golden_hashes(tmp_path)
    assert len(written) == 29


def test_only_reports_with_a_gamma_format_floats_by_float_text(tmp_path, monkeypatch,
                                                               float_text_sizes):
    # float_text and its tables pay off only on a Gamma's n^2 entries: a tail,
    # coupling, mix or rl report is written by the stdlib alone
    write = cli._write_json
    made = {}

    def spied_write(path, doc):
        float_text_sizes.clear()
        write(path, doc)
        made[path] = ("gamma" in doc.get("report", doc), len(float_text_sizes))

    monkeypatch.setattr(cli, "_write_json", spied_write)
    golden_hashes(tmp_path)
    with_gamma = {path: n for path, (gamma, n) in made.items() if gamma}
    without = {path: n for path, (gamma, n) in made.items() if not gamma}
    assert len(with_gamma) == 11 and len(without) == 18
    assert all(n >= 1 for n in with_gamma.values()), with_gamma
    assert not any(without.values()), without
