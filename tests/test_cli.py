import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainconc
import oracles
from chainconc import (EnumerationCapError, TabularFunction, ValidationError, chain_from_dict,
                       cli, homogeneous_chain)
from chainconc.cli import main
from chainconc.errors import RowStream, json_default

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]


def indicator_table(grids):
    """indicator_count of state 1, as TabularFunction.from_vectorized tabulates it."""
    return sum((g == 1).astype(float) for g in grids)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def exit_code(argv):
    """What main returns, or the code of the SystemExit a rejected flag raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def chain_file(tmp_path):
    return write_json(
        tmp_path / "chain.json",
        {"kernel": TWO_STATE, "n": 8, "initial": [0.5, 0.5], "weights": [1.0] * 8},
    )


def test_certify_writes_report_and_curve(tmp_path, chain_file):
    out = tmp_path / "cert.json"
    assert main(["certify", "--input", chain_file, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "chainconc"
    assert doc["meta"]["version"]
    assert doc["report"]["sigma2_opnorm"] == 0.25 * doc["report"]["sigma2_paper"]
    assert any("1/4" in line for line in doc["report"]["caveats"])
    curve = (tmp_path / "cert.csv").read_text()
    assert curve.startswith("t,bound\n")


def test_certify_methods_agree_with_library(tmp_path, chain_file):
    out = tmp_path / "cert.json"
    assert main(["certify", "--input", chain_file, "--output", str(out),
                 "--method", "ergodic", "--eps", "0.25"]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["details"]["tau"] == 4
    assert main(["certify", "--input", chain_file, "--output", str(out),
                 "--method", "brute"]) == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["gamma"]["provenance"] == "brute_force_tv"


def test_verify_accepts_good_certificate(tmp_path):
    chain = write_json(
        tmp_path / "chain.json",
        {"kernel": TWO_STATE, "n": 8, "initial": [0.5, 0.5],
         "weights": [1.0] * 8, "function": {"name": "indicator_count", "value": 1}},
    )
    cert = tmp_path / "cert.json"
    assert main(["certify", "--input", chain, "--output", str(cert)]) == 0
    out = tmp_path / "tail.json"
    code = main(["verify", "--input", chain, "--certificate", str(cert),
                 "--output", str(out), "--replicates", "5000", "--seed", "4"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["tail"]["violations"] == []
    assert (tmp_path / "tail.csv").read_text().startswith("t,empirical,se,bound\n")
    assert_tail_csv_is_the_json(tmp_path / "tail.csv", doc["tail"])


def assert_csv_columns_are(path, columns):
    """Every CSV field is a plain float, bitwise the JSON value in its column."""
    header, *rows = path.read_text().splitlines()
    assert len(rows) == len(columns[0])
    for row, *values in zip(rows, *columns):
        fields = row.split(",")
        assert len(fields) == len(values) == len(header.split(","))
        assert [float(x).hex() for x in fields] == [float(v).hex() for v in values], row


def assert_tail_csv_is_the_json(path, tail):
    assert_csv_columns_are(path, [tail[k] for k in ("t_grid", "empirical", "standard_errors",
                                                      "bound")])


def test_verify_flags_absurd_certificate_with_exit_3(tmp_path):
    chain = write_json(
        tmp_path / "chain.json",
        {"kernel": TWO_STATE, "n": 8, "initial": [0.5, 0.5],
         "function": {"name": "indicator_count", "value": 1}},
    )
    fake = write_json(tmp_path / "fake_cert.json", {"report": {"sigma2_opnorm": 1e-4}})
    code = main(["verify", "--input", chain, "--certificate", fake,
                 "--output", str(tmp_path / "tail.json"), "--replicates", "5000"])
    assert code == 3


def test_verify_violation_line_prints_plain_floats(tmp_path, capsys):
    chain = write_json(
        tmp_path / "chain.json",
        {"kernel": TWO_STATE, "n": 8, "initial": [0.5, 0.5],
         "function": {"name": "indicator_count", "value": 1}},
    )
    fake = write_json(tmp_path / "fake_cert.json", {"report": {"sigma2_opnorm": 1e-4}})
    out = tmp_path / "tail.json"
    assert main(["verify", "--input", chain, "--certificate", fake,
                 "--output", str(out), "--replicates", "5000"]) == 3
    tail = json.loads(out.read_text())["tail"]
    i = max(tail["violations"], key=lambda k: tail["empirical"][k] - tail["bound"][k])
    assert capsys.readouterr().out == (
        f"VIOLATION: empirical tail exceeds bound + 2 SE at t = {tail['t_grid'][i]!r} "
        f"({tail['empirical'][i]!r} > {tail['bound'][i]!r} + 2*{tail['standard_errors'][i]!r})\n")


def test_coupling_subcommand(tmp_path):
    inp = write_json(tmp_path / "pq.json", {"p": [0.5, 0.5], "q": [0.5, 0.5]})
    out = tmp_path / "coupling.json"
    assert main(["coupling", "--input", inp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["off_diagonal_mass"] == 0.0
    assert doc["tv_distance"] == 0.0


def test_mix_reports_no_mix_with_exit_zero(tmp_path):
    chain = write_json(
        tmp_path / "chain.json",
        {"kernel": [[1.0, 0.0], [0.0, 1.0]], "n": 6},
    )
    out = tmp_path / "mix.json"
    assert main(["mix", "--input", chain, "--eps", "0.1", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["no_mix"] is True
    assert doc["tau"] is None


def test_mix_reports_tau(tmp_path, chain_file):
    out = tmp_path / "mix.json"
    assert main(["mix", "--input", chain_file, "--eps", "0.25", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["tau"] == 4


def test_gamma_subcommand_variants(tmp_path, chain_file):
    out = tmp_path / "gamma.json"
    assert main(["gamma", "--input", chain_file, "--method", "contractive",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["gamma"]["provenance"] == "contractive"
    thetas = write_json(tmp_path / "thetas.json", {"thetas": [0.5, 0.5]})
    assert main(["gamma", "--input", thetas, "--method", "contractive",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["gamma"]["entries"][0] == [1.0, 0.5, 0.25]
    blocks = write_json(tmp_path / "blocks.json", {"n_blocks": 4})
    assert main(["gamma", "--input", blocks, "--method", "ergodic", "--eps", "0.25",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["gamma"]["entries"][0] == [1.0, 1.0, 0.25, 0.0625]
    # ergodic from a chain derives the block count from the mixing time: n=8, tau=4
    assert main(["gamma", "--input", chain_file, "--method", "ergodic", "--eps", "0.25",
                 "--output", str(out)]) == 0
    assert json.loads(out.read_text())["gamma"]["shape"] == [2, 2]


def test_verify_without_certificate_certifies_inline(tmp_path):
    chain = write_json(
        tmp_path / "chain.json",
        {"kernel": TWO_STATE, "n": 8, "initial": [0.5, 0.5],
         "function": {"name": "indicator_count", "value": 1}},
    )
    out = tmp_path / "tail.json"
    assert main(["verify", "--input", chain, "--output", str(out),
                 "--replicates", "4000", "--seed", "2"]) == 0
    assert json.loads(out.read_text())["tail"]["violations"] == []


def test_inline_verify_rejects_a_function_beyond_its_weights(tmp_path, capsys):
    doc = {"kernel": [[0.5, 0.5], [0.5, 0.5]], "n": 1, "weights": [0.1], "function": [0.0, 1.0]}
    out = tmp_path / "tail.json"
    assert main(["verify", "--input", write_json(tmp_path / "chain.json", doc),
                 "--replicates", "1000", "--output", str(out)]) == 1
    assert "oscillation 1.0 at coordinate 0 exceeds its weight 0.1" in capsys.readouterr().err
    assert not out.exists()
    # weights that dominate the oscillation certify and verify as before
    doc["weights"] = [1.0]
    assert main(["verify", "--input", write_json(tmp_path / "chain.json", doc),
                 "--replicates", "1000", "--output", str(out)]) == 0
    # the default unit weights are checked as well
    out.unlink()
    del doc["weights"]
    doc["function"] = [0.0, 2.0]
    assert main(["verify", "--input", write_json(tmp_path / "chain.json", doc),
                 "--replicates", "1000", "--output", str(out)]) == 1
    assert "oscillation 2.0 at coordinate 0 exceeds its weight 1.0" in capsys.readouterr().err
    assert not out.exists()


def test_verify_against_a_certificate_does_not_scan_the_table(tmp_path, monkeypatch):
    chain = write_json(tmp_path / "chain.json",
                       {"kernel": TWO_STATE, "n": 6, "weights": [1.0] * 6,
                        "function": {"name": "indicator_count", "value": 1}})
    cert = tmp_path / "cert.json"
    assert main(["certify", "--input", chain, "--output", str(cert)]) == 0
    # a named function's oscillations are its rows' spreads: no joint table is read
    monkeypatch.setattr(chainconc.TabularFunction, "table",
                        lambda *a: pytest.fail("oscillations scanned"))
    rows = chainconc.AdditiveFunction.oscillations
    checked = []
    monkeypatch.setattr(chainconc.AdditiveFunction, "oscillations",
                        lambda *a: checked.append(1) or rows(*a))
    assert main(["verify", "--input", chain, "--certificate", str(cert),
                 "--replicates", "1000", "--output", str(tmp_path / "tail.json")]) == 0
    assert checked == [1]


def test_a_certificate_below_the_oscillation_exits_1(tmp_path, capsys):
    # weights that the function exceeds bound nothing: the input is at fault
    # (exit 1), not the certificate's mathematics (exit 3). A named function is
    # checked from its rows, a flat table by scanning it
    for function, osc in (({"name": "indicator_count"}, 1.0), ([0.0, 0.5] * 2048, 0.5)):
        doc = {"kernel": TWO_STATE, "n": 12, "weights": [0.05] * 12, "function": function}
        chain = write_json(tmp_path / "chain.json", doc)
        cert, out = tmp_path / "cert.json", tmp_path / "tail.json"
        assert main(["certify", "--input", chain, "--output", str(cert)]) == 0
        assert main(["verify", "--input", chain, "--certificate", str(cert),
                     "--replicates", "1000", "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"oscillation {osc} at coordinate " in err and "exceeds its weight 0.05" in err
        assert not out.exists()


def test_verify_of_a_named_function_runs_at_n_2000(tmp_path):
    # 2^2000 joint states: an additive function is sampled in blocks of 98
    # replicates and centred from its rows. The peak was 8.4 MB when written
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": 2000,
                                                 "function": {"name": "indicator_count"}})
    out = tmp_path / "tail.json"
    tracemalloc.start()
    try:
        assert main(["verify", "--input", chain, "--replicates", "1000", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tail = json.loads(out.read_text())["tail"]
    assert tail["center_method"] == "marginals" and tail["violations"] == []
    # P(X_i = 1) = 1/3 + (1/6) 0.7^i from the uniform start
    assert tail["center"] == pytest.approx(2000 / 3 + (1 - 0.7**2000) / 1.8, rel=1e-12)
    assert peak < 12 * 2**20


def test_malformed_input_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", "--input", str(bad), "--output", str(tmp_path / "o.json")]) == 1
    missing = str(tmp_path / "nope.json")
    assert main(["mix", "--input", missing, "--eps", "0.2",
                 "--output", str(tmp_path / "o.json")]) == 1
    bad_row = write_json(tmp_path / "badrow.json",
                         {"coord_sizes": [2, 2], "initial": [0.5, 0.5],
                          "kernels": [[[1.0, 0.5], [0.5, 0.5]]]})
    assert main(["certify", "--input", bad_row, "--output", str(tmp_path / "o.json")]) == 1
    capsys.readouterr()
    # a directory, a file that is not UTF-8 or JSON nested too deep to parse as
    # input, an output in a missing directory, and a demo directory that is a file
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": 4,
                                                 "function": {"name": "indicator_count"}})
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"kernel": "\xe9"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5)
    argvs = [
        ["mix", "--input", str(tmp_path), "--eps", "0.2", "--output", str(tmp_path / "o.json")],
        ["verify", "--input", chain, "--certificate", str(tmp_path),
         "--output", str(tmp_path / "o.json")],
        ["certify", "--input", str(latin1), "--output", str(tmp_path / "o.json")],
        ["certify", "--input", str(deep), "--output", str(tmp_path / "o.json")],
        ["certify", "--input", chain, "--output", str(tmp_path / "missing" / "cert.json")],
        ["mix", "--input", chain, "--eps", "0.2", "--output", str(tmp_path / "no" / "mix.json")],
        ["demo", "--output", chain, "--replicates", "1000"],
    ]
    for argv in argvs:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not (tmp_path / "o.json").exists()
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["certify", "verify"])
def test_an_output_that_is_its_own_csv_sibling_exits_1(tmp_path, capsys, monkeypatch, command):
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": 4,
                                                 "function": {"name": "indicator_count"}})
    out = tmp_path / "report.csv"
    # refused before any work: no chain is read, certified or sampled
    for name in ("chain_from_dict", "certify", "empirical_tail"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"{name} called"))
    assert main([command, "--input", chain, "--replicates", "1000", "--output", str(out)]
                if command == "verify" else [command, "--input", chain, "--output", str(out)]) == 1
    assert "its own CSV" in capsys.readouterr().err
    assert not out.exists()


def _demo_verify(tmp_path, cert_doc, *flags):
    """verify of indicator_count on the demo kernel at n = 12 against cert_doc."""
    chain = write_json(tmp_path / "demo12.json", {"kernel": TWO_STATE, "n": 12,
                                                  "function": {"name": "indicator_count"}})
    cert = write_json(tmp_path / "cert_doc.json", cert_doc)
    return main(["verify", "--input", chain, "--certificate", cert, "--replicates", "2000",
                 *flags, "--output", str(tmp_path / "tail.json")])


def _certificate(tmp_path, chain_doc, *flags):
    path = tmp_path / "made_cert.json"
    assert main(["certify", "--input", write_json(tmp_path / "made.json", chain_doc), *flags,
                 "--output", str(path)]) == 0
    return json.loads(path.read_text())


def test_verify_rejects_a_certificate_of_another_chain(tmp_path, capsys):
    # an unrelated n = 3 chain, whose sigma2 is far above the demo chain's
    other = _certificate(tmp_path, {"kernel": [[0.5, 0.5], [0.5, 0.5]], "n": 3,
                                    "weights": [30.0] * 3})
    assert _demo_verify(tmp_path, other) == 1
    assert "certificate weights length 3 does not match chain length 12" in \
        capsys.readouterr().err
    # the same length, another kernel
    other = _certificate(tmp_path, {"kernel": [[0.5, 0.5], [0.5, 0.5]], "n": 12})
    assert _demo_verify(tmp_path, other) == 1
    assert "certificate was built for another chain" in capsys.readouterr().err
    # this chain's own certificate, with its sigma2 raised by one ulp
    own = _certificate(tmp_path, {"kernel": TWO_STATE, "n": 12})
    own["report"]["sigma2_opnorm"] = math.nextafter(own["report"]["sigma2_opnorm"], math.inf)
    assert _demo_verify(tmp_path, own) == 1
    assert "certificate was built for another chain" in capsys.readouterr().err
    # an ergodic certificate at a level that the demo chain does not reach in 12 steps
    other = _certificate(tmp_path, {"kernel": [[0.5, 0.5], [0.5, 0.5]], "n": 12},
                         "--method", "ergodic", "--eps", "1e-6")
    assert _demo_verify(tmp_path, other) == 1
    assert "certificate was built for another chain: chain does not mix" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--method", "ergodic", "--eps", "0.25"],
                                   ["--method", "brute", "--convention", "exact"]])
def test_verify_accepts_the_chains_own_certificate(tmp_path, flags):
    """Rebuilt from the chain, its weights and its eps, the certificate matches bitwise."""
    own = _certificate(tmp_path, {"kernel": TWO_STATE, "n": 12}, *flags)
    assert _demo_verify(tmp_path, own, "--convention", own["report"]["convention"]) == 0


_HELP = ("help", ("-h", "--help"), "==SUPPRESS==", None, False, None)
_INPUT = ("input", ("--input",), None, None, True, None)
_METHOD = ("method", ("--method",), "contractive", ("contractive", "ergodic", "brute"), False,
           None)
_CONVENTION = ("convention", ("--convention",), "opnorm", ("exact", "opnorm", "paper"), False,
               None)
_CAP = ("cap", ("--cap",), None, None, False, "_positive_int")
_SEED = ("seed", ("--seed",), 42, None, False, "int")
_REPLICATES = ("replicates", ("--replicates",), 100000, None, False, "int")
_RL = [("eps", ("--eps",), 0.25, None, False, "float"),
       ("metric", ("--metric",), "hamming", ("hamming", "mixing"), False, None),
       ("scale", ("--scale",), 1.0, None, False, "float")]


def _output(default):
    return ("output", ("--output",), default, None, False, None)


FLAG_TABLE = {
    "certify": [_CONVENTION, ("eps", ("--eps",), None, None, False, "float"), _HELP, _INPUT,
                _METHOD, _output("certificate.json")],
    "coupling": [_HELP, _INPUT, _output("coupling.json")],
    "demo": [_CAP, _CONVENTION, _HELP, _output("chainconc-demo"), _REPLICATES, _SEED],
    "gamma": [("eps", ("--eps",), None, None, False, "float"), _HELP, _INPUT, _METHOD,
              _output("gamma.json")],
    "mix": [("eps", ("--eps",), None, None, True, "float"), _HELP, _INPUT, _output("mix.json")],
    "rl-bound": [_CAP, _CONVENTION, _RL[0], _HELP, _INPUT, _METHOD, _RL[1],
                 _output("rl_bounds.json"), _RL[2]],
    "rl-verify": [_CAP, _CONVENTION, _RL[0], _HELP, _INPUT, _METHOD, _RL[1],
                  _output("rl_verify.json"), _REPLICATES, _RL[2], _SEED],
    "verify": [_CAP, ("certificate", ("--certificate",), None, None, False, None), _CONVENTION,
               ("eps", ("--eps",), None, None, False, "float"), _HELP, _INPUT, _METHOD,
               _output("tail.json"), _REPLICATES, _SEED],
}


def test_every_subcommand_keeps_its_flag_table():
    parser = cli.build_parser()
    assert sorted((a.dest, tuple(a.option_strings), a.default, a.required)
                  for a in parser._actions) == [
        ("command", (), None, True), ("help", ("-h", "--help"), "==SUPPRESS==", False),
        ("version", ("--version",), "==SUPPRESS==", False)]
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    table = {name: sorted((a.dest, tuple(a.option_strings), a.default,
                           None if a.choices is None else tuple(a.choices), a.required,
                           None if a.type is None else a.type.__name__) for a in p._actions)
             for name, p in sub.choices.items()}
    assert table == FLAG_TABLE


META_CONFIGS = [
    (["certify", "--input", "c.json", "--method", "brute", "--convention", "exact"],
     {"command": "certify", "convention": "exact", "input": "c.json", "method": "brute_force",
      "output": "certificate.json"}),
    (["verify", "--input", "c.json", "--certificate", "cert.json", "--eps", "0.3", "--seed", "7",
      "--cap", "50"],
     {"cap": 50, "certificate": "cert.json", "command": "verify", "convention": "opnorm",
      "eps": 0.3, "input": "c.json", "method": "contractive", "output": "tail.json",
      "replicates": 100000, "seed": 7}),
    (["coupling", "--input", "pq.json"],
     {"command": "coupling", "input": "pq.json", "output": "coupling.json"}),
    (["mix", "--input", "c.json", "--eps", "0.25"],
     {"command": "mix", "eps": 0.25, "input": "c.json", "output": "mix.json"}),
    (["gamma", "--input", "c.json", "--method", "ergodic", "--eps", "0.2", "--output", "g.json"],
     {"command": "gamma", "eps": 0.2, "input": "c.json", "method": "ergodic",
      "output": "g.json"}),
    (["rl-bound", "--input", "m.json", "--metric", "mixing", "--scale", "2.5"],
     {"command": "rl-bound", "convention": "opnorm", "eps": 0.25, "input": "m.json",
      "method": "contractive", "metric": "mixing", "output": "rl_bounds.json", "scale": 2.5}),
    (["rl-verify", "--input", "m.json", "--method", "brute", "--replicates", "3000"],
     {"command": "rl-verify", "convention": "opnorm", "eps": 0.25, "input": "m.json",
      "method": "brute_force", "metric": "hamming", "output": "rl_verify.json",
      "replicates": 3000, "scale": 1.0, "seed": 42}),
    (["demo", "--output", "d", "--cap", "64", "--convention", "paper"],
     {"cap": 64, "command": "demo", "convention": "paper", "output": "d", "replicates": 100000,
      "seed": 42}),
]


def test_meta_config_of_every_subcommand(monkeypatch):
    seen = []
    for name in ("certify", "verify", "coupling", "mix", "gamma", "rl_bound", "rl_verify",
                 "demo"):
        monkeypatch.setattr(cli, f"_cmd_{name}", lambda args: seen.append(cli._meta(args)) or 0)
    for argv, _ in META_CONFIGS:
        assert main(argv) == 0
    assert seen == [{"tool": "chainconc", "version": chainconc.__version__, "config": config}
                    for _, config in META_CONFIGS]


def test_nan_kernel_mix_exits_1(tmp_path):
    chain = write_json(tmp_path / "chain.json",
                       {"kernel": [[0.5, 0.5], [float("nan"), 1.0]], "n": 6})
    assert main(["mix", "--input", chain, "--eps", "0.25",
                 "--output", str(tmp_path / "mix.json")]) == 1


def test_nan_function_table_verify_exits_1(tmp_path):
    table = [1.0] * 8
    table[5] = float("nan")
    chain = write_json(tmp_path / "chain.json",
                       {"kernel": TWO_STATE, "n": 3, "initial": [0.5, 0.5], "function": table})
    assert main(["verify", "--input", chain, "--output", str(tmp_path / "tail.json"),
                 "--replicates", "2000"]) == 1


def test_infinite_weight_certify_exits_1(tmp_path):
    chain = write_json(tmp_path / "chain.json",
                       {"kernel": TWO_STATE, "n": 4, "initial": [0.5, 0.5],
                        "weights": [1.0, float("inf"), 1.0, 1.0]})
    assert main(["certify", "--input", chain, "--output", str(tmp_path / "cert.json")]) == 1


def test_infeasible_enumeration_exits_2(tmp_path):
    # verify takes a named function as additive, so --cap no longer stops it;
    # tabulating the same function still reads the cap, and enumerating a
    # policy class past its cap is the CLI's infeasible enumeration
    doc = {"kernel": TWO_STATE, "n": 12, "function": {"name": "indicator_count"}}
    with pytest.raises(EnumerationCapError, match="4096 exceeds enumeration cap 100"):
        TabularFunction.from_vectorized(chain_from_dict(doc), indicator_table, cap=100)
    chain = write_json(tmp_path / "chain.json", doc)
    assert main(["verify", "--input", chain, "--cap", "100", "--replicates", "1000",
                 "--output", str(tmp_path / "o.json")]) == 0
    mdp = write_json(tmp_path / "mdp.json", _small_mdp())
    assert main(["rl-bound", "--input", mdp, "--cap", "3",
                 "--output", str(tmp_path / "rl.json")]) == 2


@pytest.mark.parametrize("function, code", [
    ({"name": "indicator_count", "value": 1}, 2),  # tabulation past the joint-space cap
    ([0.0, 1.0], 1),  # a flat table of the wrong length
])
def test_joint_size_messages_stay_short_at_n_2000(tmp_path, capsys, function, code):
    # the joint size 2^2000 has 603 digits; a message prints it as 10^602.1
    doc = {"kernel": TWO_STATE, "n": 2000, "function": function}
    if code == 2:
        # verify no longer tabulates a named function; the library's tabulation
        # does, and main would print its error as "infeasible: ..."
        with pytest.raises(EnumerationCapError) as exc:
            TabularFunction.from_vectorized(chain_from_dict(doc), indicator_table)
        err = f"infeasible: {exc.value}\n"
    else:
        chain = write_json(tmp_path / "chain.json", doc)
        assert main(["verify", "--input", chain, "--replicates", "1000",
                     "--output", str(tmp_path / "o.json")]) == code
        err = capsys.readouterr().err
    assert "10^602.1" in err and len(err.encode()) < 200


def test_brute_certify_has_no_enumeration_cap(tmp_path):
    # 2^40 joint states: far past any enumeration cap, closed form only
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": 40})
    out = tmp_path / "o.json"
    assert main(["certify", "--input", chain, "--method", "brute", "--output", str(out)]) == 0
    gamma = np.asarray(json.loads(out.read_text())["report"]["gamma"]["entries"])
    assert gamma.shape == (40, 40)
    assert gamma[0, 39] == pytest.approx(0.7**39, rel=1e-9)
    for command in ("certify", "gamma"):  # neither enumerates, so neither takes --cap
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", chain, "--method", "brute", "--cap", "100",
                  "--output", str(out)])
        assert exc.value.code == 1


@pytest.mark.parametrize("n", [1, 8])
def test_gamma_and_certify_ergodic_agree(tmp_path, n):
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": n})
    gamma, cert = tmp_path / "gamma.json", tmp_path / "cert.json"
    assert main(["gamma", "--input", chain, "--method", "ergodic", "--eps", "0.25",
                 "--output", str(gamma)]) == 0
    assert main(["certify", "--input", chain, "--method", "ergodic", "--eps", "0.25",
                 "--output", str(cert)]) == 0
    g = json.loads(gamma.read_text())["gamma"]
    assert g == json.loads(cert.read_text())["report"]["gamma"]
    assert g["shape"] == ([1, 1] if n == 1 else [2, 2])


@pytest.mark.parametrize("n", [1, 2])
def test_ergodic_eps_zero_exits_1_at_every_length(tmp_path, n):
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": n})
    out = str(tmp_path / "o.json")
    for command in ("certify", "gamma"):
        assert main([command, "--input", chain, "--method", "ergodic", "--eps", "0",
                     "--output", out]) == 1
    # the n_blocks form takes eps = 0 (a banded Gamma), as gamma_ergodic does
    blocks = write_json(tmp_path / "blocks.json", {"n_blocks": n})
    assert main(["gamma", "--input", blocks, "--method", "ergodic", "--eps", "0",
                 "--output", out]) == 0


def test_rl_policy_cap_exits_2(tmp_path, rng):
    trans = rng.dirichlet(np.ones(3), size=(3, 2))
    mdp = write_json(tmp_path / "mdp.json",
                     {"S": 3, "A": 2, "H": 4, "initial": [1 / 3] * 3,
                      "transitions": trans.tolist(), "rewards": rng.random((3, 2)).tolist()})
    out = str(tmp_path / "o.json")
    # 2^3 = 8 policies: a cap of 3 is exceeded, a cap of 8 is not
    assert main(["rl-bound", "--input", mdp, "--cap", "3", "--output", out]) == 2
    assert main(["rl-verify", "--input", mdp, "--cap", "3", "--replicates", "100",
                 "--output", out]) == 2
    assert main(["rl-verify", "--input", mdp, "--cap", "8", "--replicates", "100",
                 "--output", out]) == 0


def test_no_mix_certify_exits_2(tmp_path):
    chain = write_json(tmp_path / "chain.json", {"kernel": [[1.0, 0.0], [0.0, 1.0]], "n": 5})
    assert main(["certify", "--input", chain, "--method", "ergodic", "--eps", "0.3",
                 "--output", str(tmp_path / "o.json")]) == 2


def _cycling_mdp(tmp_path):
    """3 states, 2 actions, H = 8; action 1 cycles the states, so policy (1, 1, 1) never mixes."""
    rng = np.random.default_rng(3)
    trans = rng.dirichlet(np.ones(3), size=(3, 2))
    trans[:, 1] = np.roll(np.eye(3), 1, axis=1)
    return write_json(tmp_path / "mdp.json",
                      {"S": 3, "A": 2, "H": 8, "initial": [0.2, 0.3, 0.5],
                       "transitions": trans.tolist(), "rewards": rng.random((3, 2)).tolist()})


@pytest.mark.parametrize("command", [["rl-bound"], ["rl-verify", "--replicates", "100"]])
def test_rl_ergodic_with_a_non_mixing_policy_exits_2(tmp_path, capsys, command):
    out = tmp_path / "o.json"
    assert main([*command, "--input", _cycling_mdp(tmp_path), "--method", "ergodic",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "infeasible: chain does not mix to eps = 0.25 within horizon 8\n")
    assert not out.exists()


@pytest.mark.parametrize("eps, shown", [("1.5", "1.5"), ("0", "0.0"), ("nan", "nan")])
def test_rl_bad_eps_under_contractive_exits_1(tmp_path, capsys, eps, shown):
    out = tmp_path / "o.json"
    assert main(["rl-bound", "--input", _cycling_mdp(tmp_path), "--eps", eps,
                 "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: eps = {shown} must lie in (0, 1)\n"
    assert not out.exists()


def test_rl_bound_and_verify(tmp_path, rng):
    trans = rng.random((3, 2, 3)) + 0.1
    trans /= trans.sum(axis=2, keepdims=True)
    mdp = write_json(
        tmp_path / "mdp.json",
        {"S": 3, "A": 2, "H": 6, "initial": [1 / 3] * 3,
         "transitions": trans.tolist(), "rewards": rng.random((3, 2)).tolist()},
    )
    out = tmp_path / "rl.json"
    assert main(["rl-bound", "--input", mdp, "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bounds"]["class_size"] == 8
    assert doc["bounds"]["state_action_count"] == 6
    assert doc["bounds"]["log_count_mismatch"] is True
    assert len(doc["per_policy"]) == 8
    assert any("|Pi|" in line for line in doc["caveats"])

    out2 = tmp_path / "rlv.json"
    code = main(["rl-verify", "--input", mdp, "--output", str(out2),
                 "--replicates", "2000", "--seed", "5"])
    assert code == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["empirical_sup"]["estimate"] <= doc2["bounds"]["maximal"] + \
        2 * doc2["empirical_sup"]["standard_error"]
    assert any("common random numbers" in c for c in doc2["empirical_sup"]["caveats"])


def test_demo_runs_end_to_end(tmp_path):
    outdir = tmp_path / "demo"
    assert main(["demo", "--output", str(outdir), "--replicates", "20000"]) == 0
    cert = json.loads((outdir / "demo_certificate.json").read_text())
    assert cert["report"]["details"]["thetas"][0] == pytest.approx(0.7, abs=1e-12)
    tail = json.loads((outdir / "demo_tail.json").read_text())
    assert tail["tail"]["violations"] == []
    assert_csv_columns_are(outdir / "demo_certificate.csv",
                           list(zip(*cert["report"]["tail_curve"])))
    assert_tail_csv_is_the_json(outdir / "demo_tail.csv", tail["tail"])
    ergodic = json.loads((outdir / "demo_certificate_ergodic.json").read_text())
    assert ergodic["report"]["details"]["tau"] == 4


def test_cap_env_var_is_honored(tmp_path, monkeypatch):
    # tabulation reads CHAINCONC_CAP; verify's named functions are additive
    # and read no cap at all
    spec = homogeneous_chain(TWO_STATE, 12)
    monkeypatch.setenv("CHAINCONC_CAP", "100")
    with pytest.raises(EnumerationCapError, match="exceeds enumeration cap 100"):
        TabularFunction.from_vectorized(spec, indicator_table)
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": 12,
                                                 "function": {"name": "indicator_count"}})
    assert main(["verify", "--input", chain, "--replicates", "1000",
                 "--output", str(tmp_path / "o.json")]) == 0
    monkeypatch.setenv("CHAINCONC_CAP", "10000")
    assert TabularFunction.from_vectorized(spec, indicator_table).values.size == 4096


@pytest.mark.parametrize("command, cap", [
    ("verify", "0"), ("verify", "-1"), ("demo", "0"), ("rl-bound", "-1"), ("rl-verify", "0"),
    ("CHAINCONC_CAP", "0"), ("CHAINCONC_CAP", "-5"),
])
def test_non_positive_cap_exits_1(tmp_path, monkeypatch, command, cap):
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": 4,
                                                 "function": {"name": "indicator_count"}})
    out = tmp_path / "out"
    if command == "CHAINCONC_CAP":
        # only tabulation reads the env var now; it raises the error main exits
        # 1 on, and verify, which tabulates nothing, runs
        monkeypatch.setenv("CHAINCONC_CAP", cap)
        with pytest.raises(ValidationError, match=f"enumeration cap {cap} must be a positive"):
            TabularFunction.from_vectorized(homogeneous_chain(TWO_STATE, 4), indicator_table)
        assert main(["verify", "--input", chain, "--replicates", "1000",
                     "--output", str(out)]) == 0
        return
    mdp = write_json(tmp_path / "mdp.json", _small_mdp())
    argv = {"verify": ["verify", "--input", chain, "--cap", cap],
            "demo": ["demo", "--cap", cap],
            "rl-bound": ["rl-bound", "--input", mdp, "--cap", cap],
            "rl-verify": ["rl-verify", "--input", mdp, "--cap", cap, "--replicates", "100"]}[command]
    assert exit_code(argv + ["--output", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "demo", "rl-verify"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_its_range_exits_1(tmp_path, capsys, command, seed):
    chain = write_json(tmp_path / "chain.json", {"kernel": TWO_STATE, "n": 4,
                                                 "function": {"name": "indicator_count"}})
    mdp = write_json(tmp_path / "mdp.json", _small_mdp())
    argv = {"verify": ["verify", "--input", chain, "--replicates", "1000"],
            "demo": ["demo", "--replicates", "1000"],
            "rl-verify": ["rl-verify", "--input", mdp, "--replicates", "100"]}[command]
    assert exit_code(argv + ["--seed", seed, "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: seed = {seed} must lie in [0, 2^64)")


def test_supplied_table_is_centred_exactly_above_the_cap(tmp_path, monkeypatch):
    # the cap bounds what is tabulated; a supplied table is already in memory.
    # Values in [0, 1] keep f 1-Lipschitz for the default unit weights
    doc = {"kernel": TWO_STATE, "n": 8, "initial": [0.5, 0.5],
           "function": np.random.default_rng(3).uniform(0.0, 1.0, 256).tolist()}
    chain = write_json(tmp_path / "chain.json", doc)
    monkeypatch.setenv("CHAINCONC_CAP", "100")
    out = tmp_path / "tail.json"
    assert main(["verify", "--input", chain, "--replicates", "1000", "--output", str(out)]) == 0
    tail = json.loads(out.read_text())["tail"]
    assert tail["center_method"] == "enumeration"
    exact = oracles.expectation(chain_from_dict(doc), TabularFunction(np.array(doc["function"])))
    assert tail["center"] == pytest.approx(exact, abs=1e-12)


def test_rl_bound_with_mixing_metric(tmp_path, rng):
    trans = rng.random((2, 2, 2)) + 0.1
    trans /= trans.sum(axis=2, keepdims=True)
    mdp = write_json(
        tmp_path / "mdp.json",
        {"S": 2, "A": 2, "H": 5, "initial": [0.5, 0.5],
         "transitions": trans.tolist(), "rewards": rng.random((2, 2)).tolist()},
    )
    out = tmp_path / "rl.json"
    assert main(["rl-bound", "--input", mdp, "--metric", "mixing", "--eps", "0.3",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metric"] == "mixing"
    assert doc["bounds"]["dudley"] >= 0.0


def test_same_seed_gives_identical_reports(tmp_path):
    chain = write_json(
        tmp_path / "chain.json",
        {"kernel": TWO_STATE, "n": 8, "initial": [0.5, 0.5],
         "function": {"name": "indicator_count", "value": 1}},
    )
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name / "tail.json"
        out.parent.mkdir()
        assert main(["verify", "--input", chain, "--output", str(out),
                     "--replicates", "4000", "--seed", "33"]) == 0
        doc = json.loads(out.read_text())
        doc["meta"]["config"].pop("output")
        outs.append((json.dumps(doc, sort_keys=True), (out.parent / "tail.csv").read_text()))
    assert outs[0] == outs[1]


def json_dump_bytes(doc) -> bytes:
    """What _write_json must write of doc: an ndarray or a RowStream as its tolist()."""
    return (json.dumps(doc, indent=2, sort_keys=True, default=json_default) + "\n").encode()


def row_stream(array: np.ndarray) -> RowStream:
    """The rows of a 2-D array as a RowStream, as a Gamma report hands them to the writer."""
    return RowStream(lambda: iter(array))


ENTRIES = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, 5e-324, 1e-300, math.nan, math.inf,
                                                   -math.inf]))
ODD_ENTRIES = st.sampled_from([0.0, -0.0, 0, 1, False, True, math.nan, -math.inf, 1e-300])


@st.composite
def matrices(draw, arrays=None):
    """Toeplitz, upper-triangular, dense or ragged rows, with a few entries swapped
    for -0.0, ints, bools, NaN or infinities; as lists, tuples or an n x m float
    array (0 x m, n x 0 and 1 x 1 among them). arrays=True draws arrays only."""
    n, m = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    kinds = ["toeplitz", "upper", "dense"] + ([] if arrays else ["ragged"])
    kind = draw(st.sampled_from(kinds))
    first = draw(st.lists(ENTRIES, min_size=m, max_size=m))
    if kind == "toeplitz":  # each row the previous one shifted right by one
        rows = [[0.0] * min(i, m) + first[:max(m - i, 0)] for i in range(n)]
    elif kind == "upper":
        rows = [[0.0] * min(i, m) + draw(st.lists(ENTRIES, min_size=max(m - i, 0),
                                                  max_size=max(m - i, 0))) for i in range(n)]
    elif kind == "dense":
        rows = [draw(st.lists(ENTRIES, min_size=m, max_size=m)) for _ in range(n)]
    else:
        rows = draw(st.lists(st.lists(ENTRIES, max_size=7), max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        if rows and rows[0]:
            i = draw(st.integers(0, len(rows) - 1))
            if rows[i]:
                rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(ODD_ENTRIES)
    if arrays or (kind != "ragged" and draw(st.booleans())):
        return np.array(rows, dtype=float).reshape(n, m)
    return [tuple(r) for r in rows] if draw(st.booleans()) else rows


NUMBERS = st.one_of(st.integers(), st.floats(), st.booleans(), st.floats().map(np.float64))
SCALARS = st.one_of(st.none(), st.text(), NUMBERS,
                    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e-05, 5e-324]))
FLOAT_ARRAYS = st.one_of(st.lists(ENTRIES, max_size=6).map(lambda v: np.array(v, dtype=float)),
                         matrices(arrays=True), matrices(arrays=True).map(row_stream))
DOCS = st.recursive(st.one_of(SCALARS, FLOAT_ARRAYS), lambda inner: st.one_of(
    st.lists(NUMBERS, max_size=6),
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(), inner, max_size=4),
    st.dictionaries(st.integers(), inner, max_size=3),
), max_leaves=30)


@given(DOCS, st.integers(1, 3))
@example({"\u00e9\n\"\\\x00\u2028": [-0.0, 1e-05, 5e-324, math.nan, math.inf, -math.inf],
          "": {}, "empty": [], "t": (None, True, 1, 2.5, np.float64(0.1)),
          "nested": [[1.0, False], [], [{}], {"k": ()}]}, 2)
@example({"g": np.array([[1.0, 0.5, -0.0], [0.0, 1.0, 5e-324], [0.0, 0.0, 1e-300]]),
          "w": np.array([math.nan, math.inf, -math.inf]), "e": np.zeros((0, 3)),
          "k": np.zeros((2, 0)), "one": np.ones((1, 1)), "d": {1: np.eye(2)}, "l": [np.eye(1)]}, 2)
@example({"g": row_stream(np.array([[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])),
          "e": row_stream(np.zeros((0, 3))), "k": row_stream(np.zeros((2, 0))),
          "d": {1: row_stream(np.eye(2))}, "l": [row_stream(np.array([[-0.0, math.nan]]))]}, 1)
@example({"g": row_stream(np.array([[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])),
          "h": row_stream(np.array([[0.5, 0.25, 0.125], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])),
          "w": np.array([0.1, 0.2]), "z": [0.3, 0.4, 0.5]}, 2)
@example({"g": row_stream(np.array([[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])),
          "h": row_stream(np.array([[2.0, 1.0], [3.0, 2.0], [0.0, 3.0]]))}, 3)
# the writer's hook returns None for a RowStream: the nulls and "null" strings
# beside one must stay as the stdlib writes them
@example({"a": None, "b": row_stream(np.array([[0.5, -0.0], [0.0, 1.0]])), "c": "null",
          "d": [None, "null", row_stream(np.array([[0.25]])), None, "null"]}, 1)
@example([None, row_stream(np.eye(2)), "null", row_stream(np.zeros((1, 2))), None], 2)
# a RowStream at depth 3 and more, in tuples, and under an int key
@example([[(1, row_stream(np.array([[1.0, 0.5], [0.0, 1.0]])), None)],
          {"t": ((row_stream(np.eye(3)),),)}], 2)
@example({7: row_stream(np.array([[1.0, 0.5], [0.0, 1.0]])), 8: [None, "null"]}, 3)
@example({"x": [{7: ("null", row_stream(np.array([[0.5, 0.25], [0.0, 0.5]])))}],
          "y": {3: row_stream(np.ones((2, 2))), 4: None}}, 1)
def test_write_json_is_byte_identical_to_json_dump(doc, batch):
    # batches of 1-3 floats end inside rows, between rows and beside the rows
    # that slice the first row's text
    with tempfile.TemporaryDirectory() as d, mock.patch.object(cli, "FORMAT_BATCH", batch):
        path = Path(d) / "r.json"
        cli._write_json(str(path), doc)
        got = path.read_bytes()
    assert got == json_dump_bytes(doc)


@given(matrices(), matrices())
@example([[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]], [[7.0]])
@example([[1.0, 0.5], [-0.0, 1.0], [0.0, 0.0]], [[], [0.0, 0], [0, 0.0]])
@example([[0.0, 1.0, math.nan], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]], [[1.0, True], [0.0, 1.0]])
@example(np.array([[1.0, 0.5, 0.25], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]]), np.zeros((3, 0)))
@example(np.array([[0.0, -0.0, 1.0], [0.0, 0.0, 1.0]]), np.array([[math.inf, 5e-324]]))
def test_write_json_streams_matrices_as_json_dump_would(first, second):
    doc = {"report": {"gamma": {"entries": first, "shape": [len(first), 0]},
                      "weights": first[0] if len(first) else [], "nested": [second, [first]]},
           "rows": second, "z": [{"m": second}, 3]}
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "r.json"
        cli._write_json(str(path), doc)
        got = path.read_bytes()
    assert got == json_dump_bytes(doc)


def test_gamma_rows_are_formatted_in_full_batches(tmp_path, float_text_sizes):
    # the buffer fills across rows, so an inhomogeneous Gamma takes
    # ceil(F / FORMAT_BATCH) calls for its F row-tail floats; the rows of a
    # homogeneous (Toeplitz) one are slices of its first row's text
    n = 300
    sizes = float_text_sizes
    inhomogeneous = chainconc.gamma_contractive(np.random.default_rng(5).uniform(0.5, 0.95, n - 1))
    cli._write_json(str(tmp_path / "g.json"), {"entries": inhomogeneous.document()["entries"]})
    tails = sum(n - int(np.flatnonzero(row)[0]) for row in inhomogeneous.rows())
    assert tails == n * (n + 1) // 2
    floats = tails - 1  # the last row's tail, 1.0, is a slice of the first row's text
    assert sizes[:-1] == [cli.FORMAT_BATCH] * (len(sizes) - 1)
    assert len(sizes) == math.ceil(floats / cli.FORMAT_BATCH) and sum(sizes) == floats

    sizes.clear()
    homogeneous = chainconc.gamma_contractive([0.7] * (n - 1))
    cli._write_json(str(tmp_path / "h.json"), {"entries": homogeneous.document()["entries"]})
    assert sizes == [n]
    for name, g in (("g.json", inhomogeneous), ("h.json", homogeneous)):
        assert json.loads((tmp_path / name).read_text())["entries"] == g.entries.tolist()


def test_certify_peak_memory_is_about_its_gamma(tmp_path):
    # the report's Gamma as nested lists took the peak to 3.7 times the Gamma's bytes
    n = 1000
    kernels = np.random.default_rng(21).dirichlet(np.ones(2), size=(n - 1, 2))
    chain = write_json(tmp_path / "chain.json", {"coord_sizes": [2] * n, "initial": [0.5, 0.5],
                                                 "kernels": kernels.tolist()})
    out = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        assert main(["certify", "--input", chain, "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gamma = json.loads(out.read_text())["report"]["gamma"]["entries"]
    assert gamma[0][1] != gamma[1][2]  # inhomogeneous: every row's tail is formatted
    assert peak < 1.5 * n * n * 8


def test_factored_certify_peak_memory_is_linear(tmp_path):
    # the dense Gamma alone is 32 MB, and the certify peak was 35.7 MB with it
    n = 2000
    kernels = np.random.default_rng(21).dirichlet(np.ones(2), size=(n - 1, 2))
    chain = write_json(tmp_path / "chain.json", {"coord_sizes": [2] * n, "initial": [0.5, 0.5],
                                                 "kernels": kernels.tolist()})
    del kernels
    out = tmp_path / "cert.json"
    tracemalloc.start()
    try:
        assert main(["certify", "--input", chain, "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gamma = json.loads(out.read_text())["report"]["gamma"]
    assert gamma["shape"] == [n, n] and gamma["entries"][0][1] != gamma["entries"][1][2]
    assert peak < 2 * 2**20


def _has_avx2() -> bool:
    try:
        return " avx2" in Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


def test_factored_certify_is_independent_of_the_blas_kernel(tmp_path):
    """Contractive and ergodic certificates call no BLAS routine on the way to
    a reported number: OpenBLAS's Prescott kernel (SSE3) and, on a CPU with
    AVX2, its Haswell kernel write the bytes of the default one."""
    rng = np.random.default_rng(12)
    random_s4 = write_json(tmp_path / "s4.json", {
        "coord_sizes": [4] * 300, "initial": [0.25] * 4,
        "kernels": [rng.dirichlet(np.ones(4), size=4).tolist() for _ in range(299)]})
    argvs = [["--input", random_s4, "--method", "contractive"],
             ["--input", random_s4, "--method", "ergodic", "--eps", "0.25"]]
    for n in (60, 300):
        demo = write_json(tmp_path / f"demo{n}.json", {
            "kernel": TWO_STATE, "n": n, "weights": np.linspace(0.5, 2, n).tolist()})
        argvs += [["--input", demo, "--method", "contractive"],
                  ["--input", demo, "--method", "ergodic", "--eps", "0.25"]]
    argvs = [["certify", *argv, "--output", str(tmp_path / f"cert{k}.json")]
             for k, argv in enumerate(argvs)]
    run = ("import json, sys; from chainconc.cli import main; "
           "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(chainconc.__file__).resolve().parents[1])
    reports = {}
    for core in ["default", "Prescott"] + (["Haswell"] if _has_avx2() else []):
        if core != "default":
            env["OPENBLAS_CORETYPE"] = core
        subprocess.run([sys.executable, "-c", run, json.dumps(argvs)], env=env, check=True,
                       capture_output=True, timeout=300)
        reports[core] = [(tmp_path / f"cert{k}{ext}").read_bytes()
                         for k in range(len(argvs)) for ext in (".json", ".csv")]
    for core, got in reports.items():
        assert got == reports["default"], core


def test_certify_report_is_independent_of_blas_threads(tmp_path):
    chain = write_json(tmp_path / "chain.json",
                       {"kernel": TWO_STATE, "n": 200, "weights": np.linspace(0.5, 2, 200).tolist()})
    rng = np.random.default_rng(12)
    brute = write_json(tmp_path / "brute.json", {
        "coord_sizes": [4] * 200, "initial": [0.25] * 4,
        "kernels": [rng.dirichlet(np.ones(4), size=4).tolist() for _ in range(199)]})
    out = tmp_path / "cert.json"
    # LAPACK's largest eigenvalue of this Gamma's Gram matrix (n = 595) itself
    # changes with the thread count, and so does numpy's m.T @ m of the dense
    # triangle, which _gram replaces
    norm_595 = ("import hashlib; import numpy as np; from chainconc.gamma import _gram; "
                "from chainconc import gamma_contractive, operator_norm; "
                "rng = np.random.default_rng(9); n = int(rng.integers(300, 1001)); "
                "print(operator_norm(gamma_contractive(rng.uniform(0.3, 1.0, n - 1))).hex()); "
                "m = np.triu(np.random.default_rng(1).random((1500, 1500))); "
                "print(hashlib.sha256(_gram(m).tobytes()).hexdigest())")
    env = {**os.environ, "PYTHONPATH": str(Path(chainconc.__file__).resolve().parents[1])}
    results = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        reports = []
        for doc, method in ((chain, "contractive"), (brute, "brute")):
            subprocess.run([sys.executable, "-m", "chainconc.cli", "certify", "--input", doc,
                            "--method", method, "--output", str(out)],
                           env=env, check=True, capture_output=True, timeout=120)
            reports.append(out.read_bytes())
        norm = subprocess.run([sys.executable, "-c", norm_595], env=env, check=True,
                              capture_output=True, text=True, timeout=120).stdout
        results.append((reports, norm))
    assert results[0] == results[1]


def _small_mdp(seed=0, n_states=2, n_actions=2, horizon=3):
    rng = np.random.default_rng(seed)
    return {"S": n_states, "A": n_actions, "H": horizon,
            "initial": rng.dirichlet(np.ones(n_states)).tolist(),
            "transitions": rng.dirichlet(np.ones(n_states), size=(n_states, n_actions)).tolist(),
            "rewards": rng.uniform(0.0, 1.0, (n_states, n_actions)).tolist()}


@pytest.mark.parametrize("command", ["rl-bound", "rl-verify"])
@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "0", "-1"])
def test_rl_rejects_non_finite_or_non_positive_scale(tmp_path, command, scale):
    mdp = write_json(tmp_path / "mdp.json", _small_mdp())
    extra = ["--replicates", "100"] if command == "rl-verify" else []
    assert main([command, "--input", mdp, f"--scale={scale}", *extra,
                 "--output", str(tmp_path / "o.json")]) == 1
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command, doc", [
    (["rl-bound"], {"S": "x"}),
    (["rl-bound"], dict(_small_mdp(), S=math.inf)),
    (["rl-bound"], dict(_small_mdp(), H=math.nan)),
    (["rl-bound"], dict(_small_mdp(), transitions=[[[0.5, 0.5], [1.0]], [[1.0, 0.0], [0.5]]])),
    (["rl-bound"], dict(_small_mdp(), rewards=[["a", 0.1], [0.2, 0.3]])),
    (["rl-verify", "--replicates", "50"], dict(_small_mdp(), stage_caps=[1.0, [1.0], 1.0])),
    (["mix", "--eps", "0.3"], {"kernel": "abc", "n": 3}),
    (["mix", "--eps", "0.3"], {"kernel": [[1.0]], "n": "x"}),
    (["mix", "--eps", "0.3"], {"kernel": [[1.0]], "n": math.inf}),
    (["certify"], {"kernel": {}, "n": 2}),
    (["certify"], {"kernel": [[0.5, 0.5], [1.0]], "n": 2}),
    (["certify"], {"kernel": [[0.5, 0.5], [0.5, 0.5]], "n": 2, "initial": "ab"}),
    (["gamma"], {"thetas": [math.nan, 0.5]}),
    (["gamma"], {"thetas": "abc"}),
    (["gamma", "--method", "ergodic", "--eps", "0.3"], {"n_blocks": "x"}),
    (["gamma", "--method", "ergodic", "--eps", "0.3"], {"n_blocks": math.inf}),
    (["gamma", "--method", "ergodic", "--eps", "0.3"], {"n_blocks": math.nan}),
    (["coupling"], {"p": "ab", "q": [0.5, 0.5]}),
    (["coupling"], [1, 2]),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": math.nan}}),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": math.inf}}),
    (["verify", "--certificate"], {"report": 5}),
    (["verify", "--certificate"], [1]),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": "abc"}}),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": "1.5"}}),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": True}}),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": 10**400}}),
    (["certify"], {"kernel": TWO_STATE, "n": 2, "weights": ["a", 1]}),
    (["certify"], {"kernel": TWO_STATE, "n": 2, "weights": "abc"}),
    (["certify"], {"kernel": TWO_STATE, "n": 2, "weights": {"x": 1}}),
    (["certify"], {"kernel": TWO_STATE, "n": 2, "weights": [10**400, 1]}),
    (["verify", "--replicates", "1000"], {"kernel": TWO_STATE, "n": 2, "function": ["a", 1, 2, 3]}),
    (["verify", "--replicates", "1000"], {"kernel": TWO_STATE, "n": 2,
                                        "function": [[1, 2], [3, 4]]}),
    (["verify", "--replicates", "1000"], {"kernel": TWO_STATE, "n": 2,
                                        "function": {"name": "indicator_count", "value": "x"}}),
    (["verify", "--replicates", "1000"], {"kernel": TWO_STATE, "n": 2,
                                        "function": {"name": "indicator_count", "value": None}}),
    (["verify", "--replicates", "1000"], {"kernel": TWO_STATE, "n": 2,
                                        "function": {"name": "indicator_count",
                                                     "value": math.inf}}),
    (["verify", "--replicates", "1000"], {"kernel": TWO_STATE, "n": 2,
                                        "function": {"name": "indicator_count", "value": 1.5}}),
    (["verify", "--replicates", "1000"], {"kernel": TWO_STATE, "n": 2,
                                        "function": {"name": "indicator_count", "value": True}}),
    # sizes are JSON integers: a float or a bool is not truncated to one
    (["mix", "--eps", "0.3"], {"kernel": TWO_STATE, "n": 2.5}),
    (["mix", "--eps", "0.3"], {"kernel": TWO_STATE, "n": True}),
    (["mix", "--eps", "0.3"], {"coord_sizes": [2.9, 1.5], "initial": [0.5, 0.5],
                               "kernels": [[[1.0], [1.0]]]}),
    (["rl-bound"], dict(_small_mdp(), S=2.7)),
    (["rl-bound"], dict(_small_mdp(), A=2.0)),
    (["rl-bound"], dict(_small_mdp(), H=True)),
    (["gamma", "--method", "ergodic", "--eps", "0.3"], {"n_blocks": 2.5}),
    (["gamma", "--method", "ergodic", "--eps", "0.3"], {"n_blocks": True}),
    # a certificate bound to its chain: weights per coordinate, a method certify knows
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": 1.0, "weights": [1.0]}}),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": 1.0, "weights": ["a", 1, 1]}}),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": 1.0, "weights": [1.0] * 3,
                                              "method": "mystery"}}),
    (["verify", "--certificate"], {"report": {"sigma2_opnorm": 1.0, "weights": [1.0] * 3,
                                              "method": "ergodic", "details": {"eps": "0.25"}}}),
])
def test_malformed_documents_exit_1(tmp_path, command, doc):
    path = write_json(tmp_path / "doc.json", doc)
    if command[-1] == "--certificate":  # the document certifies a well-formed input
        good = write_json(tmp_path / "in.json", {"kernel": TWO_STATE, "n": 3,
                                                 "function": {"name": "coordinate_sum"}})
        argv = [*command, path, "--input", good, "--replicates", "1000"]
    else:
        argv = [command[0], "--input", path, *command[1:]]
    assert main([*argv, "--output", str(tmp_path / "o.json")]) == 1


JUNK = st.sampled_from([math.nan, math.inf, -math.inf, -1, 0, 0.5, 2.5, 7, True, None,
                        "x", "", [], {}, [1.0, "a"], [[0.5, 0.5]]])
RL_FIELDS = ("S", "A", "H", "initial", "transitions", "rewards", "stage_caps")


def _with_junk(draw, value):
    """value with one entry, at a random depth, replaced by junk."""
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [_with_junk(draw, value[i])] + value[i + 1:]
    return draw(JUNK)


def _run_on_document(argv, doc) -> int:
    """main(argv) with doc written to a scratch file as --input."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "doc.json"
        path.write_text(json.dumps(doc))
        return main(argv + ["--input", str(path), "--output", str(Path(d) / "o.json")])


def _corrupted(draw, doc, fields, times):
    """doc with up to `times` of its fields dropped or corrupted."""
    for _ in range(draw(st.integers(0, times))):
        key = draw(st.sampled_from(fields))
        if key in doc and draw(st.integers(0, 4)) == 0:
            del doc[key]
        else:
            doc[key] = _with_junk(draw, doc.get(key))
    return doc


@st.composite
def rl_documents(draw):
    """A small valid MDP document, then up to three fields dropped or corrupted."""
    doc = _small_mdp(draw(st.integers(0, 2**16)), draw(st.integers(1, 3)),
                     draw(st.integers(1, 2)), draw(st.integers(1, 4)))
    if draw(st.booleans()):
        doc["stage_caps"] = [1.0] * doc["H"]
    return _corrupted(draw, doc, RL_FIELDS, 3)


def _has_non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(_has_non_finite(v) for v in value)


@settings(max_examples=60)
@given(doc=st.one_of(rl_documents(), JUNK), command=st.sampled_from(["rl-bound", "rl-verify"]),
       method=st.sampled_from(["contractive", "ergodic", "brute"]),
       convention=st.sampled_from(["exact", "opnorm", "paper"]),
       metric=st.sampled_from(["hamming", "mixing"]),
       eps=st.sampled_from([0.25, 0.6, 0.0, math.nan]),
       scale=st.sampled_from([1.0, 0.5, math.inf, math.nan]),
       replicates=st.sampled_from([2, 40]))
def test_fuzzed_rl_documents_exit_with_a_documented_code(doc, command, method, convention,
                                                         metric, eps, scale, replicates):
    argv = [command, "--method", method, "--convention", convention, "--metric", metric,
            "--eps", repr(eps), "--scale", repr(scale)]
    if command == "rl-verify":
        argv += ["--replicates", str(replicates)]
    code = _run_on_document(argv, doc)
    assert code in (0, 1, 2, 3)
    fields = [doc.get(k) for k in RL_FIELDS] if isinstance(doc, dict) else [doc]
    if _has_non_finite(fields + [eps, scale]):
        assert code != 0


@st.composite
def gamma_documents(draw):
    """A valid thetas or n_blocks document, then its one field dropped or corrupted."""
    if draw(st.booleans()):
        doc = {"thetas": draw(st.lists(st.floats(0.0, 1.0), max_size=5))}
    else:
        doc = {"n_blocks": draw(st.integers(1, 6))}
    return _corrupted(draw, doc, tuple(doc), 1)


@settings(max_examples=60)
@given(doc=st.one_of(gamma_documents(), JUNK),
       method=st.sampled_from(["contractive", "ergodic", "brute"]),
       eps=st.sampled_from([0.3, 0.0, math.nan, math.inf]))
def test_fuzzed_gamma_documents_exit_with_a_documented_code(doc, method, eps):
    code = _run_on_document(["gamma", "--method", method, "--eps", repr(eps)], doc)
    assert code in (0, 1, 2)
    # a document holds one field, which only its own method reads; eps is read by ergodic
    used = list(doc.values()) if isinstance(doc, dict) else [doc]
    if _has_non_finite(used + ([eps] if method == "ergodic" else [])):
        assert code != 0


@st.composite
def coupling_documents(draw):
    """A valid pair of distributions, then up to two of p and q dropped or corrupted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    size = draw(st.integers(1, 4))
    doc = {"p": rng.dirichlet(np.ones(size)).tolist(), "q": rng.dirichlet(np.ones(size)).tolist()}
    return _corrupted(draw, doc, ("p", "q"), 2)


@settings(max_examples=60)
@given(doc=st.one_of(coupling_documents(), JUNK))
def test_fuzzed_coupling_documents_exit_with_a_documented_code(doc):
    code = _run_on_document(["coupling"], doc)
    assert code in (0, 1, 2)
    if _has_non_finite(list(doc.values()) if isinstance(doc, dict) else [doc]):
        assert code != 0


@st.composite
def chain_documents(draw):
    """A small valid chain document with weights and a function, in either chain
    form, then up to two of the weights and function and up to two chain fields
    dropped or corrupted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def row(size):
        return rng.dirichlet(np.ones(size)).tolist()

    if draw(st.booleans()):
        size, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        doc = {"kernel": [row(size) for _ in range(size)], "n": n}
        if draw(st.booleans()):
            doc["initial"] = row(size)
        sizes = [size] * n
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        doc = {"coord_sizes": sizes, "initial": row(sizes[0]),
               "kernels": [[row(b) for _ in range(a)] for a, b in zip(sizes, sizes[1:])]}
    doc["weights"] = rng.uniform(0.0, 2.0, len(sizes)).tolist()
    doc["function"] = draw(st.sampled_from([
        rng.normal(size=math.prod(sizes)).tolist(),
        {"name": "indicator_count", "value": draw(st.one_of(st.integers(0, 3), JUNK))},
        {"name": "coordinate_sum"},
    ]))
    chain_fields = tuple(k for k in doc if k not in ("weights", "function"))
    return _corrupted(draw, _corrupted(draw, doc, ("weights", "function"), 2), chain_fields, 2)


@settings(max_examples=120)
@given(doc=st.one_of(chain_documents(), JUNK), command=st.sampled_from(["certify", "verify"]),
       method=st.sampled_from(["contractive", "ergodic", "brute"]),
       eps=st.sampled_from([0.25, 0.6]))
def test_fuzzed_chain_documents_exit_with_a_documented_code(doc, command, method, eps):
    argv = [command, "--method", method, "--eps", repr(eps)]
    if command == "verify":
        argv += ["--replicates", "1000"]
    code = _run_on_document(argv, doc)
    assert code in (0, 1, 2, 3)
    # certify reads every field but the function; verify certifies inline, so reads all
    read = ({k: v for k, v in doc.items() if command == "verify" or k != "function"}
            if isinstance(doc, dict) else doc)
    if _has_non_finite(read):
        assert code != 0


def test_rounded_rows_certify_with_thetas_and_entries_of_at_most_one(tmp_path):
    # disjoint rows, the last one summing to 1 only up to rounding
    rows = [[0, 1, 0, 0], [1, 0, 0, 0],
            [0.8326773486759026, 0, 0.0014666839997370792, 0.16585596732436036],
            [0.01046876663088994, 0, 0.6976278806328194, 0.2919033527362907]]
    chain = write_json(tmp_path / "chain.json", {"kernel": rows, "n": 5})
    mdp = write_json(tmp_path / "mdp.json", {"S": 4, "A": 1, "H": 5, "initial": [0.25] * 4,
                                             "transitions": [[r] for r in rows],
                                             "rewards": [[0.5]] * 4})
    runs = {"contractive": ["certify", "--input", chain],
            "brute": ["certify", "--input", chain, "--method", "brute"],
            "gamma": ["gamma", "--input", chain],
            "rl-bound": ["rl-bound", "--input", mdp]}
    docs = {}
    for name, argv in runs.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--output", str(out)]) == 0, name
        docs[name] = json.loads(out.read_text())
    assert docs["contractive"]["report"]["details"]["thetas"] == [1.0] * 4
    for gamma in (docs["contractive"]["report"]["gamma"], docs["brute"]["report"]["gamma"],
                  docs["gamma"]["gamma"]):
        assert max(max(r) for r in gamma["entries"]) == 1.0


def test_readme_tour_runs_and_its_stated_values_hold():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Quick tour\n\n```python\n(.*?)```", readme, re.S)
    # each line that ends in a number comment states that expression's value
    stated = re.findall(r"^(cc\.\S.*?)\s+# ([0-9.]+)$", block, re.M)
    assert stated == [("cc.mixing_time(spec, 0.25)", "4"),
                      ("cc.dobrushin_coefficient(spec.kernels[0])", "0.7")]
    script = block + "".join(f"\nprint(repr({expr}))" for expr, _ in stated)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")}, check=True)
    assert run.stdout.split() == [value for _, value in stated]


CERT_JUNK = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, True, False, None,
                             "x", "0.5", "nan", [], [[1.0]], [1.0, [1.0]], {}, {"eps": 0.25},
                             0, -1, 0.25])


@st.composite
def certificates(draw):
    """A genuine certificate of the 6-coordinate TWO_STATE chain, whole or with
    only some of its fields, then up to two of its sigma2 fields, weights,
    method, details and details.eps dropped or replaced: by junk, by a list of
    the wrong length or with one junk entry."""
    spec = homogeneous_chain(TWO_STATE, 6)
    method, eps = draw(st.sampled_from([("contractive", None), ("ergodic", 0.25),
                                        ("ergodic", 0.6), ("brute_force", None)]))
    weights = draw(st.sampled_from([[1.0] * 6, [1.0, 1.5, 2.0] * 2]))
    cert = chainconc.certify(spec, chainconc.LipschitzWeights(np.array(weights)), method,
                             eps=eps).to_dict()
    # a full certificate, one without its method, or a bare sigma2 claim
    kept = draw(st.sampled_from([("weights", "method", "details"), ("weights",), ()]))
    report = {key: cert[key] for key in ("sigma2_exact", "sigma2_opnorm", "sigma2_paper", *kept)}
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from([*report, "eps"]))
        if key == "eps" and isinstance(report.get("details"), dict):
            report["details"] = dict(report["details"], eps=draw(CERT_JUNK))
        elif key in report and draw(st.integers(0, 4)) == 0:
            del report[key]
        elif isinstance(report.get(key), list) and draw(st.booleans()):
            value = report[key]
            report[key] = (value[:draw(st.integers(0, len(value) - 1))] if draw(st.booleans())
                           else value + value[:1] if draw(st.booleans())
                           else _with_junk(draw, value))
        else:
            report[key] = draw(CERT_JUNK)
    return {"report": report} if draw(st.integers(0, 4)) else report


@settings(max_examples=60)
@given(cert=certificates(), convention=st.sampled_from(["exact", "opnorm", "paper"]))
def test_fuzzed_certificates_exit_with_a_documented_code(cert, convention):
    chain = {"kernel": TWO_STATE, "n": 6, "function": {"name": "coordinate_sum"}}
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "cert.json"
        path.write_text(json.dumps(cert))
        code = _run_on_document(["verify", "--certificate", str(path), "--convention",
                                 convention, "--replicates", "1000"], chain)
    assert code in (0, 1, 2, 3)
    report = cert.get("report", cert)
    sigma2 = report.get(f"sigma2_{convention}")
    if _has_non_finite([sigma2, report.get("weights")]):
        assert code != 0
