"""The traced benchmark mode wraps the functions named in perfbench/run.py.

``TARGETS`` is read from the source with ``ast`` (importing run.py would
configure BLAS threads and the import path), and every name must resolve the
way the tracer resolves it, so renaming or deleting a traced function fails
here rather than in ``perfbench/run.py --trace 1``. A short traced run of the
policy workload also checks what the tracer's hooks read from their
arguments (such as ``pi.key()``), a short certify run checks every
certificate against the benchmark's own oracles (brute and contractive
Gamma entries, sigma2 against LAPACK), and a short traced tail run checks
every tail and MGF result the same way (no bound violated, centre at the
exact mean).
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_targets() -> tuple:
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {RUN_PY}")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    for path in targets:
        module, *rest = path.split(".")
        owner = importlib.import_module(f"chainconc.{module}")
        for part in rest:
            owner = inspect.getattr_static(owner, part)
        assert callable(getattr(owner, "__func__", owner)), path


def assert_run_is_correct(cwd, workload, trace):
    # the run writes its work and output directories under its cwd
    run = subprocess.run([sys.executable, str(RUN_PY), "--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", trace],
                         cwd=cwd, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert '"correct": true' in run.stdout.splitlines()[-1], run.stdout[-2000:]


def test_traced_policy_class_run_is_correct(tmp_path):
    assert_run_is_correct(tmp_path, "policy_class", "1")


def test_certify_sweep_run_is_correct(tmp_path):
    assert_run_is_correct(tmp_path, "certify_sweep", "0")


def test_tail_mc_run_is_correct(tmp_path):
    # traced, so that the draw thread also runs under the tracer's wrappers
    assert_run_is_correct(tmp_path, "tail_mc", "1")
