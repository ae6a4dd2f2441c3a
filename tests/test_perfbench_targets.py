"""The traced benchmark mode wraps the functions named in perfbench/run.py.

``TARGETS`` is read from the source with ``ast`` (importing run.py would
configure BLAS threads and the import path), and every name must resolve the
way the tracer resolves it, so renaming or deleting a traced function fails
here rather than in ``perfbench/run.py --trace 1``.
"""

import ast
import importlib
import inspect
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
