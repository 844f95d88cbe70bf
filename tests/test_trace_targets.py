"""The benchmark tracer wraps functions by module attribute: every target it
lists must still exist, or a refactor silently drops a layer's timing."""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> list[tuple[str, str]]:
    """``TARGETS`` evaluated from the assignments in ``spans.py`` that build it,
    without importing the benchmark package."""
    tree = ast.parse(SPANS.read_text())
    scope: dict = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("POLICIES", "WRITERS", "TARGETS"):
                scope[name] = eval(compile(ast.Expression(node.value), str(SPANS), "eval"), scope)
    return scope["TARGETS"]


TARGETS = _targets()


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"hestonmm.{module}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"{cls_name}.{attr} is not defined on the class itself"
    assert callable(getattr(owner, attr))
