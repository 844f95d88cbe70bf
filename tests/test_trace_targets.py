"""The benchmark tracer wraps functions by module attribute: every target it
lists must still exist, or a refactor silently drops a layer's timing.  Its
observers read the traced calls' arguments by name: every name they read
must still be a parameter, or a rename breaks only the traced runs."""

import ast
import importlib
import inspect
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


def _observer_keys() -> dict[str, set[str]]:
    """For each span name in ``OBSERVERS``, the keys its observer reads from
    the bound arguments (``a["..."]``, ``a`` the observer's second parameter),
    read from the syntax of ``spans.py``.  An observer given as a factory
    call (``_book_observer(2)``) reads the keys of the functions it defines."""
    tree = ast.parse(SPANS.read_text())
    reads: dict[str, set[str]] = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            keys = reads.setdefault(top.name, set())
            for fn in ast.walk(top):
                if isinstance(fn, ast.FunctionDef) and len(fn.args.args) >= 2:
                    bound = fn.args.args[1].arg
                    keys.update(node.slice.value for node in ast.walk(fn)
                                if isinstance(node, ast.Subscript)
                                and getattr(node.value, "id", None) == bound
                                and isinstance(node.slice, ast.Constant))
    observers = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                     and getattr(node.targets[0], "id", None) == "OBSERVERS")
    return {key.value: reads[value.func.id if isinstance(value, ast.Call) else value.id]
            for key, value in zip(observers.keys, observers.values)}


OBSERVER_KEYS = _observer_keys()


def test_every_observer_is_found():
    assert set(OBSERVER_KEYS) <= {f"{m}.{a}" for m, a in TARGETS}
    assert all(OBSERVER_KEYS.values())


@pytest.mark.parametrize("name", sorted(OBSERVER_KEYS))
def test_observer_reads_only_parameters_of_its_target(name):
    # an observer reads the traced call's bound arguments by name, so a
    # renamed parameter would break only traced runs
    module, attr = name.split(".", 1)
    owner = importlib.import_module(f"hestonmm.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    missing = OBSERVER_KEYS[name] - set(inspect.signature(owner).parameters)
    assert not missing, f"{name} has no parameter {sorted(missing)}"
