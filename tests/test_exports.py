"""Every exported name resolves and is what the program runs: deleting a
function must delete its exports, and an export only tests call must be a
named oracle.  The same holds for the public methods and properties of every
exported class."""

import ast
import builtins
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hestonmm

MODULES = ["hestonmm"] + [f"hestonmm.{m.name}" for m in pkgutil.iter_modules(hestonmm.__path__)]

# Exports that no program code calls, kept as independent references for tests.
# Every other reference that only tests run lives in tests/oracles.py.
ORACLES = {
    "mc_price",  # test_acceptance.py::test_criterion_09_option_pricer and the benchmark's option-mm
    "mc_terminal",  # test_option_pricing.py::test_conditional_estimator_agrees_with_the_payoff_mean;
                    # the benchmark's tracer wraps it (tests/test_trace_targets.py)
}

# Public methods that no program code reads, kept as references for tests.
METHOD_ORACLES = {
    "PricingGrid.price": "the grid's price at a point: test_acceptance.py::test_criterion_09_option_pricer "
                         "and the benchmark's option-mm oracle check",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_real_names(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def _program_references() -> set[str]:
    """Names and attributes that the package's modules read, each outside the
    top-level definition of that name (the package's re-exports excluded)."""
    found = set()
    for path in Path(hestonmm.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    found.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    found.add(node.attr)
    return found


def _attribute_references() -> set[str]:
    """Attribute names read anywhere in the package (``x.name``); a bare name,
    such as a local variable, does not count."""
    return {node.attr for path in Path(hestonmm.__file__).parent.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}


def _public_methods() -> set[str]:
    """``Class.name`` of every public method or property defined on a class
    that some module exports."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    exported = {getattr(module, attr) for module in map(importlib.import_module, MODULES)
                for attr in getattr(module, "__all__", [])}
    return {f"{cls.__name__}.{name}" for cls in exported if inspect.isclass(cls)
            for name, value in vars(cls).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))}


def test_every_export_is_run_by_the_program_or_an_oracle():
    exported = {attr for name in MODULES for attr in getattr(importlib.import_module(name), "__all__", [])}
    references = _program_references()
    assert sorted(exported - references - ORACLES) == []
    assert sorted(ORACLES - exported) == [] and sorted(ORACLES & references) == []


def test_every_public_method_is_read_by_the_program_or_an_oracle():
    methods = _public_methods()
    references = _attribute_references()
    unread = {m for m in methods if m.split(".", 1)[1] not in references}
    assert sorted(unread - set(METHOD_ORACLES)) == []
    assert sorted(set(METHOD_ORACLES) - unread) == []


def test_every_exception_class_is_defined_in_errors():
    # the CLI maps ConfigError to exit 2 and NumericalError to exit 3, and lets
    # any other exception propagate: a class of its own in another module
    # would be a failure that neither path knows
    found = []
    for path in sorted(Path(hestonmm.__file__).parent.glob("*.py")):
        module = importlib.import_module("hestonmm" if path.stem == "__init__" else f"hestonmm.{path.stem}")
        scope = {**vars(builtins), **vars(module)}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, type) and issubclass(base, BaseException)
                    for base in (eval(ast.unparse(b), scope) for b in node.bases)):
                found.append(f"{path.name}:{node.name}")
    assert found == ["errors.py:ConfigError", "errors.py:NumericalError"]


def test_cold_start_leaves_scipy_subpackages_out(tmp_path):
    # `python -X importtime -c "import hestonmm.cli"` on a 2-vCPU host:
    # scipy.linalg costs about 0.3 s (through scipy._lib's array API layer,
    # which imports numpy.testing, numpy.ma and numpy.f2py), scipy.special
    # about 0.06 s and scipy.stats about a third of a second.  Only the PDE
    # subcommands need them, loaded on their first solve; the Monte Carlo
    # subcommands never do.
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys, hestonmm.cli as cli\n"
        "heavy = [m for m in ('scipy.stats', 'scipy.linalg', 'scipy.special') if m in sys.modules]\n"
        "if heavy: sys.exit(f'import hestonmm.cli loaded {heavy}')\n"
        "code = cli.main(['compare', '--paths', '64', '--out', sys.argv[1]])\n"
        "if code or 'scipy.linalg' in sys.modules: sys.exit(f'compare exited {code}; linalg loaded')\n"
    )
    env = {"PYTHONPATH": str(Path(hestonmm.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
