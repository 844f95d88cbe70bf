"""Every exported name resolves: deleting a function must delete its exports."""

import importlib
import pkgutil

import pytest

import hestonmm

MODULES = ["hestonmm"] + [f"hestonmm.{m.name}" for m in pkgutil.iter_modules(hestonmm.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_real_names(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs about a third of a second of every cold start
    import subprocess
    import sys
    from pathlib import Path

    code = "import sys, hestonmm.cli; sys.exit('scipy.stats' in sys.modules)"
    env = {"PYTHONPATH": str(Path(hestonmm.__file__).resolve().parents[1])}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
