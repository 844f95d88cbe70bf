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
