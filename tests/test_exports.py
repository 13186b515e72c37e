import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = [
    "thinfilm",
    "thinfilm.core",
    "thinfilm.entropy",
    "thinfilm.interactions",
    "thinfilm.limits",
    "thinfilm.numerics",
    "thinfilm.riemann",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_exactly_the_public_api(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = [
        n
        for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    ]
    assert [n for n in defined if n not in mod.__all__] == []


def test_numpy_is_the_only_runtime_dependency(src_env):
    # a fresh interpreter imports every module of the package and none of
    # the test-only packages comes with it
    code = (
        "import importlib, pkgutil, sys, thinfilm\n"
        "names = [m.name for m in pkgutil.iter_modules(thinfilm.__path__, 'thinfilm.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(names))\n"
        "print([m for m in ('scipy', 'sympy', 'hypothesis') if m in sys.modules])\n"
    )
    res = subprocess.run([sys.executable, "-c", code], env=src_env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    names, loaded = res.stdout.splitlines()
    assert set(MODULES[1:]) | {"thinfilm.cli", "thinfilm.errors"} <= set(names.split())
    assert loaded == "[]"


def test_cases_import_without_test_extras(src_env):
    # the files that CI runs without the test extras import tests/cases.py,
    # so a fresh interpreter that can import none of the extras imports it
    code = "import sys\nsys.modules.update(dict.fromkeys(('hypothesis', 'scipy', 'sympy')))\nimport cases\n"
    tests = Path(__file__).resolve().parent
    res = subprocess.run([sys.executable, "-c", code], cwd=tests, env=src_env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
