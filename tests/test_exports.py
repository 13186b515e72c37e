import importlib
import inspect

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
