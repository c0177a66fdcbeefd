"""Each module's ``__all__`` is the one list of its public names.

The package itself re-exports nothing, so a name left in ``__all__`` after
its definition is deleted would otherwise only surface as a broken
``from vql.<module> import *``.
"""

import importlib
import inspect

import pytest

MODULES = ("core", "amm", "glm", "fusion", "geo3d", "pipeline", "scenario", "metrics", "fileio", "selfcheck", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_defined_in_module(name):
    module = importlib.import_module(f"vql.{name}")
    exec(f"from vql.{name} import *", {})
    for public in module.__all__:
        value = getattr(module, public)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, f"{public} is defined in {value.__module__}"
