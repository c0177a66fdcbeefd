"""Each module's ``__all__`` is the one list of its public names, and no
production module depends on the oracles.

The package itself re-exports nothing, so a name left in ``__all__`` after
its definition is deleted would otherwise only surface as a broken
``from vql.<module> import *``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import vql

SOURCES = Path(vql.__file__).parent
MODULES = ("core", "amm", "glm", "fusion", "geo3d", "pipeline", "scenario", "metrics", "fileio", "selfcheck", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_defined_in_module(name):
    module = importlib.import_module(f"vql.{name}")
    exec(f"from vql.{name} import *", {})
    for public in module.__all__:
        value = getattr(module, public)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, f"{public} is defined in {value.__module__}"


def imported_names(tree: ast.Module) -> set[str]:
    """Every dotted name a parsed module imports: ``from . import glm`` gives ``..glm``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


PRODUCTION = sorted(path for path in SOURCES.glob("*.py") if path.stem not in ("cli", "selfcheck"))


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda path: path.stem)
def test_no_production_module_imports_selfcheck(path):
    # the oracles depend on production code, never the other way round
    names = imported_names(ast.parse(path.read_text(), str(path)))
    assert not [name for name in names if "selfcheck" in name.split(".")]
