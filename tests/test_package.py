"""Each module's ``__all__`` is the one list of its public names, no
production module depends on the oracles, and the suite's own pytest
configuration reports a failing property test like any other failure.

The package itself re-exports nothing, so a name left in ``__all__`` after
its definition is deleted would otherwise only surface as a broken
``from vql.<module> import *``.
"""

import ast
import importlib
import inspect
import subprocess
import sys
import textwrap
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


def test_failing_property_is_reported_with_the_rest(tmp_path):
    # under filterwarnings = error, a warning raised in the hypothesis plugin's report of a failing
    # example would end the run with an INTERNALERROR, losing its summary and every later test
    (tmp_path / "test_property.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_fails(x):
                assert x < 0

            def test_passes():
                pass
            """
        )
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(config)]
    run = subprocess.run(
        [*command, "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = run.stdout + run.stderr
    assert run.returncode == 1, output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in run.stdout, output
