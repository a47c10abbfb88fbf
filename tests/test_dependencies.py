"""``src/netdual`` depends on numpy alone: ``pyproject.toml`` declares no
other runtime dependency, so every import in the package, at any depth,
must name a standard-library module, numpy or a module of the package."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "netdual").glob("*.py"))
ALLOWED = {"numpy", "netdual"}


def foreign_imports(path: Path) -> list:
    """The (line, module) of each import that is not standard library, numpy
    or the package itself."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:  # relative imports stay inside the package
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in ALLOWED:
                found.append((node.lineno, name))
    return found


def test_sources_are_found():
    assert "harness.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_or_the_package(path):
    assert foreign_imports(path) == []


def test_a_foreign_import_is_reported(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("import math\nfrom . import core\n\ndef f():\n    import scipy.linalg\n")
    assert foreign_imports(path) == [(5, "scipy.linalg")]


def test_numpy_floor_has_vecdot():
    """The engine's per-row dot, which also forms the measured norms of
    every round, is ``np.vecdot``, new in numpy 2.0, so the declared floor
    is 2.0."""
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert '"numpy>=2.0"' in pyproject
