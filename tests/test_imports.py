"""src/osctab declares no dependencies: every import is the standard library or osctab itself."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "osctab"


def imported_modules(path):
    """Top-level module names of the absolute imports in one file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_imports_are_stdlib_or_osctab(path):
    outside = {
        name
        for name in imported_modules(path)
        if name != "osctab" and name not in sys.stdlib_module_names
    }
    assert not outside
