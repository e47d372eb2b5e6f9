"""src/osctab holds only code it runs, and declares no dependencies.

Every import is the standard library or osctab itself, every top-level
import is used, and every module-level function, class and assignment
(type aliases and constants) is named by other src code.  The exceptions
are dunders, the bindings perfbench/tracing.py's BOUNDARIES wraps and the
names perfbench/*.py reads from osctab, which the benchmark needs to find
by name.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "osctab"
PERFBENCH = PACKAGE.parents[1] / "perfbench"
TRACING_PY = PERFBENCH / "tracing.py"


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


def modules():
    """{module name: parsed source} for each module of src/osctab."""
    return {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def pinned_bindings():
    """(module, attribute) of each binding that BOUNDARIES in perfbench/tracing.py wraps."""
    tree = ast.parse(TRACING_PY.read_text(), filename=str(TRACING_PY))
    boundaries = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "BOUNDARIES"
    )
    return {
        (row.elts[0].value.removeprefix("osctab.").partition(":")[0], row.elts[1].value)
        for row in boundaries.elts
    }


def perfbench_reads():
    """(module, name) of each name perfbench/*.py imports from an osctab module or reads
    as an attribute of one it imports."""
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {}  # local name -> osctab module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "osctab":
                bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("osctab."):
                module = node.module.removeprefix("osctab.")
                reads.update((module, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in bound:
                    reads.add((bound[node.value.id], node.attr))
    return reads


def names_read(node):
    """The identifiers a node's code reads: bare names it does not assign, and attribute names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def defined_names(node):
    """The names a module-level def, class or plain assignment binds, dunders aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
        names = [target.id for target in node.targets]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        return []
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def unnamed_definitions(trees, pinned):
    """module.name of each module-level def, class or assignment that no live src code names.

    Live code is the module-level code outside definitions, the pinned
    bindings, and, to a fixed point, the definitions live code names.
    """
    definitions: dict[str, list[tuple[str, ast.AST]]] = {}
    live = {attr for _, attr in pinned}
    for module, tree in trees.items():
        for node in tree.body:
            if names := defined_names(node):
                for name in names:
                    definitions.setdefault(name, []).append((module, node))
            else:
                live.update(names_read(node))
    read: set[str] = set()
    while ready := (live & definitions.keys()) - read:
        for name in ready:
            for _, node in definitions[name]:
                live.update(names_read(node))
        read |= ready
    return sorted(
        f"{module}.{name}"
        for name in definitions.keys() - live
        for module, _ in definitions[name]
    )


def unused_imports(trees, pinned):
    """module: name of each name a module imports at top level and never reads."""
    unused = []
    for module, tree in trees.items():
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read and (module, bound) not in pinned:
                        unused.append(f"{module}: {bound}")
    return unused


def test_every_definition_is_named_by_src():
    """Code that only tests call lives in the tests."""
    assert unnamed_definitions(modules(), pinned_bindings() | perfbench_reads()) == []


def test_an_unread_alias_or_constant_is_reported():
    trees = modules()
    unread = "UnreadRows = dict[str, list[ScanRow]]\nUNREAD: int = 1"
    trees["table"].body += ast.parse(unread).body
    trees["kernels"].body += ast.parse("__unread__ = 1").body  # dunders are exempt
    pinned = pinned_bindings() | perfbench_reads()
    assert unnamed_definitions(trees, pinned) == ["table.UNREAD", "table.UnreadRows"]
    assert ("kernels", "BACKEND") in perfbench_reads()  # read only by perfbench/run.py


def test_every_top_level_import_is_used():
    assert unused_imports(modules(), pinned_bindings()) == []
