"""The public API is what the other modules, the acceptance gate and the benchmark use.

Every function or constant a module exports in ``__all__`` must be
referenced by another module of ``src/transferlab``, imported by
``tests/test_acceptance.py``, or used in ``perfbench``. A module's
references to its own exports do not count: a helper only its own module
calls is private. Classes are exempt, because they are the argument and
return types of public functions. A function that only tests call
belongs in the tests or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "transferlab"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _used_names(node: ast.AST) -> set[str]:
    """Names read, and attributes taken, anywhere in ``node``."""
    used = set()
    for cur in ast.walk(node):
        if isinstance(cur, ast.Name):
            used.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            used.add(cur.attr)
    return used


def _imported_names(tree: ast.Module) -> set[str]:
    return {
        alias.name
        for cur in ast.walk(tree) if isinstance(cur, ast.ImportFrom)
        for alias in cur.names
    }


def _classes(tree: ast.Module) -> set[str]:
    return {stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)}


def test_every_export_has_a_caller():
    trees = {
        path.stem: _parse(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    used_by = {module: _used_names(tree) for module, tree in trees.items()}
    outside = set().union(
        *(_used_names(_parse(path)) for path in sorted((ROOT / "perfbench").glob("*.py"))),
        _imported_names(_parse(ROOT / "tests" / "test_acceptance.py")),
    )
    exports = [
        (module, name)
        for module, tree in trees.items()
        for name in _exports(tree)
        if name not in _classes(tree)
    ]
    unused = [
        f"{module}.{name}"
        for module, name in exports
        if name not in outside and not any(
            name in names for other, names in used_by.items() if other != module
        )
    ]
    assert len(exports) > 50
    assert not unused, (
        f"exported but used by no other module, no acceptance test and nothing "
        f"in perfbench/: {unused}; delete them or make them private"
    )
