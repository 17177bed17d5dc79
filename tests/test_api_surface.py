"""The public API is what the package itself and the benchmark use.

Every name a module exports in ``__all__`` must be referenced somewhere
in ``src/transferlab`` outside its own definition, or in ``perfbench``.
A function that only tests call belongs in the tests or nowhere.
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


def _defined_name(stmt: ast.stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def test_every_export_has_a_caller():
    trees = {
        path.stem: _parse(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    # per module, the names each top-level statement uses
    statements = {
        module: [(_defined_name(stmt), _used_names(stmt)) for stmt in tree.body]
        for module, tree in trees.items()
    }
    bench = set().union(
        *(_used_names(_parse(path)) for path in sorted((ROOT / "perfbench").glob("*.py")))
    )
    exports = [(module, name) for module, tree in trees.items() for name in _exports(tree)]
    unused = [
        f"{module}.{name}"
        for module, name in exports
        if name not in bench and not any(
            name in names
            for other, stmts in statements.items()
            for defined, names in stmts
            if (other, defined) != (module, name)
        )
    ]
    assert len(exports) > 50
    assert not unused, (
        f"exported but used by nothing in src/ or perfbench/: {unused}; "
        "delete them or make them private"
    )
