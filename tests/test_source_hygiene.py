"""Source hygiene checks over the library modules.

- No ``assert`` statements: ``python -O`` strips them, so invariants must be
  checked explicitly.
- Every public top-level function or class has a caller outside its own
  definition in ``src/``, ``scripts/`` or ``perfbench/``. Tests do not count:
  a name that only tests use is dead code.
- Every name imported by a library module or a script is used in that file
  (``from __future__`` imports excepted).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_DIR = ROOT / "src" / "ufda"
CALLER_DIRS = ("src", "scripts", "perfbench")


def _trees(dirs):
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for d in dirs
        for path in sorted((ROOT / d).rglob("*.py"))
    }


def _names(node):
    """Identifiers and attribute names used anywhere inside node. Imports
    contribute none, so an unused import is not a caller."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _library(trees):
    return {path: tree for path, tree in trees.items() if path.parent == LIBRARY_DIR}


def test_no_assert_statements():
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _library(_trees(["src"])).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements (stripped by python -O): " + ", ".join(found)


def test_every_public_definition_has_a_caller():
    trees = _trees(CALLER_DIRS)
    statements = [(stmt, _names(stmt)) for tree in trees.values() for stmt in tree.body]
    uncalled = [
        f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
        for path, tree in _library(trees).items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names for stmt, names in statements if stmt is not node)
    ]
    assert not uncalled, "public definitions with no caller outside tests: " + ", ".join(uncalled)


def test_every_import_is_used():
    trees = {**_library(_trees(["src"])), **_trees(["scripts"])}
    unused = []
    for path, tree in trees.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "unused imports: " + ", ".join(unused)
