"""Source hygiene checks over the library modules.

- No ``assert`` statements: ``python -O`` strips them, so invariants must be
  checked explicitly.
- Every public top-level function or class has a caller outside its own
  definition in ``src/``, ``scripts/`` or ``perfbench/``. Tests do not count:
  a name that only tests use is dead code.
- Every name imported by a library module or a script is used in that file
  (``from __future__`` imports excepted).
- A library module or a script imports a private name (a dotted path with a
  ``_``-prefixed, non-dunder component) only if it is allowlisted, next to the
  test that pins the foreign routine's results, and its package has an upper
  version bound in ``pyproject.toml``.
- Every optional parameter of a library function is passed by at least one
  call in ``src/``, ``scripts/`` or ``perfbench/`` and left at its default by
  at least one, unless it is allowlisted with its reason: a default that no
  caller changes is a constant, and one that every caller overrides serves
  only tests. Dataclass fields are config keys, not parameters, and are not
  checked.
"""

import ast
import re
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_DIR = ROOT / "src" / "ufda"
CALLER_DIRS = ("src", "scripts", "perfbench")

# private import -> the test that pins what the code relies on it for
PRIVATE_IMPORTS = {
    "scipy.cluster._vq.update_cluster_means": "tests/test_clustering.py::TestClusterMeansMatchesBincount",
}

# (module.function, optional parameter) that every call sets or every call
# leaves at its default -> why it stays a parameter
SINGLE_VALUED_PARAMETERS = {
    ("clustering.kmeans", "n_init"): "perfbench/tracing.py reads it by name from the bound call",
    ("cli.main", "argv"): "the in-process seam of the console script, which calls main()",
}


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


def _imported_paths(tree):
    """The dotted path of every name imported in tree, relative imports
    with their leading dots."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _is_private(path):
    return any(part.startswith("_") and not (part.startswith("__") and part.endswith("__"))
               for part in path.split("."))


def test_private_imports_are_allowlisted():
    trees = {**_library(_trees(["src"])), **_trees(["scripts"])}
    found = {
        (str(path.relative_to(ROOT)), name)
        for path, tree in trees.items()
        for name in _imported_paths(tree)
        if _is_private(name)
    }
    stray = sorted(f"{where} {name}" for where, name in found if name not in PRIVATE_IMPORTS)
    assert not stray, "private imports outside the allowlist: " + ", ".join(stray)
    assert set(PRIVATE_IMPORTS) <= {name for _, name in found}, "allowlisted imports no longer made"
    for test_id in PRIVATE_IMPORTS.values():
        file, cls = test_id.split("::")
        tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
        assert any(isinstance(node, ast.ClassDef) and node.name == cls for node in tree.body), test_id
    # A private name can move in any release, so its package's version is capped.
    dependencies = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]["dependencies"]
    capped = {re.match(r"[\w.-]+", dep).group(0) for dep in dependencies if "<" in dep}
    uncapped = sorted({name.split(".")[0] for name in PRIVATE_IMPORTS} - capped)
    assert not uncapped, "private imports from packages with no upper version bound: " + ", ".join(uncapped)


def _optional_parameters():
    """Every library function with optional parameters, keyed as its calls
    resolve: ("function", module, name) for a function, nested ones included,
    and for a class's __init__ under the class name; ("method", name) for any
    other method. Values: (display name, positional parameters without self,
    optional parameters)."""
    out = {}
    for path, tree in _library(_trees(["src"])).items():
        module = path.stem
        methods = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            optional = positional[len(positional) - len(args.defaults):] if args.defaults else []
            optional += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            if not optional:
                continue
            cls = methods.get(id(fn))
            if cls is None:
                key, name = ("function", module, fn.name), fn.name
            elif fn.name == "__init__":
                key, name, positional = ("function", module, cls.name), cls.name, positional[1:]
            else:
                key, name, positional = ("method", fn.name), f"{cls.name}.{fn.name}", positional[1:]
            out[key] = (f"{module}.{name}", positional, optional)
    return out


def _resolved_calls(path, tree):
    """(callee key, call) for every call in tree: a bare name resolves to a
    function imported from a library module, or defined in this one, a
    module attribute to that module's function, any other attribute to a
    method of that name."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("ufda")):
            source = (node.module or "").removeprefix("ufda").lstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if source:
                    names[local] = (source, alias.name)
                else:
                    modules[local] = alias.name
    if path.parent == LIBRARY_DIR:
        names.update({fn.name: (path.stem, fn.name) for fn in ast.walk(tree)
                      if isinstance(fn, (ast.FunctionDef, ast.ClassDef)) and fn.name not in names})
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if isinstance(func, ast.Name) and func.id in names:
            yield ("function", *names[func.id]), call
        elif isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in modules:
                yield ("function", modules[func.value.id], func.attr), call
            else:
                yield ("method", func.attr), call


def test_every_optional_parameter_takes_two_values():
    functions = _optional_parameters()
    passed, defaulted = set(), set()
    for path, tree in _trees(CALLER_DIRS).items():
        for key, call in _resolved_calls(path, tree):
            if key not in functions:
                continue
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                continue  # unpacked arguments cannot be read statically
            name, positional, optional = functions[key]
            given = set(positional[: len(call.args)]) | {k.arg for k in call.keywords}
            passed |= {(name, p) for p in optional if p in given}
            defaulted |= {(name, p) for p in optional if p not in given}
    every = {(name, p) for name, _, optional in functions.values() for p in optional}
    single = every - (passed & defaulted)
    stray = sorted(f"{name}: {p}" for name, p in single - set(SINGLE_VALUED_PARAMETERS))
    assert not stray, "optional parameters that every call sets or every call leaves: " + ", ".join(stray)
    stale = sorted(f"{name}: {p}" for name, p in set(SINGLE_VALUED_PARAMETERS) - single)
    assert not stale, "allowlisted parameters that now take two values: " + ", ".join(stale)
