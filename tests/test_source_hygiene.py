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
- Only ``cli.py`` reads or writes files (``open``, ``read_text``,
  ``write_text``, ``read_bytes``, ``write_bytes``), for the library and the
  scripts alike: the other library modules turn their formats into lines and
  back, and a script reads and writes through ``cli.read_config`` and
  ``cli.write_files``. There is no exception.
- Raw-draw arithmetic (``>> 11``, ``2**-53``, ``2**64``, ``1 << 64``), the
  rules that turn raw 64-bit draws into values, appears only in
  ``numerics.py``, so that a caller uses ``units`` or ``bounded_draws``.
- The library imports from SciPy exactly ``update_cluster_means`` (k-means'
  centroid update) and ``cdist`` (the ct sweep's blocked distances), as README
  states, so a third SciPy call is a deliberate change to this list.
- The library and the scripts define exactly one exception class,
  ``config.ConfigError``. An error's type alone decides its exit code (2 for
  a ConfigError, 1 for any other ValueError or a MemoryError), so a new
  exception class would be a new rule beside ``cli.fail``.
- ``import ufda.cli``, run in a fresh interpreter, leaves ``scipy.optimize``
  out of ``sys.modules``: matching is solved in ``evaluation``, and importing
  that package alone adds about 11 MiB to the peak RSS of every run.
"""

import ast
import builtins
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY_DIR = ROOT / "src" / "ufda"
CALLER_DIRS = ("src", "scripts", "perfbench")

# private import -> the test that pins what the code relies on it for
PRIVATE_IMPORTS = {
    "scipy.cluster._vq.update_cluster_means": "tests/test_clustering.py::TestClusterMeansMatchesBincount",
}

# every SciPy name the library imports
SCIPY_IMPORTS = {"scipy.cluster._vq.update_cluster_means", "scipy.spatial.distance.cdist"}

# (module.function, optional parameter) that every call sets or every call
# leaves at its default -> why it stays a parameter
SINGLE_VALUED_PARAMETERS = {
    ("clustering.kmeans", "n_init"): "perfbench/tracing.py reads it by name from the bound call",
    ("cli.main", "argv"): "the in-process seam of the console script, which calls main()",
}

FILE_IO_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


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


def test_scipy_imports_are_the_two_named_in_readme():
    found = {name for tree in _library(_trees(["src"])).values() for name in _imported_paths(tree)
             if name.split(".")[0] == "scipy"}
    assert found == SCIPY_IMPORTS, f"the library's SciPy imports are {sorted(found)}, not {sorted(SCIPY_IMPORTS)}"


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


def test_only_the_cli_reads_and_writes_files():
    found = {
        (path, node.lineno)
        for path, tree in {**_library(_trees(["src"])), **_trees(["scripts"])}.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) in FILE_IO_CALLS
    }
    stray = sorted(f"{path.relative_to(ROOT)}:{line}" for path, line in found if path != LIBRARY_DIR / "cli.py")
    assert not stray, "file I/O outside cli.py: " + ", ".join(stray)
    assert any(path == LIBRARY_DIR / "cli.py" for path, _ in found), "the check no longer sees cli.py's reads"


def _raw_draw_arithmetic(node):
    """Whether node is `x >> 11`, `2**64`, `2**-53` or `1 << 64`."""
    if not isinstance(node, ast.BinOp):
        return False
    left = node.left.value if isinstance(node.left, ast.Constant) else None
    right = node.right
    if isinstance(right, ast.UnaryOp) and isinstance(right.op, ast.USub) and isinstance(right.operand, ast.Constant):
        right = -right.operand.value
    else:
        right = right.value if isinstance(right, ast.Constant) else None
    return ((isinstance(node.op, ast.RShift) and right == 11)
            or (isinstance(node.op, ast.Pow) and left == 2 and right in (64, -53))
            or (isinstance(node.op, ast.LShift) and left == 1 and right == 64))


def test_raw_draws_become_values_only_in_numerics():
    trees = {**_library(_trees(["src"])), **_trees(["scripts"])}
    found = sorted({
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in trees.items()
        if path != LIBRARY_DIR / "numerics.py"
        for node in ast.walk(tree)
        if _raw_draw_arithmetic(node)
    })
    assert not found, "raw-draw arithmetic outside numerics.py (use units or bounded_draws): " + ", ".join(found)
    numerics = ast.parse((LIBRARY_DIR / "numerics.py").read_text(encoding="utf-8"))
    assert any(_raw_draw_arithmetic(node) for node in ast.walk(numerics)), "the check no longer sees the rules"


def _is_builtin_exception(name):
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def test_config_error_is_the_one_exception_class():
    trees = {**_library(_trees(["src"])), **_trees(["scripts"])}
    classes = [(path.stem, node) for path, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    found = None
    exceptions = set()
    while exceptions != found:  # until no class derives from one found in the last pass
        found = exceptions
        names = {name for _, name in found}
        exceptions = {(module, node.name) for module, node in classes
                      if any(isinstance(base, ast.Name) and (base.id in names or _is_builtin_exception(base.id))
                             for base in node.bases)}
    assert exceptions == {("config", "ConfigError")}, f"exception classes: {sorted(exceptions)}"


def test_the_cli_does_not_import_scipy_optimize():
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    code = "import sys, ufda.cli; print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'optimize']))"
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]", "import ufda.cli loads " + result.stdout.strip()
