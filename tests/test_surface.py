"""Source-level pins on what the ``repro`` package exposes and does.

Results cross process boundaries only through a local process pool and the
on-disk result store.  Two pins keep the package off the network:

* no module imports :mod:`socket`;
* ``pickle.loads`` is called only in ``experiments/store.py``, which
  unpickles entries it wrote itself to a local directory.  Unpickling
  bytes from any other source runs whatever code the sender chose.

A third pin keeps the package free of surface that only its own unit tests
reach: every module-level function and class must be used by name
somewhere in the package, ``examples/``, ``benchmarks/``, ``perfbench/``
or ``setup.py``, or be exported through ``repro.__all__``.
"""

import ast
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where a use of a package definition counts, relative to the repo root.
#: ``tests/`` is absent on purpose: a definition that only its own unit
#: test calls serves no artifact.
CALLER_ROOTS = ("src/repro", "examples", "benchmarks", "perfbench")
CALLER_FILES = ("setup.py",)

#: The only modules allowed to call ``pickle.loads``, relative to the package.
UNPICKLING_MODULES = ("experiments/store.py",)


def package_modules() -> Dict[str, ast.Module]:
    """Every module of the package, parsed, keyed by its package-relative path."""
    return {
        path.relative_to(PACKAGE_ROOT).as_posix(): ast.parse(path.read_text(), str(path))
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
    }


def imported_modules(tree: ast.Module) -> List[str]:
    """The dotted names of every module ``tree`` imports, at any depth."""
    names: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append(node.module)
    return names


def unpickle_calls(tree: ast.Module) -> List[int]:
    """Line numbers of every ``pickle.loads`` call or import in ``tree``."""
    aliases = {"pickle"}
    lines: List[int] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "pickle" and alias.asname:
                    aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
            if any(alias.name == "loads" for alias in node.names):
                lines.append(node.lineno)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "loads"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in aliases
        ):
            lines.append(node.lineno)
    return lines


def identifier_uses(node: ast.AST, count_imports: bool = True) -> Counter:
    """How often ``node`` uses each identifier: as a name, attribute or import.

    Strings, comments and docstrings are not uses.
    """
    uses: Counter = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            uses[child.id] += 1
        elif isinstance(child, ast.Attribute):
            uses[child.attr] += 1
        elif count_imports and isinstance(child, (ast.Import, ast.ImportFrom)):
            for alias in child.names:
                uses.update(alias.name.split("."))
    return uses


def package_surface() -> Tuple[List[Tuple[str, str, int]], Counter]:
    """The package's module-level definitions and every caller's identifier uses.

    Each definition is ``(path:name, name, uses inside its own body)``.  A
    package ``__init__.py``'s imports are re-exports, so they are not
    counted as uses; ``repro.__all__`` counts once per exported name.
    """
    source_root = REPO_ROOT / "src" / "repro"
    paths = [path for root in CALLER_ROOTS for path in (REPO_ROOT / root).rglob("*.py")]
    paths += [REPO_ROOT / name for name in CALLER_FILES]
    definitions: List[Tuple[str, str, int]] = []
    uses: Counter = Counter(repro.__all__)
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), str(path))
        in_package = source_root in path.parents
        reexports = in_package and path.name == "__init__.py"
        uses.update(identifier_uses(tree, count_imports=not reexports))
        if not in_package:
            continue
        module = path.relative_to(source_root).as_posix()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = identifier_uses(node)[node.name]
                definitions.append((f"{module}:{node.name}", node.name, own))
    return definitions, uses


class TestNoNetworkSurface:
    def test_no_module_imports_socket(self):
        offenders = {
            path: name
            for path, tree in package_modules().items()
            for name in imported_modules(tree)
            if name == "socket" or name.startswith("socket.")
        }
        assert offenders == {}

    def test_only_the_result_store_unpickles(self):
        # Equality, not a subset: the store's own call proves the walk ran.
        callers = {
            path: lines
            for path, tree in package_modules().items()
            if (lines := unpickle_calls(tree))
        }
        assert set(callers) == set(UNPICKLING_MODULES)


class TestNoUnreachedSurface:
    def test_every_definition_has_a_caller_outside_the_tests(self):
        definitions, uses = package_surface()
        # The engine's own entry proves the walk saw the package.
        assert "sim/engine.py:Simulator" in {key for key, _, _ in definitions}
        unreached = [key for key, name, own in definitions if uses[name] <= own]
        assert not unreached, "reached only from tests/:\n" + "\n".join(unreached)
