"""What the installed ``repro`` package never does: talk to the network.

Results cross process boundaries only through a local process pool and the
on-disk result store.  Two source-level pins keep it that way:

* no module imports :mod:`socket`;
* ``pickle.loads`` is called only in ``experiments/store.py``, which
  unpickles entries it wrote itself to a local directory.  Unpickling
  bytes from any other source runs whatever code the sender chose.
"""

import ast
from pathlib import Path
from typing import Dict, List

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent

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
