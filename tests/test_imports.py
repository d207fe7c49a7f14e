"""Every top-level import of a package module is used or re-exported, and the
package's public names match its modules' ``__all__`` lists.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module or be
listed in its ``__all__``.  ``from __future__`` imports are exempt.

Importing the CLI loads numpy and the package only: scipy, most of a cold
start-up, is imported where the assignment solver is called.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crystalstat

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crystalstat"
# the library modules; cli is the command-line entry point, not re-exported
LIBRARY = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if not path.stem.startswith("_") and path.stem != "cli")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["path", "json"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("module", LIBRARY)
def test_module_exports_reach_the_package(module):
    exported = importlib.import_module(f"crystalstat.{module}").__all__
    assert [name for name in exported if name not in crystalstat.__all__] == []


def test_package_exports_resolve():
    missing = [name for name in crystalstat.__all__
               if name != "__version__" and not hasattr(crystalstat, name)]
    assert missing == []


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    probe = "import sys, crystalstat.cli; print(sorted({m.split('.')[0] for m in sys.modules}))"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env)
    assert done.returncode == 0, done.stderr
    assert "'scipy'" not in done.stdout
    assert "'crystalstat'" in done.stdout and "'numpy'" in done.stdout
