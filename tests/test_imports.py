"""Every top-level import of a package module is used or re-exported, and the
package's public names match its modules' ``__all__`` lists.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module or be
listed in its ``__all__``.  ``from __future__`` imports are exempt.

Importing the CLI loads numpy and the package only: scipy, most of a cold
start-up, is imported where the assignment solver is called.

Only ``_lattice`` writes the Fourier convention: no other module calls
``np.exp`` on an imaginary argument or multiplies ``np.pi`` by 2, apart from
``InteractionKernel.symbol``, the pointwise oracle of ``symbol_grid``.

One owner per gating decision: only ``spectral.dispersion_grid`` takes a
``delta_cross``, a ``delta_null`` or a ``delta_hess`` (every other consumer
reads the grid's crossing, C0 and Ck flags), and only ``cli._Run`` reads the
``--allow-degenerate`` waiver, which ``cli.main`` wires into the run.

One owner for the initial measure: in the CLI only ``_Run.measure`` builds a
density from a measure spec (``gibbs`` builds its fixed white-noise start from
``--T1``), and only ``_effective_config`` reads ``--transform``.

One failure path: only the CLI's exit-code table ``_FAILURES`` reads the exit
codes of usage errors, condition failures and numerical faults; the E3
verdict, the dispersion grid and the density's square root decide a negative
eigenvalue by one ``_lattice`` rule; and no module raises ``AssertionError``,
since a guard on a computed number raises ``NumericalFault``.

Every package function that the benchmark's memory pass names in
``bench/child.py`` (``MEMORY_FUNCTIONS``) exists.
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


def convention_writes(source: str) -> list[str]:
    """'scope: what' for each place the source writes the lattice Fourier
    convention itself: an np.exp whose argument holds an imaginary literal, or
    a product whose factors include np.pi and the literal 2."""
    found = []

    def is_product(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)

    def factors(node):
        return factors(node.left) + factors(node.right) if is_product(node) else [node]

    def visit(node, scope, in_product=False):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.exp" and any(
                isinstance(c, ast.Constant) and isinstance(c.value, complex)
                for c in ast.walk(node)):
            found.append(f"{scope}: np.exp of an imaginary argument")
        if is_product(node) and not in_product:
            parts = factors(node)
            if any(ast.unparse(f) == "np.pi" for f in parts) and any(
                    isinstance(f, ast.Constant) and f.value == 2 for f in parts):
                found.append(f"{scope}: 2 pi")
        for child in ast.iter_child_nodes(node):
            visit(child, scope, is_product(node))

    visit(ast.parse(source), "")
    return found


#: the pointwise symbol that the tests compare symbol_grid against
CONVENTION_ORACLES = {"kernel": ["InteractionKernel.symbol: np.exp of an imaginary argument"]}


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.stem != "_lattice"], ids=lambda p: p.name)
def test_only_lattice_writes_the_fourier_convention(path):
    assert convention_writes(path.read_text()) == CONVENTION_ORACLES.get(path.stem, [])


def test_convention_write_is_found():
    source = ("import numpy as np\n"
              "def f(z, th):\n"
              "    return np.exp(-1j * z * th), 2.0 * np.pi / 8, np.exp(-0.5 * th)\n"
              "class A:\n"
              "    def g(self, L):\n"
              "        return np.arange(L) * np.pi * 2, 2 * np.pi * L, 3.0 * np.pi\n")
    assert convention_writes(source) == [
        "f: np.exp of an imaginary argument", "f: 2 pi", "A.g: 2 pi", "A.g: 2 pi"]
    assert convention_writes(Path(crystalstat.__file__).with_name("_lattice.py").read_text())


def scoped_nodes(source: str):
    """(scope, node) for every node of the source, the scope being the
    dotted names of the enclosing classes and functions, or the name that a
    module-level assignment binds."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Assign) and not scope and len(node.targets) == 1:
            scope = ast.unparse(node.targets[0])
        yield scope, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(ast.parse(source), "")


def parameters_named(source: str, name: str) -> list[str]:
    """The functions that take a parameter called name."""
    return [scope for scope, node in scoped_nodes(source)
            if isinstance(node, ast.FunctionDef) and name in
            [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]]


def reads_of(source: str, name: str) -> list[str]:
    """The scope of each read of a variable or an attribute called name."""
    return [scope for scope, node in scoped_nodes(source)
            if isinstance(getattr(node, "ctx", None), ast.Load)
            and name in (getattr(node, "id", None), getattr(node, "attr", None))]


def test_gating_decisions_have_one_owner():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    for threshold in ("delta_cross", "delta_null", "delta_hess"):
        assert [f"{module}.{scope}" for module, source in sources.items()
                for scope in parameters_named(source, threshold)] == [
                    "spectral.dispersion_grid"], threshold
    readers = {f"{module}.{scope.split('.')[0]}" for module, source in sources.items()
               for scope in reads_of(source, "allow_degenerate")}
    assert readers == {"cli._Run", "cli.main"}


def test_parameter_and_read_are_found():
    source = ("def f(a, delta_null=0.0):\n    return a\n"
              "class A:\n"
              "    def g(self, *, delta_null):\n        return self.allow_degenerate\n"
              "def h(args):\n"
              "    allow_degenerate = args.x\n"
              "    return allow_degenerate, dict(allow_degenerate=1)\n")
    assert parameters_named(source, "delta_null") == ["f", "A.g"]
    assert reads_of(source, "allow_degenerate") == ["A.g", "h"]


def calls_of(source: str, name: str) -> list[str]:
    """The scope of each call of a function or method called name."""
    return [scope for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def flag_reads(source: str, flag: str) -> list[str]:
    """The scope of each read of a parsed flag: args.<flag>, or getattr(args, "<flag>")."""
    return [scope for scope, node in scoped_nodes(source)
            if (ast.unparse(node) == f"args.{flag}" and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr"
                and [ast.unparse(a) for a in node.args[:2]] == ["args", repr(flag)])]


def test_the_measure_has_one_owner():
    source = (PACKAGE / "cli.py").read_text()
    for builder in ("triangular_density", "density_from_jsonable"):
        assert calls_of(source, builder) == ["_Run.measure"], builder
    assert calls_of(source, "white_noise_density") == ["_Run.measure", "_cmd_gibbs"]
    assert flag_reads(source, "transform") == ["_effective_config"]


def test_call_and_flag_read_are_found():
    source = ("def f(args):\n    return g(args.transform), m.g(1), g\n"
              "class A:\n"
              "    def h(self, args):\n"
              "        args.transform = getattr(args, 'transform', None)\n"
              "        return getattr(args, 'seed'), getattr(self, 'transform')\n")
    assert calls_of(source, "g") == ["f", "f"]
    assert flag_reads(source, "transform") == ["f", "A.h"]


def raises_of(source: str, name: str) -> list[str]:
    """The scope of each statement that raises the exception class called
    name: ``raise name`` or ``raise name(...)``, and for AssertionError an
    ``assert``."""
    def raised(node):
        if isinstance(node, ast.Assert):
            return "AssertionError"
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return getattr(exc, "id", getattr(exc, "attr", None))

    return [scope for scope, node in scoped_nodes(source)
            if isinstance(node, (ast.Raise, ast.Assert)) and raised(node) == name]


def test_failures_have_one_path():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}

    def everywhere(find, name):
        return [f"{module}.{scope}" for module, source in sources.items()
                for scope in find(source, name)]

    for code in ("EXIT_USAGE", "EXIT_CONDITION", "EXIT_NUMERICAL"):
        assert everywhere(reads_of, code) == ["cli._FAILURES"], code
    assert sorted(everywhere(calls_of, "lowest_eigenvalue")) == [
        "fields.SpectralDensity.hermitian_sqrt", "kernel.check_E123",
        "spectral.dispersion_grid"]
    # and each acts on the rule's verdict, not on a comparison of its own
    assert sorted(everywhere(reads_of, "negative")) == [
        "fields.SpectralDensity.hermitian_sqrt", "kernel.e3_report",
        "spectral.dispersion_grid"]
    assert everywhere(raises_of, "AssertionError") == []


def test_raise_and_table_read_are_found():
    source = ("A = 1\nTABLE = ((A, 'a'),)\n"
              "def f(x):\n    assert x\n    raise AssertionError('x')\n"
              "class C:\n"
              "    def g(self):\n        raise AssertionError\n"
              "    def h(self):\n        raise ValueError(A) from None\n")
    assert raises_of(source, "AssertionError") == ["f", "f", "C.g"]
    assert raises_of(source, "ValueError") == ["C.h"]
    assert reads_of(source, "A") == ["TABLE", "C.h"]


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


def test_benchmark_memory_functions_resolve():
    # the benchmark's memory pass wraps these by name; a rename in the
    # package would crash every traced run, so the names are read from
    # bench/child.py as written and looked up here
    child = ast.parse((PACKAGE.parents[1] / "bench" / "child.py").read_text())
    listed = [ast.literal_eval(node.value) for node in child.body
              if isinstance(node, ast.Assign)
              and [ast.unparse(t) for t in node.targets] == ["MEMORY_FUNCTIONS"]]
    assert len(listed) == 1 and listed[0]
    for module, name in listed[0]:
        assert callable(getattr(importlib.import_module(f"crystalstat.{module}"), name, None)), \
            f"crystalstat.{module}.{name}"
