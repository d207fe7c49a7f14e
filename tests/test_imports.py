"""Every top-level import of a package module is used or re-exported, and the
package's public names are its modules' ``__all__`` lists.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module or be
listed in its ``__all__``.  ``from __future__`` imports are exempt, and so is
a star import of a library module in the package's ``__init__.py``, whose
``__all__`` is ``["__version__", "NumericalFault"]`` followed by each library
module's ``__all__`` in layer order; a star import anywhere else is reported.

Importing the CLI loads numpy and the package only: scipy, most of a cold
start-up, is imported where the assignment solver is called.

Only ``_lattice`` writes the Fourier convention: no other module calls
``np.exp`` on an imaginary argument or multiplies ``np.pi`` by 2, apart from
``InteractionKernel.symbol``, the pointwise oracle of ``symbol_grid``.  Nor
does any other module write the Hermitian part ``0.5 * (x + conj(x^T))``,
whose whole-grid form ``_lattice.hermitian_part`` builds with one temporary;
``InteractionKernel.symbol`` is exempt here too.

One owner per gating decision: only ``spectral.dispersion_grid`` takes a
``delta_cross``, a ``delta_null`` or a ``delta_hess`` (every other consumer
reads the grid's crossing, C0 and Ck flags), and only ``cli._Run`` reads the
``--allow-degenerate`` waiver, which ``cli.main`` wires into the run.

One owner for the initial measure: in the CLI only ``_Run.measure`` builds a
density from a measure spec (``gibbs`` builds its fixed white-noise start from
``--T1``), and only ``_effective_config`` reads ``--transform``.

One reader of memory layout: only ``_lattice.one_node`` reads an array's
``.strides``; every other module asks it whether a nodewise array holds one
node.

One failure path: only the CLI's exit-code table ``_FAILURES`` reads the exit
codes of usage errors, condition failures and numerical faults; the E3
verdict, the dispersion grid and the density's square root decide a negative
eigenvalue by one ``_lattice`` rule; and no module raises ``AssertionError``,
since a guard on a computed number raises ``NumericalFault``.

One owner of the products in ``covariance.limit_density``: it writes no
matrix product itself, and makes every one through ``_node_product``.

One declaration per public name: a module reads a name of another package
module, by import or as an attribute of the imported module, only when that
module's ``__all__`` lists it, so no underscore name crosses; ``_lattice``'s
names are shared by every module and exempt.

One dependency order: no module imports one later in ``LAYERS``, at module
level or inside a function, apart from ``cli``'s read of the package's
``__version__``.

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


def unused_imports(source: str, init: bool = False) -> list[str]:
    tree = ast.parse(source)
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            if node.names[0].name == "*":
                # the package re-exports a library module's __all__
                if not (init and node.level == 1 and node.module in LIBRARY):
                    imported.append(f"{node.module}.*")
                continue
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), init=path.name == "__init__.py") == []


def test_unused_import_is_found():
    source = "from os import path, sep\nimport json\n__all__ = ['sep']\n"
    assert unused_imports(source) == ["path", "json"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_star_import_is_found_outside_the_package_init():
    source = "from .kernel import *\nfrom .stats import *\n"
    assert unused_imports(source, init=True) == []
    assert unused_imports(source) == ["kernel.*", "stats.*"]
    # in __init__.py too, a star import of what is not a library module is
    assert unused_imports("from ._lattice import *\nfrom .cli import *\nfrom os import *\n"
                          "from crystalstat.kernel import *\n", init=True) == [
        "_lattice.*", "cli.*", "os.*", "crystalstat.kernel.*"]


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


def hermitian_part_writes(source: str) -> list[str]:
    """The scope of each place the source writes the Hermitian part of a
    matrix x itself: half of, or a division by 2 of, a sum of x and a
    conjugate transpose of x (np.conj/np.conjugate/.conj() applied with
    np.swapaxes/.swapaxes/np.transpose/.transpose/.T, in either order)."""
    def conjugate_transpose_of(term, x):
        words = {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(term)}
        return (words & {"conj", "conjugate"} and words & {"swapaxes", "transpose", "T"}
                and any(ast.unparse(n) == ast.unparse(x) for n in ast.walk(term)))

    def is_hermitian_sum(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and any(
            conjugate_transpose_of(term, other)
            for term, other in ((node.left, node.right), (node.right, node.left)))

    def halves(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            pairs = ((node.left, node.right), (node.right, node.left))
            return any(isinstance(c, ast.Constant) and c.value == 0.5 and is_hermitian_sum(e)
                       for c, e in pairs)
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                and isinstance(node.right, ast.Constant) and node.right.value == 2
                and is_hermitian_sum(node.left))

    return [scope for scope, node in scoped_nodes(source) if halves(node)]


#: the pointwise symbol that the tests compare symbol_grid against
HERMITIAN_ORACLES = {"kernel": ["InteractionKernel.symbol"]}


@pytest.mark.parametrize("path", [path for path in sorted(PACKAGE.glob("*.py"))
                                  if path.stem != "_lattice"], ids=lambda p: p.name)
def test_only_lattice_writes_the_hermitian_part(path):
    assert hermitian_part_writes(path.read_text()) == HERMITIAN_ORACLES.get(path.stem, [])


def test_hermitian_part_write_is_found():
    source = ("import numpy as np\n"
              "def f(q, m):\n"
              "    a = 0.5 * (q + np.conj(np.swapaxes(q, -1, -2)))\n"
              "    b = (np.conjugate(q.transpose(0, 2, 1)) + q) * 0.5\n"
              "    return a, b, 0.5 * (m + m.T), 0.5 * (q + np.conj(np.swapaxes(m, -1, -2)))\n"
              "class K:\n"
              "    def g(self, acc):\n"
              "        return 0.5 * (acc + acc.conj().T), (acc + acc.T.conj()) / 2\n")
    # a real symmetric part (no conjugate) and the mixed sum of two matrices are not
    assert hermitian_part_writes(source) == ["f", "f", "K.g", "K.g"]


def attribute_reads(source: str, name: str) -> list[str]:
    """The scope of each read of an attribute called name."""
    return [scope for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.ctx, ast.Load)]


def test_only_one_node_reads_strides():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert [f"{module}.{scope}" for module, source in sources.items()
            for scope in attribute_reads(source, "strides")] == ["_lattice.one_node"]


def test_strides_read_is_found():
    source = ("def f(a, strides):\n    return a.strides[0], strides, g(a).strides\n"
              "class A:\n"
              "    def g(self, b):\n        b.strides = (0,)\n        return self.x.strides\n")
    # a variable called strides, and an assignment to the attribute, are not reads
    assert attribute_reads(source, "strides") == ["f", "f", "A.g"]


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


def matrix_products(source: str, function: str) -> list[str]:
    """The scope of each matrix product written in the named function or in
    a function nested in it: the ``@`` operator, ``@=``, or a call of a
    function or method called ``matmul``, ``dot``, ``einsum`` or
    ``tensordot``."""
    def is_product(node):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            return isinstance(node.op, ast.MatMult)
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) or getattr(node.func, "attr", None)) in {
                "matmul", "dot", "einsum", "tensordot"}

    return [scope for scope, node in scoped_nodes(source)
            if scope.split(".")[0] == function and is_product(node)]


def test_limit_density_products_have_one_owner():
    source = (PACKAGE / "covariance.py").read_text()
    assert matrix_products(source, "limit_density") == []
    assert set(calls_of(source, "_node_product")) == {"limit_density"}


def test_matrix_product_is_found():
    source = ("def f(a, b):\n    c = a @ b\n    c @= b\n    return np.matmul(a, b, out=c)\n"
              "def g(a, b):\n"
              "    def h():\n        return matmul(a, b) + a.dot(b) - np.einsum('ij', a)\n"
              "    return h, a * b, np.multiply(a, b)\n"
              "def f2(a, b):\n    return a @ b\n")
    assert matrix_products(source, "f") == ["f", "f", "f"]
    assert matrix_products(source, "g") == ["g.h", "g.h", "g.h"]


def cross_module_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) for every name that the source imports from a package
    module other than ``_lattice``, or reads as an attribute of a package
    module that it imported; function bodies included.  The package itself
    counts as the module ``crystalstat``; importing a module, or a star
    import, reads no name."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    bound, found = {}, set()

    def origin(node):
        if node.level:
            return node.module or "crystalstat"
        parts = (node.module or "").split(".")
        return parts[-1] if parts[0] == "crystalstat" else None

    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and origin(node) not in (None, "_lattice"):
            for alias in node.names:
                if origin(node) == "crystalstat" and alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                elif alias.name != "*":
                    found.add((origin(node), alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if alias.asname and parts[0] == "crystalstat" and len(parts) == 2:
                    bound[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and bound.get(getattr(node.value, "id", None), "_lattice") != "_lattice"):
            found.add((bound[node.value.id], node.attr))
    return found


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def private_imports(source: str) -> list[str]:
    """'module.name', sorted, for every underscore name (not a dunder) among
    the source's :func:`cross_module_reads`."""
    return sorted(f"{module}.{name}" for module, name in cross_module_reads(source)
                  if name.startswith("_") and not dunder(name))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    assert private_imports(path.read_text()) == []


def test_private_import_is_found():
    source = ("from .spectral import _require_match, check_ES\n"
              "from ._lattice import _hidden\nfrom . import fields, _lattice, __version__\n"
              "import crystalstat.kernel as k\nimport numpy as np\n"
              "def f(x):\n    from crystalstat.dynamics import _rotate\n"
              "    return fields._colouring_root(x), fields._colouring_root, k._scan(1),\\\n"
              "        _lattice._slab, np._core, x._private, fields.__name__\n")
    # _lattice's names, dunders, and attributes of what is not a package
    # module are not
    assert private_imports(source) == ["dynamics._rotate", "fields._colouring_root",
                                       "kernel._scan", "spectral._require_match"]


def unexported_reads(source: str, exports: dict) -> list[str]:
    """'module.name', sorted, for every name other than a dunder among the
    source's :func:`cross_module_reads` that is not in exports[module], the
    module's ``__all__``."""
    return sorted(f"{module}.{name}" for module, name in cross_module_reads(source)
                  if not dunder(name) and name not in exports.get(module, ()))


def package_exports() -> dict:
    """The ``__all__`` of the package and of every package module that has
    one; ``__main__`` runs the CLI when imported and exports nothing."""
    exports = {"crystalstat": crystalstat.__all__}
    for path in PACKAGE.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            module = importlib.import_module(f"crystalstat.{path.stem}")
            exports[path.stem] = getattr(module, "__all__", [])
    return exports


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_reads_another_outside_its_all(path):
    assert unexported_reads(path.read_text(), package_exports()) == []


def test_unexported_read_is_found():
    exports = {"crystalstat": ["__version__", "check_ES"], "spectral": ["check_ES"],
               "kernel": ["check_E123"], "fields": ["SpectralDensity"]}
    source = ("from .spectral import DELTA_NULL, check_ES\nfrom .kernel import *\n"
              "from ._lattice import finite_symbol\n"
              "from . import fields, _lattice, __version__, check_ES as c\n"
              "import crystalstat.kernel as k\nimport numpy as np\n"
              "def f(x):\n    from crystalstat.spectral import e3_report\n"
              "    return fields.SpectralDensity(x), fields.gaussian_ensemble, k.e3_report(1),\\\n"
              "        k.check_E123, _lattice.IMAG_TOL, np.pi, fields.__all__, c\n")
    # _lattice's names, star imports, dunders, and attributes of what is not
    # a package module are not
    assert unexported_reads(source, exports) == [
        "fields.gaussian_ensemble", "kernel.e3_report", "spectral.DELTA_NULL",
        "spectral.e3_report"]


def unread_exports(sources, exports: dict) -> list[str]:
    """'module.name', sorted, for every name of a module's ``__all__`` in
    exports that none of the sources reads, by :func:`cross_module_reads`."""
    read = set().union(*map(cross_module_reads, sources))
    return sorted(f"{module}.{name}" for module, names in exports.items() for name in names
                  if (module, name) not in read)


#: the public names that no other package module reads, each with the reason
#: it is public
UNREAD_EXPORTS = [
    # the independent cross-checks of the propagator
    "dynamics.hamiltonian", "dynamics.reference_evolve_ode",
    # named by bench/child.py's MEMORY_FUNCTIONS, by the README blocks and by tests
    "dynamics.evolve_ensemble", "fields.gaussian_ensemble", "stats.empirical_covariance",
    # the mixing-support estimate, an open item of the ROADMAP
    "stats.empirical_mixing_support",
]


def test_only_the_listed_exports_go_unread_in_the_package():
    exports = package_exports()
    assert unread_exports([path.read_text() for path in PACKAGE.glob("*.py")],
                          {module: exports[module] for module in LIBRARY}) == \
        sorted(UNREAD_EXPORTS)


def test_unread_export_is_found():
    exports = {"spectral": ["check_ES", "e3_report", "DELTA_NULL"],
               "fields": ["SpectralDensity", "gaussian_ensemble"]}
    sources = ["from .spectral import check_ES\nfrom .fields import *\n",
               "from . import fields, spectral\nimport crystalstat.spectral as s\n"
               "def f(x):\n    return fields.SpectralDensity(x), s.DELTA_NULL\n"]
    # a star import, or an imported module that is not read, reads no name
    assert unread_exports(sources, exports) == ["fields.gaussian_ensemble",
                                                "spectral.e3_report"]


#: the package's modules in dependency order; the package itself comes last
LAYERS = ["_lattice", "kernel", "spectral", "dynamics", "fields", "covariance", "stats",
          "cli", "crystalstat"]


def later_imports(source: str, module: str) -> list[str]:
    """'scope: target' for each import anywhere in the source of module,
    function bodies included, of a package module later than it in LAYERS;
    ``from . import name`` imports the module name, or else the package."""
    def layer(dotted):
        parts = dotted.split(".")
        return parts[1] if len(parts) > 1 else parts[0]

    def targets(node):
        if isinstance(node, ast.Import):
            return [layer(alias.name) for alias in node.names
                    if alias.name.split(".")[0] == "crystalstat"]
        if not isinstance(node, ast.ImportFrom):
            return []
        origin = ("crystalstat" + (f".{node.module}" if node.module else "") if node.level
                  else node.module)
        if origin == "crystalstat":
            return [alias.name if alias.name in LAYERS else origin for alias in node.names]
        return [layer(origin)] if origin.split(".")[0] == "crystalstat" else []

    rank = LAYERS.index(module)
    return [f"{scope or '<module>'}: {target}" for scope, node in scoped_nodes(source)
            for target in targets(node) if LAYERS.index(target) > rank]


@pytest.mark.parametrize("module", LAYERS[:-1])
def test_imports_follow_the_layer_order(module):
    allowed = {"cli": ["_stage: crystalstat"]}  # from . import __version__
    assert later_imports((PACKAGE / f"{module}.py").read_text(), module) == \
        allowed.get(module, [])


def test_later_import_is_found():
    source = ("from ._lattice import x\nfrom .stats import y\nimport crystalstat.cli\n"
              "def f():\n    from .covariance import Z\n    from . import fields, __version__\n"
              "class A:\n    def g(self):\n        from crystalstat import stats\n"
              "        import crystalstat\n        from .kernel import k\n")
    assert later_imports(source, "fields") == [
        "<module>: stats", "<module>: cli", "f: covariance", "f: crystalstat", "A.g: stats",
        "A.g: crystalstat"]
    # an import of an earlier module, or of one outside the package, is not
    assert later_imports(source + "import numpy\nfrom os import path\n", "stats") == [
        "<module>: cli", "f: crystalstat", "A.g: crystalstat"]


@pytest.mark.parametrize("module", LIBRARY)
def test_module_exports_reach_the_package(module):
    exported = importlib.import_module(f"crystalstat.{module}").__all__
    assert [name for name in exported if name not in crystalstat.__all__] == []


def test_package_exports_resolve():
    missing = [name for name in crystalstat.__all__
               if name != "__version__" and not hasattr(crystalstat, name)]
    assert missing == []


def test_package_exports_are_the_modules_exports_in_layer_order():
    library = LAYERS[1:LAYERS.index("cli")]
    assert sorted(library) == LIBRARY
    modules = [importlib.import_module(f"crystalstat.{name}") for name in library]
    want = ["__version__", "NumericalFault"] + [name for mod in modules for name in mod.__all__]
    assert crystalstat.__all__ == want
    assert len(set(want)) == len(want)
    assert crystalstat.NumericalFault is importlib.import_module(
        "crystalstat._lattice").NumericalFault
    for module in modules:
        for name in module.__all__:
            assert getattr(crystalstat, name) is getattr(module, name), name


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
