"""No module of the package imports a name it never uses, or exports one
it does not define; the package and the command line load a module only
when it is used.

pyflakes and ruff are not dependencies of the project, so the check reads
each module's syntax tree: every imported name must be read somewhere in
the module or listed in its __all__, and every name in __all__ must exist
once the module is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import doubleforms
from doubleforms.exterior import AlgebraContext
from doubleforms.random_tensors import random_bianchi_22
from doubleforms.tensorio import save_form
from measured import _run_reported, run_cli_modules, run_measured

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "doubleforms"

#: Unused imports that bench/tests calls through: it checks that the tracer
#: counts kn_product from every module that holds the name.
ALLOWED = {("weitzenboeck", "kn_product"), ("random_tensors", "kn_product")}


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return names


def _module(path: Path):
    return importlib.import_module(
        PACKAGE.name if path.stem == "__init__" else f"{PACKAGE.name}.{path.stem}")


def _exported(path: Path) -> set[str]:
    # read from the imported module: the package derives its __all__
    return set(getattr(_module(path), "__all__", ()))


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_names_it_uses(path):
    tree = ast.parse(path.read_text())
    unused = _imported(tree) - _read(tree) - _exported(path)
    unused -= {name for module, name in ALLOWED if module == path.stem}
    assert not unused, f"{path.name} imports unused names: {sorted(unused)}"


def test_allowed_imports_are_not_stale():
    # an allowance whose name the module starts to use, or stops importing, is stale
    for module, name in ALLOWED:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in _imported(tree) and name not in _read(tree), (module, name)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_exported_name_exists(path):
    # a name left in __all__ after its definition is gone breaks `import *`
    module = _module(path)
    missing = [n for n in _exported(path) if not hasattr(module, n)]
    assert not missing, f"{path.name} exports undefined names: {sorted(missing)}"


def _caches(tree: ast.Module) -> set[str]:
    """The names of functools' caches that a module imports or reads."""
    caches = {"lru_cache", "cache"}
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             and node.module == "functools" for alias in node.names} & caches
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "functools"
                    and node.attr in caches}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_basis_tables_have_one_cache(path):
    # exterior.cached_table is the one cache: it also freezes what it caches
    caches = _caches(ast.parse(path.read_text()))
    if path.stem == "exterior":
        assert caches == {"lru_cache"}
    else:
        assert not caches, f"{path.name} uses {sorted(caches)}; cache through exterior.cached_table"


# -- the lazy package -----------------------------------------------------------


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from doubleforms import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(doubleforms.__all__)
    for name, value in namespace.items():
        home = importlib.import_module(f"doubleforms.{doubleforms._SUBMODULE[name]}")
        assert value is getattr(home, name)


def test_dir_lists_every_public_name():
    assert set(doubleforms.__all__) <= set(dir(doubleforms))
    assert set(doubleforms._SUBMODULE) == set(doubleforms.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(doubleforms, "no_such_name")


def test_bare_import_loads_no_submodule(tmp_path):
    code, _, modules = run_measured("import doubleforms", [], tmp_path / "out.txt")
    assert code == 0
    assert {m for m in modules if m.startswith("doubleforms")} == {"doubleforms"}
    # a submodule is still an attribute of the package
    code, _, modules = run_measured("import doubleforms; doubleforms.verify.run_suite", [],
                                    tmp_path / "out.txt")
    assert code == 0 and "doubleforms.verify" in modules


#: What a command that runs neither the suite nor a random draw never loads.
UNUSED = {"doubleforms.verify", "doubleforms.random_tensors", "numpy.ma", "numpy.random"}
#: Only the suite and the commutator-sum oracle's table load the Clifford layer.
NO_ORACLE = UNUSED | {"doubleforms.clifford"}


@pytest.mark.parametrize("args, unused", [
    (["decompose", "--json"], NO_ORACLE),
    (["weitzenboeck", "--p", "3", "--json"], NO_ORACLE),
    (["weitzenboeck", "--p", "3", "--method", "definition", "--json"], UNUSED),
    (["pcurvature", "--p", "3", "--json"], NO_ORACLE),
    (["spectrum", "--p", "3", "--samples", "4", "--json"], {"doubleforms.verify"}),
    (["sectional", "--p", "3", "--samples", "4"], {"doubleforms.verify"}),
], ids=["decompose", "weitzenboeck", "definition", "pcurvature", "spectrum", "sectional"])
def test_command_loads_only_what_it_runs(tmp_path, args, unused):
    tensor = tmp_path / "t.json"
    save_form(random_bianchi_22(6, AlgebraContext(6)), tensor)
    code, modules = run_cli_modules([args[0], "--input", str(tensor), *args[1:]],
                                    tmp_path / "out.txt")
    assert code == 0
    assert not unused & modules, sorted(unused & modules)


def test_no_module_imports_multiprocessing():
    # the suite forks its workers itself (verify._in_workers)
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
        assert not {m for m in modules if m.partition(".")[0] == "multiprocessing"}, path.name


#: The command line with the number of usable CPUs the suite sees pinned.
_CLI_ON_CPUS = """
import runpy
from doubleforms import verify
verify._usable_cpus = lambda: {cpus}
runpy.run_module("doubleforms.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
def test_no_verify_run_loads_multiprocessing(tmp_path, cpus):
    args = ["verify", "--n-min", "4", "--n-max", "4", "--seeds", "1", "--trials", "5", "--json",
            "--identity", "closed_form", "--identity", "decomposition"]
    code, report = _run_reported(_CLI_ON_CPUS.format(cpus=cpus), args, tmp_path / "out.txt")
    assert code == 0
    assert (report["workers_kb"] > 0) == (cpus == 2)  # the pooled run waited for its forked workers
    assert "doubleforms.verify" in report["modules"]
    assert not {m for m in report["modules"] if m.partition(".")[0] == "multiprocessing"}
