"""No module of the package imports a name it never uses, or exports one
it does not define.

pyflakes and ruff are not dependencies of the project, so the check reads
each module's syntax tree: every imported name must be read somewhere in
the module or listed in its __all__, and every name in __all__ must exist
once the module is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

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


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _read(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_only_names_it_uses(path):
    tree = ast.parse(path.read_text())
    unused = _imported(tree) - _read(tree) - _exported(tree)
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
    name = PACKAGE.name if path.stem == "__init__" else f"{PACKAGE.name}.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in _exported(ast.parse(path.read_text())) if not hasattr(module, n)]
    assert not missing, f"{path.name} exports undefined names: {sorted(missing)}"
