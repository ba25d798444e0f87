"""The package names that bench/tracing.py wraps and probes must exist.

bench/tests checks the tracer itself but is not part of this suite (both
directories hold a conftest module, so they cannot share one run); this
keeps a renamed or deleted function or table from breaking the benchmark
unseen.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    # compiled from the source text, so no bytecode cache is written under bench/
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_traced_function_exists(tracing):
    for mod, names in tracing.TRACED.items():
        module = importlib.import_module(f"doubleforms.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_every_probed_table_is_an_lru_cache(tracing):
    for mod, name in tracing.TABLES:
        table = getattr(importlib.import_module(f"doubleforms.{mod}"), name, None)
        assert hasattr(table, "cache_info"), f"{mod}.{name}"


def test_traced_names_are_not_cached_in_the_package(tracing):
    # the package resolves its names on every access: a wrapper seen
    # through it while traced must not outlive the restore, which puts
    # back only the module attributes saved before the tracer went in
    import doubleforms

    for name in doubleforms._SUBMODULES:
        importlib.import_module(f"doubleforms.{name}")
    original = doubleforms.forms.kn_product
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "doubleforms" or name.startswith("doubleforms.")}
    try:
        tracing.install(tracing.Tracer())
        assert doubleforms.kn_product is not original
    finally:
        for name, attrs in saved.items():
            vars(sys.modules[name]).update(attrs)
    assert doubleforms.kn_product is original
    assert "kn_product" not in vars(doubleforms)
