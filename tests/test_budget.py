"""One block budget: every blocked loop whose block size cannot change a
result sizes its blocks through exterior._per_block, and holds a few
budgets of memory, not the whole of its temporaries.

The two product blocks, forms._PRODUCT_BLOCK and clifford._PRODUCT_BLOCK,
add their blocks' sums in turn, so their sizes set output bits; they are
the only other block constants.
"""

import ast
import pathlib
import tracemalloc
from math import comb

import numpy as np
import pytest

import doubleforms
from doubleforms import exterior, forms
from doubleforms.exterior import AlgebraContext

SOURCES = sorted(pathlib.Path(doubleforms.__file__).parent.glob("*.py"))
SUFFIXES = ("_BLOCK", "_TERMS", "_ENTRIES")


def module_level_names(tree):
    """The names a module binds at its top level, imported names included."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.asname or alias.name for alias in node.names)


def test_the_block_budget_has_one_home():
    blocks = {(path.stem, name) for path in SOURCES for name in module_level_names(ast.parse(path.read_text()))
              if name.endswith(SUFFIXES)}
    assert blocks == {("exterior", "_BLOCK_ENTRIES"), ("forms", "_PRODUCT_BLOCK"), ("clifford", "_PRODUCT_BLOCK")}
    # no module imports the budget by value, and only _per_block reads it
    readers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        within = {}  # node -> the innermost function around it (walks go outer first)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                within.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert all(alias.name != "_BLOCK_ENTRIES" for alias in node.names), path.stem
            if (isinstance(node, ast.Name) and node.id == "_BLOCK_ENTRIES" and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute) and node.attr == "_BLOCK_ENTRIES"):
                readers.add((path.stem, within.get(node)))
    assert readers == {("exterior", "_per_block")}


def test_per_block_reads_the_budget_at_call_time(monkeypatch):
    assert exterior._per_block(1000) == exterior._BLOCK_ENTRIES // 1000
    assert exterior._per_block(0) == exterior._BLOCK_ENTRIES
    assert exterior._per_block(exterior._BLOCK_ENTRIES + 1) == 1
    monkeypatch.setattr(exterior, "_BLOCK_ENTRIES", 10)
    assert [exterior._per_block(e) for e in (1, 3, 10, 11)] == [10, 3, 1, 1]


#: Bytes a blocked loop may hold beyond its output, in budgets of
#: 8 * _BLOCK_ENTRIES bytes (one block of float64 entries).
HELD_BUDGETS = 6


def held_bytes(run):
    """Peak bytes run() allocates beyond the array it returns, its tables
    built by a first call."""
    run()
    tracemalloc.start()
    try:
        out = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


@pytest.mark.parametrize("loop", ["bianchi", "plane_values"])
def test_blocked_loops_hold_a_few_budgets_at_n_12(loop):
    # whole: the bytes of the loop's temporaries in one block, the gathered
    # terms with their lift ranks and signs (int64) of the whole Bianchi
    # output, and the minors of every frame
    n, p = 12, 6
    rng = np.random.default_rng(12)
    W = rng.standard_normal((comb(n, p), comb(n, p)))
    if loop == "bianchi":
        held = held_bytes(lambda: forms._bianchi_stack(W[None], n, p, p))
        whole = 3 * 8 * comb(n, p + 1) * comb(n, p - 1)
    else:
        frames = np.linalg.qr(rng.standard_normal((100, n, p)))[0]
        held = held_bytes(lambda: forms.plane_values(W, frames, AlgebraContext(n)))
        whole = 8 * len(frames) * comb(n, p) * p * p
    assert held <= HELD_BUDGETS * 8 * exterior._BLOCK_ENTRIES < whole, (held, whole)


def test_contraction_keeps_no_table_of_its_terms_at_n_12():
    # a full contraction of a (6,6) form, its tables built in the call: it
    # keeps its small lift and member tables, less than one output block of
    # the first contraction, and peaks at a few such blocks
    n, p = 12, 6
    w = forms.DoubleForm(p, p, np.random.default_rng(12).standard_normal((comb(n, p), comb(n, p))),
                         AlgebraContext(n))
    for module in (exterior, forms):
        for table in vars(module).values():
            if hasattr(table, "cache_clear"):
                table.cache_clear()
    tracemalloc.start()
    try:
        out = forms.contract_iter(w, p)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = 8 * comb(n, p - 1) ** 2
    assert held - out.coeffs.nbytes <= block and peak <= 3 * block, (held, peak, block)
