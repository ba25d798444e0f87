"""Ranking, wedge signs and Hodge complements of the basis combinatorics.

For disjoint I and J, e_I ^ e_J = merge_sign(I, J) e_{sorted(I + J)}.
"""

import ast
import pathlib

import numpy as np
import pytest

import doubleforms
from doubleforms.exterior import (
    AlgebraContext,
    insertion_sign,
    merge_sign,
    rank_index,
    subsets,
)
from doubleforms.forms import _complement_table
from doubleforms.random_tensors import random_bianchi_22
from oracles import enumeration_rank, unrank_index


def test_rank_examples():
    ctx = AlgebraContext(4)
    assert rank_index((1, 2), ctx) == 0
    # frozen from the enumeration oracle: lex position of {3,4} among C(4,2)=6
    assert enumeration_rank((3, 4), 4) == 5
    assert rank_index((3, 4), ctx) == 5
    assert rank_index((1,), AlgebraContext(1)) == 0


def test_unrank_examples():
    assert unrank_index(0, 2, AlgebraContext(4)) == (1, 2)
    assert unrank_index(5, 2, AlgebraContext(4)) == (3, 4)
    assert unrank_index(0, 0, AlgebraContext(3)) == ()


def test_rank_matches_enumeration_everywhere():
    for n in (3, 5, 6, 12):
        ctx = AlgebraContext(n)
        for p in range(n + 1):
            for I in subsets(n, p):
                assert rank_index(I, ctx) == enumeration_rank(I, n)


def test_roundtrip_exhaustive_up_to_n8():
    for n in range(1, 9):
        ctx = AlgebraContext(n)
        for p in range(n + 1):
            table = subsets(n, p)
            for r, I in enumerate(table):
                assert unrank_index(rank_index(I, ctx), p, ctx) == I
                assert rank_index(unrank_index(r, p, ctx), ctx) == r


def test_rank_errors():
    ctx = AlgebraContext(3)
    with pytest.raises(ValueError):
        rank_index((1, 2, 3, 4), ctx)  # degree beyond n
    with pytest.raises(ValueError):
        rank_index((0, 2), ctx)
    with pytest.raises(ValueError):
        rank_index((2, 2), ctx)
    with pytest.raises(ValueError):
        rank_index((3, 1), ctx)
    # entries must be integers: non-integral numbers are not truncated, booleans are rejected
    for I in ((1.9, 2.7), (1.0, 2), (True, 2), (1, np.True_), ("1", 2), (np.float64(1), 3)):
        with pytest.raises(ValueError, match="must be integers"):
            rank_index(I, ctx)
    with pytest.raises(ValueError, match="must be integers"):
        random_bianchi_22(1, AlgebraContext(4)).form.value((1.5, 2.5), (1, 2))
    assert rank_index((np.int64(2), np.int32(3)), ctx) == 2
    assert type(rank_index((np.int64(2), np.int32(3)), ctx)) is int


def test_unrank_errors():
    ctx = AlgebraContext(4)
    with pytest.raises(ValueError):
        unrank_index(6, 2, ctx)
    with pytest.raises(ValueError):
        unrank_index(-1, 2, ctx)
    with pytest.raises(ValueError):
        unrank_index(0, 5, ctx)


def test_context_bounds():
    with pytest.raises(ValueError):
        AlgebraContext(0)
    with pytest.raises(ValueError):
        AlgebraContext(13)


def test_context_rejects_booleans():
    # True is an int equal to 1, but no dimension, as validate_index holds too
    with pytest.raises(ValueError, match="dimension must be an integer"):
        AlgebraContext(True)


def integer_predicates(tree):
    """The nodes of tree that test for an integer: isinstance or issubclass
    with int among its classes, and every mention of numpy's integer or of
    numbers.Integral."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(c, ast.Name) and c.id == "int" for c in classes):
                yield node
        elif (isinstance(node, ast.Attribute) and node.attr in ("integer", "Integral")
              or isinstance(node, ast.Name) and node.id == "Integral"):
            yield node


def test_the_integer_rule_has_one_home():
    # every degree, order, count and dimension goes through exterior._as_int,
    # or through the predicate behind it; only _is_int asks what an integer is
    found = set()
    for path in sorted(pathlib.Path(doubleforms.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        within = {}  # node -> the innermost function around it (walks go outer first)
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                within.update((node, func.name) for node in ast.walk(func))
        found.update((path.stem, within.get(node)) for node in integer_predicates(tree))
    assert found == {("exterior", "_is_int")}


def test_the_integer_lint_sees_each_form():
    for source in ("isinstance(v, int)", "isinstance(v, (int, float))", "issubclass(t, int)",
                   "isinstance(v, np.integer)", "np.issubdtype(a.dtype, np.integer)",
                   "isinstance(v, numbers.Integral)", "isinstance(v, Integral)"):
        assert list(integer_predicates(ast.parse(source))), source
    for source in ("isinstance(v, float)", "isinstance(v, bool)", "type(v) is int", "int(v)"):
        assert not list(integer_predicates(ast.parse(source))), source


def test_wedge_examples():
    assert merge_sign((1,), (2,)) == 1
    assert merge_sign((2,), (1,)) == -1
    # one transposition moves 2 past 3
    assert merge_sign((1, 3), (2,)) == -1
    assert merge_sign((1, 2), (3, 4)) == 1
    # e_2 ^ e_{12} = 0: the kernels' insertion rule reports the overlap
    assert insertion_sign(2, (1, 2)) is None


def test_wedge_antisymmetry_exhaustive():
    for n in (3, 4, 5):
        for p in range(n + 1):
            for q in range(n + 1 - p):
                for I in subsets(n, p):
                    for J in subsets(n, q):
                        if set(I) & set(J):
                            continue
                        flip = -1 if (p * q) % 2 else 1
                        assert merge_sign(J, I) == flip * merge_sign(I, J)


def _rest(I, n):
    return tuple(i for i in range(1, n + 1) if i not in I)


def test_complement_examples():
    # e_I ^ e_{I^c} = merge_sign(I, I^c) e_{1..n}
    assert merge_sign((1, 2), (3, 4)) == 1
    assert merge_sign((2,), (1,)) == -1
    assert merge_sign((), (1, 2, 3)) == 1
    # star's signs, by rank of I; I^c has the reversed rank
    assert _complement_table(4, 2)[0] == 1  # (1, 2) -> (3, 4)
    assert rank_index((3, 4), AlgebraContext(4)) == 5
    assert _complement_table(2, 1)[1] == -1  # (2,) -> (1,)
    assert rank_index((1,), AlgebraContext(2)) == 0
    assert _complement_table(3, 0)[0] == 1  # () -> (1, 2, 3)


def test_complement_merges_to_volume():
    # complementation reverses the lexicographic order, which star and the
    # lists of members outside a subset rely on, and star's table holds the
    # signs of e_I ^ e_{I^c}; the enumeration checks both at every n
    for n in range(1, 13):
        ctx = AlgebraContext(n)
        full = tuple(range(1, n + 1))
        for p in range(n + 1):
            signs = _complement_table(n, p)
            last = len(subsets(n, p)) - 1
            for r, I in enumerate(subsets(n, p)):
                rest = _rest(I, n)
                assert tuple(sorted(I + rest)) == full
                assert rank_index(rest, ctx) == last - r
                assert signs[r] == merge_sign(I, rest)


def test_double_complement_sign():
    for n in (2, 3, 4, 5, 6):
        for p in range(n + 1):
            expected = -1 if (p * (n - p)) % 2 else 1
            signs, back_signs = _complement_table(n, p), _complement_table(n, n - p)
            last = len(signs) - 1
            for r, I in enumerate(subsets(n, p)):
                rest = _rest(I, n)
                assert _rest(rest, n) == I
                assert merge_sign(I, rest) * merge_sign(rest, I) == expected
                assert signs[r] * back_signs[last - r] == expected
