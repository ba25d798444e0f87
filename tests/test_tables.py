"""The basis tables built as whole arrays equal their loop references.

tests/oracles.py keeps the builders that made one Python pass per subset;
every table must equal its reference in dtype, shape and values (sign
bits included) at every degree for n <= 9, and at the degrees the CLI
builds at n = 12.
"""

import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import doubleforms
from doubleforms import forms, tensorio, weitzenboeck
from doubleforms.exterior import MAX_DIMENSION, insertion_sign, mask_ranks, merge_sign, subset_masks
from oracles import (
    loop_bianchi_projector,
    loop_four_form_table,
    loop_lift_table,
    loop_mask_ranks,
    loop_member_table,
    loop_split_tensor,
    loop_subset_masks,
    sorted_ad_table,
    tuple_insertion_sign,
    tuple_merge_sign,
)


def assert_same(got, want, label):
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want), label
    for a, b in zip(got, want):
        assert not a.flags.writeable, label
        assert a.dtype == b.dtype and a.shape == b.shape, (label, a.dtype, b.dtype, a.shape, b.shape)
        assert np.array_equal(a, b), label
        assert np.array_equal(np.signbit(a), np.signbit(b)), label


def every_degree(n):
    """(table name, arguments) of every table at dimension n."""
    for k in range(n + 1):
        yield "subset_masks", (n, k)
        yield "lift", (n, k)
        yield "member", (n, k)
        yield "ad", (n, k)
        for k2 in range(n + 1):
            yield "split", (n, k, k2)
    yield "mask_ranks", (n,)
    yield "four_form", (n,)


#: The tables the CLI builds at n = 12: decompose, decompose --project and
#: every other subcommand at p = 4, 5 and 6.
CLI_N12 = [
    ("split", (12, p1, p2))
    for p1, p2 in ((1, 1), (2, 2), (3, 2), (4, 2), (4, 8), (5, 2), (5, 7), (6, 2), (6, 6))
] + [("lift", (12, k)) for k in (0, 1, 3, 4, 5)] + [
    ("member", (12, k)) for k in (3, 4, 5, 6, 7)
] + [
    ("ad", (12, p)) for p in (4, 5, 6)
] + [("four_form", (12,)), ("mask_ranks", (12,))] + [("subset_masks", (12, k)) for k in range(9)]

TABLES = {
    "subset_masks": (subset_masks, loop_subset_masks),
    "mask_ranks": (mask_ranks, loop_mask_ranks),
    "split": (forms._split_tensor, loop_split_tensor),
    "lift": (forms._lift_table, loop_lift_table),
    "member": (forms._member_table, loop_member_table),
    "four_form": (tensorio._four_form_table, loop_four_form_table),
    "ad": (weitzenboeck._ad_table, sorted_ad_table),
}


@pytest.mark.parametrize("n", range(1, 10))
def test_mask_tables_equal_loop_references(n):
    for name, args in every_degree(n):
        table, reference = TABLES[name]
        assert_same(table(*args), reference(*args), (name, args))


@pytest.mark.parametrize("name, args", CLI_N12, ids=lambda x: str(x))
def test_mask_tables_equal_loop_references_at_n12(name, args):
    table, reference = TABLES[name]
    assert_same(table(*args), reference(*args), (name, args))


@pytest.mark.parametrize("n", range(2, 9))
def test_bianchi_projector_equals_the_per_unit_build(n):
    assert_same(tensorio.bianchi_projector(n), loop_bianchi_projector(n), n)


@pytest.mark.parametrize("n", range(2, 9))
def test_bianchi_projector_is_symmetric_bit_for_bit(n):
    # row u is the projection of unit matrix u; the symmetry makes it column u
    P = tensorio.bianchi_projector(n)
    assert np.array_equal(P, P.T) and np.array_equal(np.signbit(P), np.signbit(P.T)), n


def test_complement_table_is_the_last_column_of_the_split():
    # the split's one column at (n, d, n - d) is the complement: its ranks
    # are the rows' ranks reversed, which star reads without a table, and
    # its signs are the complement table
    for n in (1, 5, 12):
        for d in range(n + 1):
            src, _, sign = loop_split_tensor(n, d, n - d)
            assert np.array_equal(src[:, 0], np.arange(len(src))[::-1]), (n, d)
            assert_same(forms._complement_table(n, d), sign[:, 0], (n, d))


def as_tuple(mask):
    return tuple(i + 1 for i in range(MAX_DIMENSION) if mask >> i & 1)


subset_lists = st.integers(1, MAX_DIMENSION).flatmap(
    lambda n: st.tuples(st.just(n), *(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=8)
                                      for _ in "IJ")))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=subset_lists)
def test_mask_signs_equal_their_tuple_definitions(case):
    n, I, J = case
    masks_I = np.array(I, dtype=np.int64)[:, None]
    masks_J = np.array(J, dtype=np.int64)[None, :]
    got = merge_sign(masks_I, masks_J)
    want = [[tuple_merge_sign(as_tuple(a), as_tuple(b)) for b in J] for a in I]
    assert got.shape == (len(I), len(J)) and got.tolist() == want
    members = np.arange(1, n + 1)
    got = insertion_sign(members, masks_I)
    want = [[tuple_insertion_sign(m, as_tuple(a)) or 0 for m in range(1, n + 1)] for a in I]
    assert got.shape == (len(I), n) and got.tolist() == want
    for a, b in zip(I, J):
        assert merge_sign(as_tuple(a), as_tuple(b)) == tuple_merge_sign(as_tuple(a), as_tuple(b))
        assert insertion_sign(n, as_tuple(a)) == tuple_insertion_sign(n, as_tuple(a))


#: Every cached basis table of the package, with sample arguments.
CACHED_TABLES = {
    "exterior.subsets": (5, 2),
    "exterior._mask_sizes": (5,),
    "exterior.mask_ranks": (5,),
    "exterior.subset_masks": (5, 2),
    "forms._split_tensor": (5, 2, 2),
    "forms._lift_table": (5, 2),
    "forms._complement_table": (5, 2),
    "forms._member_table": (5, 2),
    "clifford._lower_parity": (5, 3),
    "clifford._sign_masks": (5,),
    "tensorio._four_form_table": (5,),
    "tensorio.bianchi_projector": (4,),
    "weitzenboeck._ad_table": (5, 2),
}


def cached_functions():
    """module.name -> function of every function defined in the package's
    modules that has an lru_cache's cache_info."""
    found = {}
    for info in pkgutil.iter_modules(doubleforms.__path__):
        module = importlib.import_module(f"doubleforms.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = value
    return found


def test_every_cached_table_is_listed():
    assert set(cached_functions()) == set(CACHED_TABLES)


@pytest.mark.parametrize("label", sorted(CACHED_TABLES))
def test_every_cached_table_is_read_only(label):
    out = cached_functions()[label](*CACHED_TABLES[label])
    arrays = [a for a in (out if isinstance(out, tuple) else (out,)) if isinstance(a, np.ndarray)]
    assert arrays or label == "exterior.subsets", label
    for a in arrays:
        assert not a.flags.writeable, label


@pytest.mark.parametrize("label", sorted(CACHED_TABLES))
def test_every_cached_table_is_row_major(label):
    # the kernels build their index, cell and sign arrays from these tables,
    # so a strided table makes every one of them strided too
    out = cached_functions()[label](*CACHED_TABLES[label])
    arrays = [a for a in (out if isinstance(out, tuple) else (out,)) if isinstance(a, np.ndarray)]
    for a in arrays:
        assert a.flags.c_contiguous, (label, a.strides)
