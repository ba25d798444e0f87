"""Property tests over random dimensions, degrees and seeds.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes

from doubleforms import cli, tensorio
from doubleforms.exterior import MAX_DIMENSION, AlgebraContext, rank_index, unrank_index
from doubleforms.forms import (
    DoubleForm, bianchi_map, contract, inner, kn_product, metric, metric_power, metric_product, star,
)
from doubleforms.random_tensors import _sum_of_squares, random_bianchi_22, random_form
from doubleforms.tensorio import load_tensor, save_form
from doubleforms.weitzenboeck import np_definition
from oracles import dense_definition, dense_kn_product, dense_square_sum, drawn_factors, enumeration_rank

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=25)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@fixed
@given(n=st.integers(2, 8), terms=st.integers(1, 40), seed=seeds)
def test_sampler_is_the_dense_square_sum(n, terms, seed):
    ctx = AlgebraContext(n)
    factors = drawn_factors(seed, ctx, terms)
    want = dense_square_sum(factors)
    got = _sum_of_squares(np.stack([h.coeffs for h in factors]), ctx).form.coeffs
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


#: (n, p, q, k) with every degree in [0, n]
cells = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), *(st.integers(0, n) for _ in "pqk")))


@fixed
# k and p + q both odd: swapping the shuffle sign sgn(K, I) for sgn(I, K)
# multiplies g^k.w by (-1)^(k(p+q)), so only such cells can see it
@example(cell=(3, 1, 0, 1), seed=0)
@example(cell=(6, 2, 1, 3), seed=1)
@example(cell=(8, 3, 2, 1), seed=2)
@given(cell=cells, seed=seeds)
def test_metric_product_is_the_product_by_the_metric_power(cell, seed):
    n, p, q, k = cell
    ctx = AlgebraContext(n)
    raw = np.random.default_rng(seed).standard_normal((ctx.dim(p), ctx.dim(q)))
    w = DoubleForm(p, q, raw, ctx)
    got = metric_product(k, w)
    want = dense_kn_product(metric_power(k, ctx), w)
    assert got.degree == (p + k, q + k)
    assert got.coeffs.shape == want.shape
    assert np.linalg.norm(got.coeffs - want) <= 1e-14 * np.linalg.norm(want)


def _form(rng, ctx, p, q):
    return DoubleForm(p, q, rng.standard_normal((ctx.dim(p), ctx.dim(q))), ctx)


@fixed
@given(data=st.data(), n=st.integers(1, 6), seed=seeds)
def test_kn_product_is_graded_commutative(data, n, seed):
    p1, q1, p2, q2 = (data.draw(st.integers(0, min(n, 2)), label=name) for name in ("p1", "q1", "p2", "q2"))
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(seed)
    a, b = _form(rng, ctx, p1, q1), _form(rng, ctx, p2, q2)
    sign = (-1) ** (p1 * p2 + q1 * q2)
    gap = kn_product(a, b).coeffs - sign * kn_product(b, a).coeffs
    assert np.linalg.norm(gap) <= 1e-12 * a.norm() * b.norm()


def _degrees(data, n, count, label):
    """count degrees drawn in turn, each within what the earlier ones leave of n."""
    out = []
    for i in range(count):
        out.append(data.draw(st.integers(0, n - sum(out)), label=f"{label}{i + 1}"))
    return out


@fixed
@given(data=st.data(), n=st.integers(1, 7), seed=seeds)
def test_kn_product_is_the_dense_product(data, n, seed):
    (p1, p2), (q1, q2) = _degrees(data, n, 2, "p"), _degrees(data, n, 2, "q")
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(seed)
    a, b = _form(rng, ctx, p1, q1), _form(rng, ctx, p2, q2)
    # exact zeros in the left factor: the product sums over its support only
    a = DoubleForm(p1, q1, np.where(rng.random(a.coeffs.shape) < 0.5, 0.0, a.coeffs), ctx)
    got, want = kn_product(a, b), dense_kn_product(a, b)
    assert got.degree == (p1 + p2, q1 + q2)
    assert got.coeffs.shape == want.shape
    assert np.linalg.norm(got.coeffs - want) <= 1e-13 * np.linalg.norm(want)


@fixed
@given(data=st.data(), n=st.integers(1, 6), seed=seeds)
def test_kn_product_is_associative(data, n, seed):
    ps, qs = _degrees(data, n, 3, "p"), _degrees(data, n, 3, "q")
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(seed)
    a, b, c = (_form(rng, ctx, p, q) for p, q in zip(ps, qs))
    gap = kn_product(kn_product(a, b), c).coeffs - kn_product(a, kn_product(b, c)).coeffs
    assert np.linalg.norm(gap) <= 1e-12 * a.norm() * b.norm() * c.norm()


@fixed
@given(data=st.data(), n=st.integers(1, 7), seed=seeds)
def test_star_star_is_the_graded_identity(data, n, seed):
    p, q = (data.draw(st.integers(0, n), label=name) for name in "pq")
    w = _form(np.random.default_rng(seed), AlgebraContext(n), p, q)
    twice = star(star(w))
    assert twice.degree == (p, q)
    assert np.array_equal(twice.coeffs, (-1) ** (p * (n - p) + q * (n - q)) * w.coeffs)


@fixed
@given(data=st.data(), n=st.integers(2, 7), seed=seeds)
def test_contraction_is_adjoint_to_the_metric_product(data, n, seed):
    # p != q: the suite's contraction_adjoint trials only draw square forms
    p = data.draw(st.integers(0, n - 1), label="p")
    q = data.draw(st.integers(0, n - 1).filter(lambda q: q != p), label="q")
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(seed)
    a, b = _form(rng, ctx, p, q), _form(rng, ctx, p + 1, q + 1)
    gap = inner(metric_product(1, a), b) - inner(a, contract(b))
    assert abs(gap) <= 1e-12 * a.norm() * b.norm()


@fixed
@given(data=st.data(), n=st.integers(1, 7), seed=seeds)
def test_definition_is_the_dense_commutator_sum(data, n, seed):
    p = data.draw(st.integers(0, n), label="p")
    ctx = AlgebraContext(n)
    w = random_form(seed, 2, 2, ctx, symmetric=True)
    got, want = np_definition(w, p).coeffs, dense_definition(w, p)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


@fixed
@given(data=st.data(), n=st.integers(1, MAX_DIMENSION))
def test_rank_and_unrank_are_inverse(data, n):
    ctx = AlgebraContext(n)
    I = tuple(sorted(data.draw(st.sets(st.integers(1, n), max_size=n), label="I")))
    r = rank_index(I, ctx)
    assert r == enumeration_rank(I, n)
    assert unrank_index(r, len(I), ctx) == I
    p = data.draw(st.integers(0, n), label="p")
    r = data.draw(st.integers(0, math.comb(n, p) - 1), label="r")
    assert rank_index(unrank_index(r, p, ctx), ctx) == r


#: first degree of each _bianchi_factor kind
ROW_DEGREE = {"h": 1, "g": 1, "R": 2, "a": 1}


def _bianchi_factor(kind, rng, ctx):
    """A form the first Bianchi map kills: a symmetric (1,1) form, the metric,
    an algebraic curvature tensor, or a (1,0) form (b is zero on (p,0))."""
    if kind == "h":
        return random_form(rng, 1, 1, ctx, symmetric=True)
    if kind == "g":
        return metric(ctx)
    if kind == "R":
        return random_bianchi_22(rng, ctx).form
    return random_form(rng, 1, 0, ctx)


@fixed
@given(data=st.data(), n=st.integers(3, 7), seed=seeds)
def test_bianchi_map_kills_products_of_bianchi_forms(data, n, seed):
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(seed)
    kinds = []  # 2 to 4 factors with product degree below n, so that b(product) has entries
    while len(kinds) < 4:
        room = n - 1 - sum(ROW_DEGREE[kind] for kind in kinds)
        fitting = [kind for kind in "hgRa" if ROW_DEGREE[kind] <= room]
        if not fitting or len(kinds) >= 2 and data.draw(st.booleans(), label="stop"):
            break
        kinds.append(data.draw(st.sampled_from(fitting), label=f"kind{len(kinds) + 1}"))
    assume(set(kinds) != {"a"})  # b needs a second slot, which (1,0) factors alone lack
    factors = [_bianchi_factor(kind, rng, ctx) for kind in kinds]
    product, scale = factors[0], factors[0].norm()
    for f in factors[1:]:
        product, scale = kn_product(product, f), scale * f.norm()
    assert np.max(np.abs(bianchi_map(product).coeffs), initial=0.0) <= 1e-13 * scale


#: both zeros, subnormals, integral floats and the largest finite float
EDGE_FLOATS = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1.0, -2.0, 3.0, 1e16, 0.1,
               1.7976931348623157e308]
json_floats = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def float_arrays(draw):
    """1-D and 2-D float64 arrays, every entry drawn on its own."""
    shape = draw(array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6))
    flat = draw(st.lists(json_floats, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=np.float64).reshape(shape)


#: flat documents, as the CLI writes them: string keys, and values that
#: are numbers, strings, None or 1-D/2-D float64 arrays
documents = st.dictionaries(
    st.text(max_size=3),
    float_arrays() | st.one_of(json_floats, st.integers(), st.booleans(), st.none(), st.text(max_size=3)),
    max_size=6)


def _stdlib(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=np.ndarray.tolist)


@fixed
# 0.0 and -0.0 in one array: distinct values are keyed on their bits
@example(array=np.array([[0.0, -0.0], [-0.0, 5e-324]]), doc={"v": np.array([2.0, 0.0, 2.0])})
@example(array=np.zeros((2, 0)), doc={"v": np.zeros(0), "m": np.zeros((0, 2)), "a": 1, "b": None})
@given(array=float_arrays(), doc=documents)
def test_streamed_json_is_the_stdlib_encoding(array, doc):
    document = {"matrix": array, **doc}  # the drawn keys are too short to be "matrix"
    assert "".join(cli._pieces(document)) == _stdlib(document)


@fixed
@given(doc=documents, bad=st.sampled_from([np.inf, -np.inf, np.nan]), data=st.data())
def test_streamed_json_rejects_non_finite_numbers_before_writing(doc, bad, data):
    array = data.draw(float_arrays().filter(lambda a: a.size > 0), label="array")
    array.flat[data.draw(st.integers(0, array.size - 1), label="at")] = bad
    spoiled = data.draw(st.sampled_from([bad, array]), label="spoiled")
    # the keys "a..." sort first, so a writer that checked numbers as it wrote
    # them would already have written the finite document when it met the bad one
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(ValueError, match=r"^b(\[\d+\])*: .*not JSON compliant"):
        cli._emit({**{"a" + key: value for key, value in doc.items()}, "b": spoiled}, True, [])
    assert out.getvalue() == ""


@fixed
@given(shape=array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=24), seed=seeds,
       edge=st.floats(0.0, 1.0), one_slot=st.booleans())
def test_float_texts_lookup_is_each_entrys_encoding(shape, seed, edge, one_slot):
    # many distinct values: Gaussians at every binary scale from the
    # subnormals up, mixed with a share edge of EDGE_FLOATS; one_slot hashes
    # every key to one slot, so nearly every entry takes the binary search
    rng = np.random.default_rng(seed)
    gaussians = np.ldexp(rng.standard_normal(shape), rng.integers(-1080, 1000, shape))
    drawn = np.array(EDGE_FLOATS)[rng.integers(0, len(EDGE_FLOATS), shape)]
    values = np.where(rng.random(shape) < edge, drawn, gaussians)
    with pytest.MonkeyPatch.context() as patch:
        if one_slot:
            patch.setattr(tensorio, "_HASH", np.uint64(0))
        got = tensorio._float_texts(values)(values)
    assert got.shape == values.shape
    assert got.ravel().tolist() == [json.dumps(v) for v in values.ravel().tolist()]


@st.composite
def symmetric_22_forms(draw):
    """Symmetric (2,2) forms whose coefficients are drawn from EDGE_FLOATS."""
    ctx = AlgebraContext(draw(st.integers(1, 6)))
    dim = ctx.dim(2)
    upper = np.triu_indices(dim)
    coeffs = np.zeros((dim, dim))
    size = len(upper[0])
    coeffs[upper] = draw(st.lists(st.sampled_from(EDGE_FLOATS), min_size=size, max_size=size))
    coeffs.T[upper] = coeffs[upper]
    return DoubleForm(2, 2, coeffs, ctx)


@fixed
# both zeros, a subnormal, and entries whose squares overflow in the Bianchi check
@example(form=DoubleForm(2, 2, np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                                         [5e-324, 0.0, -2.0],
                                         [1.7976931348623157e308, -2.0, 1e16]]), AlgebraContext(3)))
@given(form=symmetric_22_forms())
def test_saved_forms_load_bit_for_bit(form):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "form.json"
        save_form(form, path)
        # most drawn forms break the Bianchi identity, which warn mode reports
        with contextlib.redirect_stderr(io.StringIO()):
            back = load_tensor(path, on_bianchi="warn").form.coeffs
    # zeros are not written, so -0.0 reads back as 0.0
    assert np.array_equal(back.view(np.int64), (form.coeffs + 0.0).view(np.int64))
