"""Property tests over random dimensions, degrees and seeds.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from doubleforms.exterior import AlgebraContext
from doubleforms.forms import DoubleForm, contract, inner, kn_product, metric_power, metric_product, star
from doubleforms.random_tensors import random_bianchi_22
from oracles import dense_square_sum, drawn_factors

fixed = settings(derandomize=True, database=None, deadline=None, max_examples=25)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@fixed
@given(n=st.integers(2, 8), terms=st.integers(1, 40), seed=seeds)
def test_sampler_is_the_dense_square_sum(n, terms, seed):
    ctx = AlgebraContext(n)
    want = dense_square_sum(drawn_factors(seed, ctx, terms))
    got = random_bianchi_22(seed, ctx, terms).form.coeffs
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@fixed
@given(data=st.data(), n=st.integers(1, 8), seed=seeds)
def test_metric_product_is_the_product_by_the_metric_power(data, n, seed):
    p, q, k = (data.draw(st.integers(0, n), label=name) for name in "pqk")
    ctx = AlgebraContext(n)
    raw = np.random.default_rng(seed).standard_normal((ctx.dim(p), ctx.dim(q)))
    w = DoubleForm(p, q, raw, ctx)
    got = metric_product(k, w)
    want = kn_product(metric_power(k, ctx), w)
    assert got.degree == want.degree
    assert got.coeffs.shape == want.coeffs.shape
    assert np.linalg.norm(got.coeffs - want.coeffs) <= 1e-14 * np.linalg.norm(want.coeffs)


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
