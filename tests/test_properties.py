"""Property tests over random dimensions, degrees and seeds.

Examples are derandomized and no example database is kept, so every run
draws the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from doubleforms.exterior import AlgebraContext
from doubleforms.forms import DoubleForm, kn_product, metric_power, metric_product
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
