"""Double-form algebra: products, contraction, star, Bianchi, sectional."""

import ast
import inspect
import re

import numpy as np
import pytest

from doubleforms.exterior import AlgebraContext, subsets
from doubleforms.forms import (
    CurvatureTensor,
    DoubleForm,
    bianchi_map,
    bianchi_residual,
    contract,
    contract_iter,
    decomposable_coefficients,
    inner,
    kn_product,
    metric,
    metric_power,
    metric_product,
    orthonormalize,
    plane_values,
    sectional,
    star,
    zero_form,
)
from doubleforms import exterior, forms
from oracles import dense_kn_product, literal_bianchi_map, literal_kn_product, loop_contract, loop_star

from math import comb, factorial, prod


def rand_form(seed, p, q, n, symmetric=False):
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((ctx.dim(p), ctx.dim(q)))
    if symmetric:
        raw = (raw + raw.T) / 2.0
    return DoubleForm(p, q, raw, ctx)


# -- metric and its powers -------------------------------------------------


def test_metric_is_identity():
    ctx = AlgebraContext(3)
    g = metric(ctx)
    assert np.array_equal(g.coeffs, np.eye(3))
    assert g.value((1,), (1,)) == 1.0
    assert g.value((1,), (2,)) == 0.0


def test_value_needs_the_degrees_of_the_form():
    from doubleforms.random_tensors import random_bianchi_22

    w = random_bianchi_22(1, AlgebraContext(4)).form
    assert w.value((1, 2), (1, 3)) == w.coeffs[0, 1]
    for I, J in (((1,), (1, 2)), ((1, 2, 3), (1, 2)), ((1, 2), ())):
        with pytest.raises(ValueError, match=r"do not match a \(2, 2\) form"):
            w.value(I, J)


def test_metric_power_values():
    ctx = AlgebraContext(4)
    g2 = metric_power(2, ctx)
    assert g2.value((1, 2), (1, 2)) == 2.0
    assert np.array_equal(metric_power(1, ctx).coeffs, metric(ctx).coeffs)
    assert metric_power(0, ctx).scalar() == 1.0
    with pytest.raises(ValueError):
        metric_power(5, ctx)


def test_metric_power_is_iterated_product():
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        g = metric(ctx)
        acc = g
        for k in range(2, min(4, n) + 1):
            acc = kn_product(acc, g)
            assert np.allclose(acc.coeffs, metric_power(k, ctx).coeffs)


# -- exterior product -------------------------------------------------------


def test_product_matches_literal_permutation_sum():
    # the shuffle evaluation must agree with the full permutation sum
    cases = [
        (3, (1, 1), (1, 1), 0, 1),
        (4, (1, 1), (2, 2), 2, 3),
        (4, (2, 2), (2, 2), 4, 5),
        (4, (1, 2), (2, 1), 6, 7),
        (3, (0, 1), (2, 1), 8, 9),
    ]
    for n, (p1, q1), (p2, q2), s1, s2 in cases:
        w1 = rand_form(s1, p1, q1, n)
        w2 = rand_form(s2, p2, q2, n)
        got = kn_product(w1, w2)
        assert np.allclose(got.coeffs, literal_kn_product(w1, w2), atol=1e-12)


def test_product_metric_square_entry():
    ctx = AlgebraContext(3)
    g = metric(ctx)
    assert kn_product(g, g).value((1, 2), (1, 2)) == 2.0


def test_product_with_scalar_one_is_identity():
    ctx = AlgebraContext(4)
    one = DoubleForm(0, 0, [[1.0]], ctx)
    w = rand_form(3, 2, 2, 4)
    assert np.allclose(kn_product(w, one).coeffs, w.coeffs)
    assert np.allclose(kn_product(one, w).coeffs, w.coeffs)


def test_product_rank_one_example():
    # h = e^1 (x) e^1, k = e^2 (x) e^2 in the plane; frozen from the
    # permutation-sum oracle over S_2 x S_2
    ctx = AlgebraContext(2)
    h = DoubleForm(1, 1, [[1.0, 0.0], [0.0, 0.0]], ctx)
    k = DoubleForm(1, 1, [[0.0, 0.0], [0.0, 1.0]], ctx)
    hk = kn_product(h, k)
    assert hk.value((1, 2), (1, 2)) == 1.0
    assert np.allclose(hk.coeffs, literal_kn_product(h, k))


def test_product_beyond_top_degree_is_zero():
    ctx = AlgebraContext(3)
    w = rand_form(0, 2, 2, 3)
    out = kn_product(w, w)
    assert out.degree == (4, 4)
    assert out.coeffs.shape == (0, 0)
    assert out.norm() == 0.0
    # an empty factor of degree beyond n stays a valid operand
    for a, b in ((out, w), (w, out)):
        assert kn_product(a, b).coeffs.shape == (0, 0)


def test_product_context_mismatch():
    with pytest.raises(ValueError):
        kn_product(metric(AlgebraContext(3)), metric(AlgebraContext(4)))


def test_product_commutative_associative_on_symmetric_forms():
    for n in (4, 5, 6):
        w1 = rand_form(n, 1, 1, n, symmetric=True)
        w2 = rand_form(n + 10, 1, 1, n, symmetric=True)
        w3 = rand_form(n + 20, 2, 2, n, symmetric=True)
        comm = (kn_product(w1, w2) - kn_product(w2, w1)).norm()
        assert comm <= 1e-12 * w1.norm() * w2.norm()
        if 4 <= n:
            lhs = kn_product(kn_product(w1, w2), w3)
            rhs = kn_product(w1, kn_product(w2, w3))
            assert (lhs - rhs).norm() <= 1e-12 * w1.norm() * w2.norm() * w3.norm()


@pytest.mark.parametrize("block", [1, 50])
def test_kn_product_in_blocks_matches_dense_product(monkeypatch, block):
    # block 1 leaves one left-factor entry per block; 50 splits the support unevenly
    monkeypatch.setattr(forms, "_PRODUCT_BLOCK", block)
    for n, (p1, q1, p2, q2) in ((4, (1, 2, 2, 1)), (6, (2, 2, 2, 1)), (5, (0, 1, 3, 2))):
        a, b = rand_form(n, p1, q1, n), rand_form(n + 1, p2, q2, n)
        want = dense_kn_product(a, b)
        got = kn_product(a, b).coeffs
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), (n, p1, q1, p2, q2)


# -- products by metric powers ------------------------------------------------


def test_metric_product_matches_dense_product():
    # general (non-symmetric, p != q) forms against the dense shuffle-tensor product
    for n in range(1, 9):
        ctx = AlgebraContext(n)
        for p in range(n + 1):
            for q in range(n + 1):
                w = rand_form(100 * n + 10 * p + q, p, q, n)
                for k in range(n + 1):
                    got = metric_product(k, w)
                    want = dense_kn_product(metric_power(k, ctx), w)
                    assert got.degree == (p + k, q + k)
                    assert got.coeffs.shape == want.shape
                    err = np.linalg.norm(got.coeffs - want)
                    assert err <= 1e-14 * np.linalg.norm(want), (n, p, q, k)


def test_metric_product_beyond_top_degree_is_empty():
    for n, p, q, k in ((3, 2, 2, 2), (4, 1, 3, 2), (5, 4, 0, 3), (6, 6, 6, 1)):
        out = metric_product(k, rand_form(n, p, q, n))
        assert out.degree == (p + k, q + k)
        assert out.coeffs.shape == (comb(n, p + k), comb(n, q + k))
        assert out.coeffs.size == 0


def test_metric_product_order_zero_is_identity():
    for n, p, q in ((1, 0, 1), (4, 2, 1), (6, 3, 3), (7, 5, 2)):
        w = rand_form(n + p, p, q, n)
        assert np.array_equal(metric_product(0, w).coeffs, w.coeffs)


def test_metric_product_degree_range():
    w = rand_form(0, 1, 1, 4)
    for k in (-1, 5):
        with pytest.raises(ValueError):
            metric_product(k, w)


def _referenced_names(func):
    tree = ast.parse(inspect.getsource(inspect.unwrap(func)))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_metric_product_shares_no_code_with_contraction():
    # contraction_adjoint and star_contraction compare g.w with contract;
    # the product's shuffle table must be built without the contraction's tables
    forbidden = {"_lift_table", "_lift_stack", "insertion_sign"}
    for func in (forms.metric_product, forms._metric_stack, forms._product_stack, forms._split_tensor):
        assert not _referenced_names(func) & forbidden, func.__name__
    assert "merge_sign" in _referenced_names(forms._split_tensor)


# -- stacked kernels -----------------------------------------------------------


@pytest.mark.parametrize("stack", [(3,), (2, 3)])
def test_stacked_kernels_equal_per_member_calls(stack):
    # every degree up to n + 1, so the empty forms beyond degree n are included
    def stacked(forms_out):
        coeffs = [w.coeffs for w in forms_out]
        return np.array(coeffs).reshape(stack + coeffs[0].shape)

    for n in range(1, 7):
        ctx = AlgebraContext(n)
        rng = np.random.default_rng(n)
        for p in range(n + 2):
            for q in range(n + 2):
                W = rng.standard_normal(stack + (comb(n, p), comb(n, q)))
                members = [DoubleForm(p, q, w, ctx) for w in W.reshape((prod(stack),) + W.shape[-2:])]
                got = {}
                for k in range(n + 1):
                    got["metric", k] = forms._metric_stack(k, W, n, p, q)
                    want = stacked([metric_product(k, w) for w in members])
                    assert np.array_equal(got["metric", k], want), (n, p, q, k)
                if p >= 1 and q >= 1:
                    got["contract"] = forms._contract_stack(W, n, p, q)
                    assert np.array_equal(got["contract"], stacked([contract(w) for w in members])), (n, p, q)
                if p <= n and q <= n:
                    got["star"] = forms._star_stack(W, n, p, q)
                    assert np.array_equal(got["star"], stacked([star(w) for w in members])), (n, p, q)
                # member-major: each output is one C-contiguous array
                assert all(out.flags.c_contiguous for out in got.values()), (n, p, q)


@pytest.mark.parametrize("block", [None, 1, 200])
def test_plane_values_equal_the_per_frame_minors(monkeypatch, block):
    # one stacked determinant per block of frames gives each frame the
    # minors decomposable_coefficients takes, bit for bit
    if block:
        monkeypatch.setattr(exterior, "_BLOCK_ENTRIES", block)
    for n in range(2, 13):
        ctx = AlgebraContext(n)
        rng = np.random.default_rng(n)
        for p in range(1, n + 1):
            frames = np.array([np.linalg.qr(rng.standard_normal((n, p)))[0] for _ in range(3)])
            V = np.array([decomposable_coefficients(F, ctx) for F in frames])
            W = rng.standard_normal((comb(n, p), comb(n, p)))
            want = ((V @ W) * V).sum(-1)
            assert np.array_equal(plane_values(W, frames, ctx).view(np.int64), want.view(np.int64)), (n, p)


# -- contraction -------------------------------------------------------------


def test_contract_metric_examples():
    for n in (2, 4, 6):
        ctx = AlgebraContext(n)
        assert contract(metric(ctx)).scalar() == float(n)
        cg2 = contract(metric_power(2, ctx))
        assert np.allclose(cg2.coeffs, 2 * (n - 1) * np.eye(n))
        assert np.allclose(contract(metric_power(2, ctx) / 2).coeffs, (n - 1) * np.eye(n))


def test_contract_errors():
    ctx = AlgebraContext(3)
    with pytest.raises(ValueError):
        contract(DoubleForm(0, 0, [[1.0]], ctx))
    with pytest.raises(ValueError):
        contract(rand_form(0, 0, 2, 3))


def test_contract_iter_examples():
    for n in (3, 5, 7):
        ctx = AlgebraContext(n)
        assert contract_iter(metric_power(2, ctx), 2).scalar() == 2.0 * n * (n - 1)
        w = rand_form(1, 2, 2, n)
        assert np.array_equal(contract_iter(w, 0).coeffs, w.coeffs)
        for p in range(1, n + 1):
            full = contract_iter(metric_power(p, ctx) / factorial(p), p).scalar()
            assert full == pytest.approx(factorial(n) / factorial(n - p), rel=1e-13)
    with pytest.raises(ValueError):
        contract_iter(metric(AlgebraContext(3)), 2)


# -- inner product ------------------------------------------------------------


def test_inner_examples():
    for n in (2, 5):
        ctx = AlgebraContext(n)
        assert inner(metric(ctx), metric(ctx)) == float(n)
        assert inner(metric_power(2, ctx), metric_power(2, ctx)) == 4.0 * comb(n, 2)
        assert inner(metric(ctx), metric_power(2, ctx)) == 0.0


def test_inner_adjointness_smallest_case():
    # n = 2, w1 = e^1 (x) e^1: <g.w1, w2> must equal <w1, c w2> exactly
    ctx = AlgebraContext(2)
    w1 = DoubleForm(1, 1, [[1.0, 0.0], [0.0, 0.0]], ctx)
    w2 = DoubleForm(2, 2, [[2.5]], ctx)
    assert inner(kn_product(metric(ctx), w1), w2) == inner(w1, contract(w2))


def test_contract_matches_slot_loop_bitwise():
    # single forms, and stacks of three whose first member has -0.0 entries
    # and whose last holds inf, nan and 1.7e308 entries, which put the stack
    # on the path that zeroes the terms read before a row
    for n in range(1, 10):
        ctx = AlgebraContext(n)
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                w = rand_form(1000 * n + 10 * p + q, p, q, n)
                assert np.array_equal(contract(w).coeffs, loop_contract(w))
                W = np.random.default_rng(1000 * n + 10 * p + q).standard_normal((3, ctx.dim(p), ctx.dim(q)))
                W[0, 0] = -0.0
                W[2, 0, 0], W[2, -1, 0], W[2, -1, -1] = np.inf, np.nan, 1.7e308
                with np.errstate(over="ignore", invalid="ignore"):
                    got = forms._contract_stack(W, n, p, q)
                    for m in range(3):
                        want = loop_contract(DoubleForm(p, q, W[m], ctx))
                        assert np.array_equal(got[m].view(np.int64), want.view(np.int64)), (n, p, q, m)


def test_adjointness_random_sweep():
    for n in range(2, 8):
        ctx = AlgebraContext(n)
        g = metric(ctx)
        for p in range(0, n):
            w1 = rand_form(100 * n + p, p, p, n)
            w2 = rand_form(200 * n + p, p + 1, p + 1, n)
            lhs = inner(kn_product(g, w1), w2)
            rhs = inner(w1, contract(w2))
            assert abs(lhs - rhs) <= 1e-10 * max(w1.norm() * w2.norm(), 1.0)


def test_adjointness_k_fold():
    for n in (4, 6):
        ctx = AlgebraContext(n)
        for p, k in ((0, 2), (1, 2), (1, 3), (2, 2)):
            if p + k > n:
                continue
            w1 = rand_form(7, p, p, n)
            w2 = rand_form(8, p + k, p + k, n)
            lhs = inner(kn_product(metric_power(k, ctx), w1), w2)
            rhs = inner(w1, contract_iter(w2, k))
            assert abs(lhs - rhs) <= 1e-10 * max(w1.norm() * w2.norm(), 1.0)


# -- Hodge star ---------------------------------------------------------------


def test_norm_past_the_range_of_squares():
    # squares overflow past 1.4e154; the norm is then taken on the form
    # times a power of two, and is inf only where the true norm is
    ctx = AlgebraContext(4)
    for big in (1e200, 1e308, 1.7976931348623157e308 / 2):
        raw = np.zeros((6, 6))
        raw[0, 0] = raw[3, 5] = big
        assert DoubleForm(2, 2, raw, ctx).norm() == np.sqrt(2.0) * big
    raw[1, 1] = 1.7976931348623157e308
    assert DoubleForm(2, 2, raw, ctx).norm() == np.inf
    raw[1, 1] = np.nan
    assert np.isnan(DoubleForm(2, 2, raw, ctx).norm())
    # ordinary forms take the square root of numpy's sum of squares bit for bit
    form = rand_form(0, 2, 3, 6)
    assert form.norm() == float(np.sqrt(np.sum(form.coeffs * form.coeffs)))


def test_norm_below_the_range_of_squares(monkeypatch):
    # squares of entries below about 1e-154 underflow, to 0 under 1.5e-162;
    # a norm below 2**-450 is taken on the form times a power of two
    ctx = AlgebraContext(4)
    for tiny in (1e-140, 1e-160, 1e-310, 5e-324):
        raw = np.zeros((6, 6))
        raw[0, 0] = raw[3, 5] = tiny
        assert DoubleForm(2, 2, raw, ctx).norm() == pytest.approx(np.sqrt(2.0) * tiny, rel=1e-15, abs=0)
    raw = np.diag([1e-310] * 6)  # the operator's entries in the CLI case
    assert DoubleForm(2, 2, raw, ctx).norm() == pytest.approx(np.sqrt(6.0) * 1e-310, rel=1e-12, abs=0)
    pair_sums, calls = forms._pair_sums, []

    def counted(a, b):
        calls.append(len(a))
        return pair_sums(a, b)

    # a form without a nonzero entry has norm 0.0 and takes one sum of
    # squares; an all-subnormal form takes a second one, on the form rescaled
    monkeypatch.setattr(forms, "_pair_sums", counted)
    for raw, norm, taken in ((np.zeros((6, 6)), 0.0, [1]), (-0.0 * np.eye(6), 0.0, [1]),
                             (np.diag([5e-324] * 6), np.sqrt(6.0) * 5e-324, [1, 1])):
        calls.clear()
        assert DoubleForm(2, 2, raw, ctx).norm() == norm
        assert calls == taken


def test_symmetrized_is_finite_near_the_float_range():
    # (c + c.T) / 2 overflows above half the range; halves first do not
    ctx = AlgebraContext(4)
    raw = 1.7e308 * np.random.default_rng(3).uniform(-1.0, 1.0, (6, 6))
    raw[0, 1], raw[1, 0] = 1.7e308, 1.6e308
    got = DoubleForm(2, 2, raw, ctx).symmetrized().coeffs
    # the mean taken a quarter of the way down the range, bit for bit
    quarter = np.ldexp(raw, -2)
    assert np.array_equal(got, np.ldexp((quarter + quarter.T) / 2.0, 2))
    assert np.isfinite(got).all() and np.array_equal(got, got.T)
    # below the range it is the mean, bit for bit
    small = raw * 1e-300
    assert np.array_equal(DoubleForm(2, 2, small, ctx).symmetrized().coeffs, (small + small.T) / 2.0)


def test_star_stack_equals_the_loop_reference_bit_for_bit():
    # the signed reversal moves each entry, -0.0, inf, nan and the largest
    # floats included, and multiplies it by the same sign as the loop
    for n in range(1, 9):
        rng = np.random.default_rng(n)
        for p in range(n + 1):
            for q in range(n + 1):
                W = rng.standard_normal((3, comb(n, p), comb(n, q)))
                W[0].flat[0] = -0.0
                W[1].flat[0], W[1].flat[-1] = np.inf, np.nan  # one nan in a member of one entry
                W[2] *= 1e307
                W[2].flat[-1] = -1.7e308
                got, want = forms._star_stack(W, n, p, q), loop_star(W, n, p, q)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (n, p, q)


def test_star_volume_normalization():
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        assert star(metric_power(n, ctx) / factorial(n)).scalar() == 1.0


def test_star_of_metric_in_the_plane():
    ctx = AlgebraContext(2)
    assert np.array_equal(star(metric(ctx)).coeffs, np.eye(2))


def test_double_star_identity_on_pp_forms():
    for n in range(2, 7):
        ctx = AlgebraContext(n)
        for p in range(n + 1):
            dim = ctx.dim(p)
            for a in range(dim):
                for b in range(dim):
                    e = np.zeros((dim, dim))
                    e[a, b] = 1.0
                    w = DoubleForm(p, p, e, ctx)
                    assert np.array_equal(star(star(w)).coeffs, w.coeffs)


def test_star_contraction_relation():
    for n in range(2, 8):
        ctx = AlgebraContext(n)
        g = metric(ctx)
        for p in range(0, n):
            w = rand_form(300 * n + p, p, p, n)
            lhs = kn_product(g, w)
            rhs = star(contract(star(w)))
            assert (lhs - rhs).norm() <= 1e-10 * w.norm()


def test_star_contraction_k_fold():
    for n, p, k in ((5, 1, 3), (6, 2, 2), (6, 0, 4)):
        ctx = AlgebraContext(n)
        w = rand_form(17, p, p, n)
        lhs = kn_product(metric_power(k, ctx), w)
        rhs = star(contract_iter(star(w), k))
        assert (lhs - rhs).norm() <= 1e-10 * max(w.norm(), 1.0)


# -- injectivity of multiplication by metric powers ---------------------------


def test_metric_multiplication_full_rank_small():
    for n, p, k in ((4, 1, 2), (5, 1, 3), (5, 2, 1)):
        ctx = AlgebraContext(n)
        dim = ctx.dim(p)
        gk = metric_power(k, ctx)
        cols = []
        for a in range(dim):
            for b in range(dim):
                e = np.zeros((dim, dim))
                e[a, b] = 1.0
                cols.append(kn_product(gk, DoubleForm(p, p, e, ctx)).coeffs.reshape(-1))
        sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
        assert sv[-1] / sv[0] >= 1e-10
        assert int(np.sum(sv > 1e-10 * sv[0])) == dim * dim


def test_nonzero_form_stays_nonzero_under_g_power():
    for n in (5, 6):
        for p in range(1, n // 2 + 1):
            for k in range(1, n - 2 * p + 1):
                w = rand_form(n * 31 + p, p, p, n)
                assert kn_product(metric_power(k, AlgebraContext(n)), w).norm() >= 1e-8 * w.norm()


# -- first Bianchi identity ----------------------------------------------------


def test_bianchi_residual_examples():
    ctx = AlgebraContext(4)
    assert bianchi_residual(metric_power(2, ctx)) == 0.0
    # products of symmetric (1,1) forms satisfy the identity
    h = rand_form(1, 1, 1, 4, symmetric=True)
    k = rand_form(2, 1, 1, 4, symmetric=True)
    hk = kn_product(h, k)
    assert bianchi_residual(hk) <= 1e-12 * max(hk.norm(), 1.0)


def test_bianchi_witness_residual_is_one():
    # the symmetric (2,2) form supported on (e_12, e_34) alone fails the
    # identity with residual exactly 1 on the tuple (e_1, e_2, e_3; e_4)
    ctx = AlgebraContext(4)
    mat = np.zeros((6, 6))
    a = subsets(4, 2).index((1, 2))
    b = subsets(4, 2).index((3, 4))
    mat[a, b] = 1.0
    mat[b, a] = 1.0
    w = DoubleForm(2, 2, mat, ctx)
    assert bianchi_residual(w) == 1.0


@pytest.mark.parametrize("n", range(1, 7))
def test_bianchi_map_matches_literal_sum(n):
    # every degree with q >= 1, including the empty image when p + 1 > n
    for p in range(0, n + 1):
        for q in range(1, n + 1):
            w = rand_form(10 * p + q, p, q, n)
            got = bianchi_map(w)
            assert got.degree == (p + 1, q - 1)
            assert np.array_equal(got.coeffs, literal_bianchi_map(w))
            assert bianchi_residual(w) == np.max(np.abs(got.coeffs), initial=0.0)


def test_bianchi_map_never_reads_a_slot_it_does_not_need():
    # (3,4) x (3,4) never enters the map: x_j is outside {3, 4} whenever
    # the rest of x is (3, 4).  So the map of this form is zero, not NaN.
    mat = np.zeros((6, 6))
    mat[-1, -1] = np.inf
    w = DoubleForm(2, 2, mat, AlgebraContext(4))
    assert np.array_equal(bianchi_map(w).coeffs, np.zeros((4, 4)))
    assert bianchi_residual(w) == 0.0


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("n", range(2, 6))
def test_bianchi_map_keeps_pad_neighbours_apart(n, bad):
    # where x_j lies in Y the flat gather reads the entry before the row
    # (the last entry of w for row 0) and sets that term to zero: a single
    # non-finite entry in the first row or the last column, the entries
    # read that way, reaches exactly the cells the literal sum reaches
    for p in range(n + 1):
        for q in range(1, n + 1):
            rows, cols = comb(n, p), comb(n, q)
            places = {(0, c) for c in range(cols)} | {(r, cols - 1) for r in range(rows)}
            for r, c in sorted(places):
                mat = rand_form(7 * p + q, p, q, n).coeffs.copy()
                mat[r, c] = bad
                w = DoubleForm(p, q, mat, AlgebraContext(n))
                got = bianchi_map(w).coeffs
                want = literal_bianchi_map(w)
                assert np.array_equal(np.isfinite(got), np.isfinite(want)), (p, q, r, c)
                assert np.array_equal(np.isnan(got), np.isnan(want)), (p, q, r, c)


def test_bianchi_requires_second_degree():
    with pytest.raises(ValueError):
        bianchi_residual(rand_form(0, 2, 0, 4))


def test_bianchi_preserved_by_products():
    from doubleforms.random_tensors import random_bianchi_22

    for n in (5, 6):
        ctx = AlgebraContext(n)
        w1 = random_bianchi_22(1, ctx).form
        w2 = random_bianchi_22(2, ctx).form
        prod = kn_product(w1, w2)
        assert bianchi_residual(w1) <= 1e-12 * w1.norm()
        assert bianchi_residual(prod) <= 1e-10 * max(prod.norm(), 1.0)


# -- sectional curvature ---------------------------------------------------------


def test_sectional_constant_for_metric_powers():
    rng = np.random.default_rng(5)
    for n in (4, 6):
        ctx = AlgebraContext(n)
        for p in (1, 2, 3):
            w = metric_power(p, ctx) / factorial(p)
            for _ in range(5):
                span = rng.standard_normal((p, n))
                assert sectional(w, span) == pytest.approx(1.0, abs=1e-12)


def test_sectional_plane_criterion():
    ctx = AlgebraContext(4)
    w = metric_power(2, ctx) / 2
    assert sectional(w, [np.eye(4)[0], np.eye(4)[1]]) == pytest.approx(1.0, abs=1e-15)


def test_sectional_product_three_plane():
    # g.w on a coordinate 3-plane sums w over its coordinate 2-planes
    ctx = AlgebraContext(5)
    w = rand_form(9, 2, 2, 5, symmetric=True)
    gw = kn_product(metric(ctx), w)
    e = np.eye(5)
    got = sectional(gw, [e[0], e[1], e[2]])
    want = sum(w.value((a, b), (a, b)) for a, b in ((1, 2), (1, 3), (2, 3)))
    assert got == pytest.approx(want, rel=1e-12)


def test_sectional_product_prefactor_general():
    # g^p w on e_1^...^e_{p+r} carries the p! prefactor over r-subsets
    ctx = AlgebraContext(6)
    r = 2
    w = rand_form(11, r, r, 6, symmetric=True)
    e = np.eye(6)
    for p in (1, 2, 3):
        lifted = kn_product(metric_power(p, ctx), w)
        got = lifted.value(tuple(range(1, p + r + 1)), tuple(range(1, p + r + 1)))
        want = factorial(p) * sum(
            w.value(S, S)
            for S in subsets(p + r, r)
        )
        assert got == pytest.approx(want, rel=1e-12)


def test_sectional_is_basis_independent():
    ctx = AlgebraContext(5)
    w = rand_form(13, 2, 2, 5, symmetric=True)
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal((2, 5))
    direct = sectional(w, [u, v])
    # respan the same plane with random invertible combinations
    a, b, c, d = 2.0, -1.0, 0.5, 3.0
    respanned = sectional(w, [a * u + b * v, c * u + d * v])
    assert respanned == pytest.approx(direct, rel=1e-10)


def test_sectional_degenerate_span():
    ctx = AlgebraContext(4)
    w = metric_power(2, ctx)
    v = np.ones(4)
    with pytest.raises(ValueError):
        sectional(w, [v, 2 * v])
    with pytest.raises(ValueError):
        sectional(w, [v])  # wrong count for a (2,2) form


def test_sectional_takes_spans_at_any_scale():
    # each vector is scaled by a power of two before Gram-Schmidt, so no
    # square overflows or underflows and no scale reads as degenerate
    w = metric_power(2, AlgebraContext(4))

    def value(s):
        return sectional(w, [[s, 0, 0, 0], [0, s, 0, 0]])

    unit = value(1.0)
    for k in (-700, -30, 30, 600):
        assert np.float64(value(2.0 ** k)).view(np.int64) == np.float64(unit).view(np.int64), k
    assert value(1e-9) == 2.0 and value(1e200) == 2.0 and value(1e155) == 2.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sectional_rejects_non_finite_spans(bad):
    w = metric_power(2, AlgebraContext(4))
    with pytest.raises(ValueError, match="finite entries"):
        sectional(w, [[bad, 0, 0, 0], [0, 1, 0, 0]])


def test_sectional_needs_n_coordinates():
    w = metric_power(2, AlgebraContext(4))
    for span in ([[1, 0, 0, 0, 5], [0, 1, 0, 0, 0]], [[1, 0, 0], [0, 1, 0]], [[1, 0, 0, 0], [[0], [1], [0], [0]]]):
        with pytest.raises(ValueError, match="must have 4 coordinates"):
            sectional(w, span)


def test_sectional_of_a_scalar_form_reads_its_scalar():
    # the 0-plane has the empty span; orthonormalize([]) would raise
    w = DoubleForm(0, 0, np.array([[2.5]]), AlgebraContext(4))
    assert sectional(w, []) == 2.5


def test_plane_values_match_per_plane_quadratic_forms():
    rng = np.random.default_rng(8)
    for n, p in ((4, 0), (5, 1), (5, 2), (6, 3), (7, 4), (8, 4)):
        ctx = AlgebraContext(n)
        raw = rng.standard_normal((ctx.dim(p), ctx.dim(p)))
        W = raw @ raw.T / ctx.dim(p) + np.eye(ctx.dim(p))  # values >= 1: no cancellation
        frames = np.linalg.qr(rng.standard_normal((7, n, n)))[0][:, :, :p]
        want = np.array([v @ W @ v for v in (decomposable_coefficients(F, ctx) for F in frames)])
        got = plane_values(W, frames, ctx)
        assert got.shape == (7,)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (n, p)
        assert plane_values(W, frames[:0], ctx).shape == (0,)


def test_orthonormalize_output():
    rng = np.random.default_rng(0)
    F = orthonormalize(rng.standard_normal((3, 6)))
    assert np.allclose(F.T @ F, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("vectors, shapes", [
    ([1.0, 2.0], "[(), ()]"),
    ([[[1, 0]]], "[(1, 2)]"),
    ([], "[]"),
    ([[1.0, 0.0], [0.0]], "[(2,), (1,)]"),
    (np.zeros((1, 2, 2)), "[(2, 2)]"),
])
def test_orthonormalize_rejects_ill_shaped_input(vectors, shapes):
    with pytest.raises(ValueError, match=re.escape(
            f"expected a non-empty sequence of 1-D vectors of one length, got shapes {shapes}")):
        orthonormalize(vectors)


def loop_orthonormalize(vectors):
    """Modified Gram-Schmidt one vector and one np.sum of products at a time."""
    F = np.array(vectors, dtype=float).T
    n, p = F.shape
    out = np.zeros((n, p))
    for j in range(p):
        v = F[:, j].copy()
        for i in range(j):
            v -= np.sum(out[:, i] * v) * out[:, i]
        out[:, j] = v / np.sqrt(np.sum(v * v))
    return out


def test_orthonormal_stack_equals_the_vector_loop():
    # every member of a stack gets the bits of the loop over its own vectors
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        for p in range(1, n + 1):
            vectors = rng.standard_normal((4, p, n)) * 10.0 ** rng.integers(-3, 4)
            frames, dependent = forms._orthonormal_stack(vectors)
            want = np.array([loop_orthonormalize(v) for v in vectors])
            assert np.array_equal(frames.view(np.int64), want.view(np.int64)), (n, p)
            assert (dependent == -1).all()
    vectors = rng.standard_normal((3, 3, 5))
    vectors[1, 2] = vectors[1, 0] + vectors[1, 1]
    assert forms._orthonormal_stack(vectors)[1].tolist() == [-1, 2, -1]
    with pytest.raises(ValueError, match="vector 2 is dependent"):
        orthonormalize(vectors[1])


# -- container types ---------------------------------------------------------------


def test_double_form_validation():
    ctx = AlgebraContext(3)
    with pytest.raises(ValueError):
        DoubleForm(1, 1, np.zeros((2, 3)), ctx)
    with pytest.raises(ValueError):
        DoubleForm(-1, 0, np.zeros((1, 1)), ctx)


def test_double_form_degrees_are_integers(tmp_path):
    # a boolean or a float is no degree; a numpy integer is stored as int
    from doubleforms.tensorio import save_form
    from doubleforms.weitzenboeck import np_definition
    ctx = AlgebraContext(3)
    for p, q in ((True, 1), (1, False), (1.0, 1), (1, "1")):
        with pytest.raises(ValueError, match="degrees must be integers"):
            DoubleForm(p, q, np.zeros((3, 3)), ctx)
    # the degree and order arguments are refused by name before a form is built
    with pytest.raises(ValueError, match="metric power degree must be an integer, got True"):
        metric_power(True, ctx)
    with pytest.raises(ValueError, match="order must be an integer, got True"):
        np_definition(metric_power(2, AlgebraContext(4)) / 2, True)
    w = DoubleForm(np.int64(1), np.int32(2), np.zeros((3, 3)), ctx)
    assert type(w.p) is int and type(w.q) is int and w.degree == (1, 2)
    save_form(w, tmp_path / "w.json")
    assert '"p": 1,\n  "q": 2,' in (tmp_path / "w.json").read_text()


def test_double_form_transpose_and_symmetry():
    w = rand_form(4, 1, 2, 4)
    assert np.array_equal(w.transpose().coeffs, w.coeffs.T)
    s = rand_form(4, 2, 2, 4, symmetric=True)
    assert s.is_symmetric()
    assert not w.is_symmetric()


def test_double_form_immutability():
    w = metric(AlgebraContext(3))
    with pytest.raises(ValueError):
        w.coeffs[0, 0] = 5.0


def test_curvature_tensor_validation():
    ctx = AlgebraContext(4)
    CurvatureTensor(metric_power(2, ctx) / 2)
    asym = np.zeros((6, 6))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError):
        CurvatureTensor(DoubleForm(2, 2, asym, ctx))
    # the Bianchi witness must be rejected
    mat = np.zeros((6, 6))
    a = subsets(4, 2).index((1, 2))
    b = subsets(4, 2).index((3, 4))
    mat[a, b] = mat[b, a] = 1.0
    with pytest.raises(ValueError):
        CurvatureTensor(DoubleForm(2, 2, mat, ctx))
    # but is accepted when the check is disabled explicitly
    CurvatureTensor(DoubleForm(2, 2, mat, ctx), bianchi_tol=float("inf"))
    with pytest.raises(ValueError):
        CurvatureTensor(metric(ctx))
    nan = metric_power(2, ctx).coeffs.copy()
    nan[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        CurvatureTensor(DoubleForm(2, 2, nan, ctx))


def test_zero_form_and_scalar():
    ctx = AlgebraContext(3)
    z = zero_form(2, 2, ctx)
    assert z.norm() == 0.0
    with pytest.raises(ValueError):
        z.scalar()
