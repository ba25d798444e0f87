"""Double-form algebra: products, contraction, star, Bianchi, sectional."""

import ast
import inspect

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
    inner,
    kn_product,
    metric,
    metric_power,
    metric_product,
    orthonormalize,
    sectional,
    star,
    zero_form,
)
from doubleforms import forms
from oracles import dense_kn_product, literal_bianchi_map, literal_kn_product, loop_contract

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
    forbidden = {"_lift_table", "_contract_scatter", "insertion_sign"}
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
                for k in range(n + 1):
                    want = stacked([metric_product(k, w) for w in members])
                    assert np.array_equal(forms._metric_stack(k, W, n, p, q), want), (n, p, q, k)
                if p >= 1 and q >= 1:
                    want = stacked([contract(w) for w in members])
                    assert np.array_equal(forms._contract_stack(W, n, p, q), want), (n, p, q)
                if p <= n and q <= n:
                    want = stacked([star(w) for w in members])
                    assert np.array_equal(forms._star_stack(W, n, p, q), want), (n, p, q)


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
    for n in range(1, 7):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                w = rand_form(1000 * n + 10 * p + q, p, q, n)
                assert np.array_equal(contract(w).coeffs, loop_contract(w))


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


def test_orthonormalize_output():
    rng = np.random.default_rng(0)
    F = orthonormalize(rng.standard_normal((3, 6)))
    assert np.allclose(F.T @ F, np.eye(3), atol=1e-12)


# -- container types ---------------------------------------------------------------


def test_double_form_validation():
    ctx = AlgebraContext(3)
    with pytest.raises(ValueError):
        DoubleForm(1, 1, np.zeros((2, 3)), ctx)
    with pytest.raises(ValueError):
        DoubleForm(-1, 0, np.zeros((1, 1)), ctx)


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
