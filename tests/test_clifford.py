"""Clifford product, interior product, and the commutator operators."""

import itertools
from math import factorial

import numpy as np
import pytest

from doubleforms.exterior import AlgebraContext, subsets, wedge_basis
from doubleforms.clifford import (
    CliffordElement,
    ad,
    basis_element,
    basis_vector,
    clifford_mul,
    dot,
    from_vector,
    interior,
    wedge_generator,
    zero_element,
)
from doubleforms import clifford
from oracles import loop_clifford_mul, perm_sign


def rand_element(seed, n):
    rng = np.random.default_rng(seed)
    return CliffordElement(rng.standard_normal(2 ** n), AlgebraContext(n))


def test_generator_squares_to_minus_one():
    ctx = AlgebraContext(4)
    for i in (1, 3):
        sq = clifford_mul(basis_vector(ctx, i), basis_vector(ctx, i))
        want = np.zeros(16)
        want[0] = -1.0
        assert np.array_equal(sq.coeffs, want)


def test_orthogonal_generators_anticommute_to_wedge():
    ctx = AlgebraContext(3)
    e1, e2 = basis_vector(ctx, 1), basis_vector(ctx, 2)
    assert np.array_equal(clifford_mul(e1, e2).coeffs, basis_element(ctx, (1, 2)).coeffs)
    assert np.array_equal(clifford_mul(e2, e1).coeffs, -basis_element(ctx, (1, 2)).coeffs)


def test_bivector_squares_to_minus_one():
    # expand (e1 e2)(e1 e2) = -e1 e1 e2 e2 = -1 by anticommutation
    ctx = AlgebraContext(4)
    b = clifford_mul(basis_vector(ctx, 1), basis_vector(ctx, 2))
    sq = clifford_mul(b, b)
    want = np.zeros(16)
    want[0] = -1.0
    assert np.array_equal(sq.coeffs, want)


def test_vector_product_formula():
    # u.v = u ^ v - <u, v> for arbitrary vectors
    n = 5
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(2)
    u, v = rng.standard_normal((2, n))
    prod = clifford_mul(from_vector(ctx, u), from_vector(ctx, v))
    scalar = prod.coeffs[0]
    assert scalar == pytest.approx(-float(u @ v), rel=1e-13)
    wedge = prod.degree_component(2)
    for (i, j) in subsets(n, 2):
        mask = (1 << (i - 1)) | (1 << (j - 1))
        want = u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
        assert wedge.coeffs[mask] == pytest.approx(want, rel=1e-13, abs=1e-15)
    assert prod.degrees() <= {0, 2}


def test_associativity_random():
    for n in (3, 4, 5, 6):
        for t in range(10):
            a = rand_element(3 * t, n)
            b = rand_element(3 * t + 1, n)
            c = rand_element(3 * t + 2, n)
            lhs = clifford_mul(clifford_mul(a, b), c)
            rhs = clifford_mul(a, clifford_mul(b, c))
            assert (lhs - rhs).norm() <= 1e-12 * a.norm() * b.norm() * c.norm()


def test_product_matches_the_generator_loop_bitwise():
    # the sign rule of clifford_mul against iterated generator gathers
    for n in range(1, 8):
        rng = np.random.default_rng(n)
        for density in (0.1, 0.5, 1.0):
            for t in range(3):
                a, b = (rand_element(100 * n + 10 * t + s, n) for s in (0, 1))
                sparse = CliffordElement(a.coeffs * (rng.random(2 ** n) < density), a.ctx)
                for left in (a, sparse):
                    assert np.array_equal(clifford_mul(left, b).coeffs, loop_clifford_mul(left, b))


def test_product_in_several_blocks_matches_the_generator_loop():
    n = 10
    assert 2 ** n > clifford._PRODUCT_BLOCK // 2 ** n  # the rows of a dense left factor need blocks
    a, b = rand_element(1, n), rand_element(2, n)
    want = loop_clifford_mul(a, b)
    assert np.linalg.norm(clifford_mul(a, b).coeffs - want) <= 1e-13 * np.linalg.norm(want)


def test_wedge_recovery_exhaustive():
    # antisymmetrized products of distinct generators recover the wedge
    for n in (4, 5):
        ctx = AlgebraContext(n)
        for p in range(1, min(4, n) + 1):
            for I in subsets(n, p):
                acc = zero_element(ctx)
                for perm in itertools.permutations(range(p)):
                    prod = basis_vector(ctx, I[perm[0]])
                    for a in perm[1:]:
                        prod = clifford_mul(prod, basis_vector(ctx, I[a]))
                    acc = acc + perm_sign(perm) * prod
                got = (1.0 / factorial(p)) * acc
                assert np.allclose(got.coeffs, basis_element(ctx, I).coeffs, atol=1e-13)


def test_interior_examples():
    ctx = AlgebraContext(3)
    e12 = basis_element(ctx, (1, 2))
    assert np.array_equal(interior(1, e12).coeffs, basis_element(ctx, (2,)).coeffs)
    assert np.array_equal(interior(2, e12).coeffs, -basis_element(ctx, (1,)).coeffs)
    assert interior(3, e12).norm() == 0.0


def test_interior_is_adjoint_of_wedge():
    n = 5
    for i in (1, 3, 5):
        a = rand_element(20 + i, n)
        b = rand_element(30 + i, n)
        assert dot(wedge_generator(i, a), b) == pytest.approx(dot(a, interior(i, b)), rel=1e-12)


def test_wedge_generator_matches_basis_signs():
    ctx = AlgebraContext(4)
    for I in subsets(4, 2):
        for m in range(1, 5):
            got = wedge_generator(m, basis_element(ctx, I))
            merged = wedge_basis((m,), I)
            if merged is None:
                assert got.norm() == 0.0
            else:
                sign, K = merged
                assert np.array_equal(got.coeffs, sign * basis_element(ctx, K).coeffs)


def test_ad_frozen_examples():
    ctx = AlgebraContext(4)
    phi = clifford_mul(basis_vector(ctx, 1), basis_vector(ctx, 2))
    assert ad(phi, basis_element(ctx, (1, 2))).norm() == 0.0
    assert ad(phi, basis_vector(ctx, 3)).norm() == 0.0
    # 2 e1 e2 e1 = 2 e2 after anticommuting and e1 e1 = -1
    got = ad(phi, basis_vector(ctx, 1))
    assert np.array_equal(got.coeffs, 2.0 * basis_vector(ctx, 2).coeffs)


def test_ad_case_rule_exhaustive():
    for n in (4, 5):
        ctx = AlgebraContext(n)
        for (i, j) in subsets(n, 2):
            phi = clifford_mul(basis_vector(ctx, i), basis_vector(ctx, j))
            for p in range(n + 1):
                for S in subsets(n, p):
                    got = ad(phi, basis_element(ctx, S))
                    overlap = len({i, j} & set(S))
                    if overlap in (0, 2):
                        assert got.norm() == 0.0
                    else:
                        want = 2.0 * clifford_mul(phi, basis_element(ctx, S))
                        assert np.array_equal(got.coeffs, want.coeffs)


def test_ad_preserves_degree():
    # exact for basis 2-vectors; up to roundoff for linear combinations,
    # where the grade p+-2 parts cancel between two float summation paths
    n = 5
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(8)
    phi_coeffs = np.zeros(2 ** n)
    for (i, j) in subsets(n, 2):
        phi_coeffs[(1 << (i - 1)) | (1 << (j - 1))] = rng.standard_normal()
    phi = CliffordElement(phi_coeffs, ctx)
    for p in (0, 1, 2, 3):
        psi = rand_element(40 + p, n).degree_component(p)
        out = ad(phi, psi)
        off_grade = out - out.degree_component(p)
        assert off_grade.norm() <= 1e-13 * max(phi.norm() * psi.norm(), 1.0)
    for (i, j) in ((1, 2), (2, 5)):
        basis_phi = clifford_mul(basis_vector(ctx, i), basis_vector(ctx, j))
        psi = rand_element(44, n).degree_component(2)
        assert ad(basis_phi, psi).degrees() <= {2}


def test_degree_component_partitions():
    a = rand_element(50, 4)
    total = np.zeros(16)
    for k in range(5):
        total += a.degree_component(k).coeffs
    assert np.array_equal(total, a.coeffs)


def test_context_mismatch():
    with pytest.raises(ValueError):
        clifford_mul(rand_element(0, 3), rand_element(0, 4))
