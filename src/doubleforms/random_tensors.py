"""Seeded generators for random double forms and algebraic curvature tensors.

Curvature tensors are built as sums of exterior squares h.h of random
symmetric (1,1) forms; each square satisfies the first Bianchi identity
(the identity is preserved by products, and symmetric (1,1) forms satisfy
it trivially), hence so does the sum.  With enough terms the samples are
generic: they carry a nonzero Weyl part for n >= 4.

A square is a matrix of 2x2 minors, (h.h)[ij,kl] = 2(h_ik h_jl - h_il h_jk)
for i < j and k < l (the Kulkarni-Nomizu square), so a whole sum of
squares is read off one Gram matrix of the factors instead of being built
from dense products.
"""

from __future__ import annotations

import numpy as np

from .exterior import AlgebraContext, _as_int
from .forms import (BIANCHI_TOL, CurvatureTensor, DoubleForm, _check_curvature, _gather, _member_table,
                    metric_power, metric_product)
from .forms import kn_product  # noqa: F401  not called here; bench/tracing.py counts it in this module

__all__ = [
    "random_form",
    "random_bianchi_22",
    "constant_curvature",
    "conformally_flat",
    "weyl_part_tensor",
    "positive_operator_perturbation",
]


def random_form(seed, p: int, q: int, ctx: AlgebraContext, *, symmetric: bool = False) -> DoubleForm:
    """Gaussian (p,q) form; with symmetric=True (p must equal q) the matrix
    is symmetrized."""
    p, q = _as_int(p, "degree p", 0), _as_int(q, "degree q", 0)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((ctx.dim(p), ctx.dim(q)))
    if symmetric:
        if p != q:
            raise ValueError(f"cannot symmetrize a ({p},{q}) form")
        raw = (raw + raw.T) / 2.0
    return DoubleForm(p, q, raw, ctx)


def _sum_of_squares(H: np.ndarray, ctx: AlgebraContext) -> np.ndarray:
    """Sums of the squares h_t.h_t, one for each stack of symmetric n x n
    factors in H, shape (members, terms, n, n): the (members, C(n,2), C(n,2))
    coefficient matrices

        out[ij,kl] = 2 (G[i,k,j,l] - G[i,l,j,k]),  G[i,k,j,l] = sum_t h_t[i,k] h_t[j,l],

    with G one (n^2, terms) x (terms, n^2) product per member, whose entry
    G[i,k,j,l] sits at row i n + k and column j n + l.  The matrices are
    gathered member-major (forms._gather), so the stack is C-contiguous.
    """
    n = ctx.n
    flat = H.reshape(len(H), -1, n * n)
    G = flat.transpose(0, 2, 1) @ flat
    pairs = _member_table(n, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    ri, rj, ck, cl = i[:, None] * n, j[:, None] * n, i[None, :], j[None, :]
    out = 2.0 * (_gather(G, ri + ck, rj + cl) - _gather(G, ri + cl, rj + ck))
    return (out + out.transpose(0, 2, 1)) / 2.0


def _factors(seeds, n: int) -> np.ndarray:
    """The symmetric factors of random_bianchi_22 for each seed (or
    generator) of seeds, stacked: (members, terms, n, n).  Each member takes
    terms = n(n+1)/2 + 2 draws of n x n normals from its stream, in turn,
    each made symmetric."""
    shape = (n * (n + 1) // 2 + 2, n, n)
    raw = np.array([np.random.default_rng(seed).standard_normal(shape) for seed in seeds])
    return (raw + raw.transpose(0, 1, 3, 2)) / 2.0


def _curvature_stack(H: np.ndarray, ctx: AlgebraContext) -> np.ndarray:
    """_sum_of_squares of a stack of factor stacks, each member checked as
    a CurvatureTensor of it would be (forms._check_curvature)."""
    coeffs = _sum_of_squares(H, ctx)
    _check_curvature(coeffs, ctx.n, BIANCHI_TOL)
    return coeffs


def random_bianchi_22(seed, ctx: AlgebraContext) -> CurvatureTensor:
    """Random algebraic curvature tensor as a sum of squares of (1,1) forms.

    The term count n(n+1)/2 + 2 makes generic samples carry a full Weyl
    part.  The factors take that many n x n draws of normals from the
    stream, in turn (_factors).
    """
    coeffs = _sum_of_squares(_factors([seed], ctx.n), ctx)[0]
    return CurvatureTensor(DoubleForm(2, 2, coeffs, ctx))


def constant_curvature(kappa: float, ctx: AlgebraContext) -> CurvatureTensor:
    """kappa * g^2/2: the tensor with constant sectional curvature kappa."""
    return CurvatureTensor((kappa / 2.0) * metric_power(2, ctx))


def conformally_flat(seed, ctx: AlgebraContext) -> CurvatureTensor:
    """Random curvature tensor with vanishing Weyl part: g.w1 + w0 g^2."""
    rng = np.random.default_rng(seed)
    h = random_form(rng, 1, 1, ctx, symmetric=True)
    w0 = float(rng.standard_normal())
    form = metric_product(1, h) + w0 * metric_power(2, ctx)
    return CurvatureTensor(form.symmetrized())


def weyl_part_tensor(seed, ctx: AlgebraContext) -> CurvatureTensor:
    """Weyl part of a random curvature tensor (trace-free Bianchi form)."""
    from .weitzenboeck import decompose_22

    base = random_bianchi_22(seed, ctx)
    weyl = decompose_22(base).omega2
    # the Weyl projection only removes Bianchi components, so it stays Bianchi
    return CurvatureTensor(weyl.symmetrized())


def positive_operator_perturbation(seed, ctx: AlgebraContext) -> CurvatureTensor:
    """g^2/2 plus a Bianchi perturbation small enough that the tensor stays
    positive definite as an operator on 2-vectors (smallest eigenvalue at
    least 1/2)."""
    base = constant_curvature(1.0, ctx).form
    noise = random_bianchi_22(seed, ctx).form
    # operator 2-norm bound via Frobenius norm keeps this seed-deterministic
    scale = 0.5 / max(noise.norm(), 1e-12)
    return CurvatureTensor((base + scale * noise).symmetrized())
