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

from .exterior import AlgebraContext
from .forms import CurvatureTensor, DoubleForm, _member_table, metric_power, metric_product
from .forms import kn_product  # noqa: F401  not called here; bench/tracing.py counts it in this module

__all__ = [
    "random_symmetric_11",
    "random_form",
    "bianchi_from_squares",
    "random_bianchi_22",
    "constant_curvature",
    "conformally_flat",
    "weyl_part_tensor",
    "positive_operator_perturbation",
]


def random_symmetric_11(seed, ctx: AlgebraContext) -> DoubleForm:
    """Symmetrized Gaussian (1,1) form; identical seeds give identical forms."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((ctx.n, ctx.n))
    return DoubleForm(1, 1, (raw + raw.T) / 2.0, ctx)


def random_form(seed, p: int, q: int, ctx: AlgebraContext, *, symmetric: bool = False) -> DoubleForm:
    """Gaussian (p,q) form; with symmetric=True (p must equal q) the matrix
    is symmetrized."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((ctx.dim(p), ctx.dim(q)))
    if symmetric:
        if p != q:
            raise ValueError(f"cannot symmetrize a ({p},{q}) form")
        raw = (raw + raw.T) / 2.0
    return DoubleForm(p, q, raw, ctx)


def _sum_of_squares(H: np.ndarray, ctx: AlgebraContext) -> CurvatureTensor:
    """Sum of the squares h_t.h_t for a stack H of symmetric n x n matrices,

        out[ij,kl] = 2 (G[i,k,j,l] - G[i,l,j,k]),  G[i,k,j,l] = sum_t h_t[i,k] h_t[j,l],

    with G one (n^2, terms) x (terms, n^2) product.
    """
    n = ctx.n
    flat = H.reshape(len(H), n * n)
    G = (flat.T @ flat).reshape(n, n, n, n)
    pairs = _member_table(n, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    ri, rj, ck, cl = i[:, None], j[:, None], i[None, :], j[None, :]
    out = 2.0 * (G[ri, ck, rj, cl] - G[ri, cl, rj, ck])
    return CurvatureTensor(DoubleForm(2, 2, (out + out.T) / 2.0, ctx))


def bianchi_from_squares(forms) -> CurvatureTensor:
    """Sum of exterior squares h.h of symmetric (1,1) forms."""
    forms = list(forms)
    if not forms:
        raise ValueError("need at least one (1,1) form")
    ctx = forms[0].ctx
    for h in forms:
        if h.degree != (1, 1) or not h.is_symmetric():
            raise ValueError("each factor must be a symmetric (1,1) form")
        if h.ctx != ctx:
            raise ValueError(f"context mismatch: n={ctx.n} vs n={h.ctx.n}")
    return _sum_of_squares(np.stack([h.coeffs for h in forms]), ctx)


def random_bianchi_22(seed, ctx: AlgebraContext, terms: int | None = None) -> CurvatureTensor:
    """Random algebraic curvature tensor as a sum of squares of (1,1) forms.

    The default term count n(n+1)/2 + 2 makes generic samples carry a full
    Weyl part.  The factors take terms * n^2 normals from the stream, in
    the order of terms separate n x n draws.
    """
    if terms is None:
        terms = ctx.n * (ctx.n + 1) // 2 + 2
    if terms < 1:
        raise ValueError(f"term count must be >= 1, got {terms}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((terms, ctx.n, ctx.n))
    return _sum_of_squares((raw + raw.transpose(0, 2, 1)) / 2.0, ctx)


def constant_curvature(kappa: float, ctx: AlgebraContext) -> CurvatureTensor:
    """kappa * g^2/2: the tensor with constant sectional curvature kappa."""
    return CurvatureTensor((kappa / 2.0) * metric_power(2, ctx))


def conformally_flat(seed, ctx: AlgebraContext) -> CurvatureTensor:
    """Random curvature tensor with vanishing Weyl part: g.w1 + w0 g^2."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((ctx.n, ctx.n))
    h = DoubleForm(1, 1, (raw + raw.T) / 2.0, ctx)
    w0 = float(rng.standard_normal())
    form = metric_product(1, h) + w0 * metric_power(2, ctx)
    return CurvatureTensor(form.symmetrized())


def weyl_part_tensor(seed, ctx: AlgebraContext) -> CurvatureTensor:
    """Weyl part of a random curvature tensor (trace-free Bianchi form)."""
    from .weitzenboeck import decompose_22

    base = random_bianchi_22(seed, ctx)
    weyl = decompose_22(base).omega2
    # the Weyl projection only removes Bianchi components, so it stays Bianchi
    return CurvatureTensor(weyl.symmetrized(), bianchi_tol=1e-10)


def positive_operator_perturbation(seed, ctx: AlgebraContext, margin: float = 0.5) -> CurvatureTensor:
    """g^2/2 plus a Bianchi perturbation small enough that the tensor stays
    positive definite as an operator on 2-vectors (smallest eigenvalue at
    least 1 - margin)."""
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must be in (0, 1), got {margin}")
    base = constant_curvature(1.0, ctx).form
    noise = random_bianchi_22(seed, ctx).form
    # operator 2-norm bound via Frobenius norm keeps this seed-deterministic
    scale = margin / max(noise.norm(), 1e-12)
    return CurvatureTensor((base + scale * noise).symmetrized())
