"""Seeded generators for random double forms and algebraic curvature tensors.

Curvature tensors are built as sums of exterior squares h.h of random
symmetric (1,1) forms; each square satisfies the first Bianchi identity
(the identity is preserved by products, and symmetric (1,1) forms satisfy
it trivially), hence so does the sum.  With enough terms the samples are
generic: they carry a nonzero Weyl part for n >= 4.
"""

from __future__ import annotations

import numpy as np

from .exterior import AlgebraContext
from .forms import CurvatureTensor, DoubleForm, kn_product, metric_power, metric_product

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


def bianchi_from_squares(forms) -> CurvatureTensor:
    """Sum of exterior squares h.h of symmetric (1,1) forms."""
    forms = list(forms)
    if not forms:
        raise ValueError("need at least one (1,1) form")
    total = None
    for h in forms:
        if h.degree != (1, 1) or not h.is_symmetric():
            raise ValueError("each factor must be a symmetric (1,1) form")
        sq = kn_product(h, h)
        total = sq if total is None else total + sq
    return CurvatureTensor(total.symmetrized())


def random_bianchi_22(seed, ctx: AlgebraContext, terms: int | None = None) -> CurvatureTensor:
    """Random algebraic curvature tensor as a sum of squares of (1,1) forms.

    The default term count n(n+1)/2 + 2 makes generic samples carry a full
    Weyl part.
    """
    if terms is None:
        terms = ctx.n * (ctx.n + 1) // 2 + 2
    if terms < 1:
        raise ValueError(f"term count must be >= 1, got {terms}")
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(terms):
        raw = rng.standard_normal((ctx.n, ctx.n))
        factors.append(DoubleForm(1, 1, (raw + raw.T) / 2.0, ctx))
    return bianchi_from_squares(factors)


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
