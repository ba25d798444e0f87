"""Weitzenboeck curvature operators of a symmetric (2,2) double form.

The operator of order p is defined through the Clifford commutators
ad_{e_i.e_j} by

    N_p(w)(psi1, psi2) = (1/4) sum_{i<j, k<l} w(e_i^e_j, e_k^e_l)
                         <ad_{e_i.e_j} psi1, ad_{e_k.e_l} psi2>,

evaluated from gather tables: ad_{e_i.e_j}(e_I) is +-2 e_{I xor {i,j}} when
exactly one of i, j lies in I and 0 otherwise, with the signs read off the
sign masks of the Clifford product (clifford._sign_masks), so the sum is
one gather of w and one scatter into the C(n,p) x C(n,p) result, without
2**n-wide Clifford vectors.  At n = 12, p = 6 the tables take about 15 ms
and one evaluation about 30 ms (2-vCPU x86 machine, one BLAS thread).
That definitional sum is the trusted oracle in this package and shares no
code with the closed forms; the closed form

    N_p(w) = { g.c(w)/(p-1) - 2 w } g^{p-2} / (p-2)!      (2 <= p <= n-2)

and every derived identity (duality, splitting, contraction orders,
mid-degree expression, adjoint) are checked against it numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .exterior import AlgebraContext, subsets
from . import clifford as cl
from .forms import (
    DoubleForm,
    as_form22,
    contract,
    contract_iter,
    kn_product,  # noqa: F401  not called here; bench/tracing.py counts it in this module
    metric,
    metric_power,
    metric_product,
    orthonormalize,
    plane_values,
    star,
)

__all__ = [
    "FormulaRangeError",
    "KulkarniComponents",
    "SpectrumReport",
    "np_definition",
    "np_formula",
    "np_adjoint",
    "decompose_22",
    "np_split",
    "np_contraction_rhs",
    "np_contraction_einstein_rhs",
    "einstein_tensor",
    "p_curvature_form",
    "np_midpoint_formula",
    "jacobi_eigenvalues",
    "spectrum",
]


class FormulaRangeError(ValueError):
    """Raised when a closed form is requested outside its valid p range."""


# -- definitional operator (the oracle) ---------------------------------


@lru_cache(maxsize=64)
def _ad_table(n: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather lists of the commutators ad_{e_i.e_j} on basis p-vectors.

    Each nonzero ad_{e_i.e_j}(e_S) is c e_K with K = S xor {i, j}, and
    every target K is hit by exactly p(n-p) pairs (S, (i,j)).  Row K of the
    returned (C(n,p), p(n-p)) arrays lists those terms: the rank of S, the
    lexicographic rank of (i,j) (the row order of (2,2) coefficient
    matrices) and c.  The coefficients are e_i.e_j.e_S - e_S.e_i.e_j, with
    both signs read off clifford's sign masks D:
    e_A.e_B = (-1)^parity(B & D_A) e_{A xor B}.
    """
    sources = np.array(subsets(n, p), dtype=np.int64).reshape(comb(n, p), p)
    pairs = np.array(subsets(n, 2), dtype=np.int64).reshape(comb(n, 2), 2)
    src = np.repeat(np.arange(len(sources)), len(pairs))
    pair = np.tile(np.arange(len(pairs)), len(sources))
    source_masks = (1 << (sources - 1)).sum(axis=1)
    S, E = source_masks[src], (1 << (pairs - 1)).sum(axis=1)[pair]
    flips, signs = cl._sign_masks(n), cl._lower_parity(n, n + 1)  # (-1)^|X| for every subset X
    coef = signs[S & flips[E]] - signs[E & flips[S]]
    keep = np.nonzero(coef)[0]
    by_mask = np.argsort(source_masks)
    target = by_mask[np.searchsorted(source_masks[by_mask], S[keep] ^ E[keep])]
    order = keep[np.argsort(target, kind="stable")]
    shape = (len(sources), p * (n - p))
    table = (src[order].reshape(shape), pair[order].reshape(shape), coef[order].reshape(shape))
    for a in table:
        a.setflags(write=False)
    return table


def np_definition(omega, p: int) -> DoubleForm:
    """Order-p Weitzenboeck form via the Clifford commutator sum.

    Works for every 0 <= p <= n and any symmetric (2,2) input; this is the
    reference implementation everything else is measured against.  With
    ad_{e_a} e_I = s e_{K}, the sum reads N[I,J] = (1/4) sum_K s s' w[a,b]
    over the pairs of terms (I,a,s), (J,b,s') landing on the same K, so it
    is one gather of w over the _ad_table rows and one scatter into N.
    """
    w = as_form22(omega)
    ctx = w.ctx
    if not 0 <= p <= ctx.n:
        raise ValueError(f"order must be in [0, {ctx.n}], got {p}")
    src, pair, coef = _ad_table(ctx.n, p)
    dim = len(src)
    terms = w.coeffs[pair[:, :, None], pair[:, None, :]] * (coef[:, :, None] * coef[:, None, :])
    cells = src[:, :, None] * dim + src[:, None, :]
    N = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=dim * dim)
    N = N.reshape(dim, dim) * 0.25
    N = (N + N.T) / 2.0  # symmetric in exact arithmetic; kill roundoff skew
    return DoubleForm(p, p, N, ctx)


# -- closed forms ---------------------------------------------------------


def _check_formula_range(n: int, p: int) -> None:
    if not 2 <= p <= n - 2:
        raise FormulaRangeError(
            f"closed form only valid for 2 <= p <= n-2 (n={n}, p={p}); "
            "use np_definition outside that range"
        )


def np_formula(omega, p: int) -> DoubleForm:
    """Closed form { g.c(w)/(p-1) - 2 w } g^{p-2}/(p-2)! for Bianchi input."""
    w = as_form22(omega)
    ctx = w.ctx
    _check_formula_range(ctx.n, p)
    inner_part = metric_product(1, contract(w)) / (p - 1) - 2.0 * w
    return metric_product(p - 2, inner_part) / factorial(p - 2)


def np_adjoint(w_pp: DoubleForm, p: int) -> DoubleForm:
    """Adjoint of the order-p transformation: (g c^{p-1}/(p-1)! - 2 c^{p-2}/(p-2)!) w."""
    if w_pp.degree != (p, p):
        raise ValueError(f"expected a ({p},{p}) form, got {w_pp.degree}")
    ctx = w_pp.ctx
    _check_formula_range(ctx.n, p)
    term1 = metric_product(1, contract_iter(w_pp, p - 1)) / factorial(p - 1)
    term2 = 2.0 * contract_iter(w_pp, p - 2) / factorial(p - 2)
    return term1 - term2


# -- orthogonal decomposition of (2,2) forms -----------------------------


@dataclass(frozen=True, eq=False)
class KulkarniComponents:
    """Weyl / traceless-Ricci / scalar parts: w = w2 + g.w1 + g^2.w0."""

    omega2: DoubleForm
    omega1: DoubleForm
    omega0: float

    @property
    def ctx(self) -> AlgebraContext:
        return self.omega2.ctx


def decompose_22(omega) -> KulkarniComponents:
    """Split a curvature tensor into scalar, traceless-Ricci and Weyl parts.

    Uses the trace formulas s = c^2 w, w0 = s/(2n(n-1)),
    w1 = (c w - (s/n) g)/(n-2); only supported for n >= 4, below which the
    Weyl part degenerates.
    """
    w = as_form22(omega)
    ctx = w.ctx
    n = ctx.n
    if n < 4:
        raise ValueError(f"decomposition requires dimension >= 4, got n={n}")
    g = metric(ctx)
    ricci = contract(w)
    s = contract(ricci).scalar()
    omega0 = s / (2.0 * n * (n - 1))
    omega1 = (ricci - (s / n) * g) / (n - 2)
    omega2 = w - metric_product(1, omega1) - omega0 * metric_power(2, ctx)
    return KulkarniComponents(omega2=omega2, omega1=omega1, omega0=omega0)


def np_split(components: KulkarniComponents, p: int) -> DoubleForm:
    """Order-p operator assembled from the decomposition:

    N_p = g^{p-2} {-2 w2/(p-2)!} + g^{p-1} {(n-2p) w1/(p-1)!}
          + g^p {2(n-p) w0/(p-1)!}.
    """
    ctx = components.ctx
    n = ctx.n
    _check_formula_range(n, p)
    t2 = metric_product(p - 2, components.omega2) * (-2.0 / factorial(p - 2))
    t1 = metric_product(p - 1, components.omega1) * ((n - 2 * p) / factorial(p - 1))
    t0 = metric_power(p, ctx) * (2.0 * (n - p) * components.omega0 / factorial(p - 1))
    return t2 + t1 + t0


# -- contraction orders ----------------------------------------------------


def np_contraction_rhs(omega, p: int, k: int) -> DoubleForm:
    """Closed form for the k-fold contraction of the order-p operator.

    k = p gives the full contraction p (n-2)!/(n-p-1)! c^2 w (a scalar
    form), k = p-1 gives (n-3)!/(n-p-1)! {(n-2p) c w + (p-1) c^2 w g}, and
    k <= p-2 the general g-power expression.
    """
    w = as_form22(omega)
    ctx = w.ctx
    n = ctx.n
    _check_formula_range(n, p)
    if not 0 <= k <= p:
        raise ValueError(f"contraction order must be in [0, {p}], got {k}")
    ricci = contract(w)
    s = contract(ricci).scalar()
    if k == p:
        value = p * factorial(n - 2) / factorial(n - p - 1) * s
        return DoubleForm(0, 0, [[value]], ctx)
    if k == p - 1:
        coef = factorial(n - 3) / factorial(n - p - 1)
        return coef * ((n - 2 * p) * ricci + (p - 1) * s * metric(ctx))
    coef = factorial(n - p + k - 2) / (factorial(n - p - 2) * factorial(p - k - 2))
    a = (n - k - p - 1) / ((n - p - 1) * (p - k - 1))
    b = k / ((n - p - 1) * (p - k - 1) * (p - k))
    brace = -2.0 * w + a * metric_product(1, ricci) + (b * s) * metric_power(2, ctx)
    return coef * metric_product(p - k - 2, brace)


def einstein_tensor(omega) -> DoubleForm:
    """E = (1/2) c^2 w g - c w, a symmetric (1,1) form."""
    w = as_form22(omega)
    ricci = contract(w)
    s = contract(ricci).scalar()
    return 0.5 * s * metric(w.ctx) - ricci


def np_contraction_einstein_rhs(omega, p: int) -> DoubleForm:
    """Alternative (p-1)-fold contraction written through the Einstein tensor:

    (n-3)!/(n-p-1)! { (n-2)/2 c^2 w g - (n-2p) E }.
    """
    w = as_form22(omega)
    ctx = w.ctx
    n = ctx.n
    _check_formula_range(n, p)
    s = contract_iter(w, 2).scalar()
    coef = factorial(n - 3) / factorial(n - p - 1)
    return coef * (((n - 2) / 2.0) * s * metric(ctx) - (n - 2 * p) * einstein_tensor(w))


# -- p-curvature and the mid-degree expression ----------------------------


def p_curvature_form(omega, p: int) -> DoubleForm:
    """The (p,p) form *(g^{n-p-2} w / (n-p-2)!) whose sectional values are
    the p-curvatures of w."""
    w = as_form22(omega)
    n = w.ctx.n
    if not 0 <= p <= n - 2:
        raise ValueError(f"p-curvature needs 0 <= p <= n-2 (n={n}), got p={p}")
    lifted = metric_product(n - p - 2, w) / factorial(n - p - 2)
    return star(lifted)


def np_midpoint_formula(omega, p: int) -> DoubleForm:
    """Order-(n+p)/2 operator through the p-curvature form and the Weyl part:

        C g^{(n-p)/2} { *(p(p-1)/(n-p-2)! g^{n-p-2} w)
                        - (n-1)(n-2)/(p-2)! g^{p-2} W },
        C = 2 (p-2)! / ( ((n+p-4)/2)! (n+p-2) (n-p-1) ).
    """
    w = as_form22(omega)
    ctx = w.ctx
    n = ctx.n
    if (n + p) % 2 != 0:
        raise ValueError(f"n + p must be even, got n={n}, p={p}")
    order = (n + p) // 2
    if p < 2 or order > n - 2:
        raise ValueError(
            f"mid-degree expression needs 2 <= p and (n+p)/2 <= n-2, got n={n}, p={p}"
        )
    weyl = decompose_22(w).omega2
    star_term = (p * (p - 1) / factorial(n - p - 2)) * star(metric_product(n - p - 2, w))
    weyl_term = ((n - 1) * (n - 2) / factorial(p - 2)) * metric_product(p - 2, weyl)
    C = 2.0 * factorial(p - 2) / (factorial((n + p - 4) // 2) * (n + p - 2) * (n - p - 1))
    return C * metric_product((n - p) // 2, star_term - weyl_term)


# -- operators, spectra, sampled sectional curvature -----------------------


def jacobi_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    Calls LAPACK through numpy.linalg.eigvalsh, which reads the lower
    triangle only; the name stays because it is public API.
    """
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=float))


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues plus sampled sectional minima of a (p,p) operator."""

    eigenvalues: np.ndarray
    min_eigenvalue: float
    min_sampled_sectional: float | None
    sampled_values: np.ndarray = field(repr=False, default=None)


#: Gaussian draws sample_plane makes for one plane before it gives up.
_PLANE_TRIES = 32


def sample_plane(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """Orthonormal basis of a random p-plane from Gaussian vectors; the
    0-plane is the empty (n, 0) frame and draws nothing."""
    if p == 0:
        return np.zeros((n, 0))
    for _ in range(_PLANE_TRIES):
        raw = rng.standard_normal((p, n))
        try:
            return orthonormalize(raw)
        except ValueError:
            continue  # resample near-degenerate draws
    raise RuntimeError("failed to sample a nondegenerate plane")


def sample_frames(rng: np.random.Generator, n: int, p: int, count: int) -> np.ndarray:
    """count sample_plane draws from rng in turn, stacked: shape (count, n, p)."""
    return np.array([sample_plane(rng, n, p) for _ in range(count)]).reshape(count, n, p)


def spectrum(w_pp: DoubleForm, sample_planes: int = 100, seed: int = 0) -> SpectrumReport:
    """Full spectrum (LAPACK, via jacobi_eigenvalues) and sampled sectional
    values of a symmetric (p,p) form, as a self-adjoint operator on p-vectors.

    The standard basis is orthonormal, so the operator matrix is the
    coefficient matrix.  It must be symmetric up to 1e-12 of its norm, and
    finite once symmetrized (entries past 8.9e307 overflow there).  The
    samples are forms.plane_values on sample_frames(default_rng(seed)), the
    path of the sectional command.  They are Rayleigh quotients of the
    operator matrix, so the smallest eigenvalue never exceeds their minimum.
    """
    if w_pp.p != w_pp.q:
        raise ValueError(f"expected a (p,p) form, got {w_pp.degree}")
    mat = w_pp.coeffs
    scale = max(float(np.linalg.norm(mat)), 1.0)
    skew = float(np.max(np.abs(mat - mat.T), initial=0.0))
    if skew > 1e-12 * scale:
        raise ValueError(f"operator matrix not symmetric: max skew {skew:.3e}")
    mat = (mat + mat.T) / 2.0
    if not np.isfinite(mat).all():
        raise ValueError(f"the order-{w_pp.p} operator has non-finite entries")
    eigs = jacobi_eigenvalues(mat)
    if sample_planes:
        frames = sample_frames(np.random.default_rng(seed), w_pp.ctx.n, w_pp.p, sample_planes)
        sampled = plane_values(mat, frames, w_pp.ctx)
    else:  # no generator, so a command that asks for no samples never imports numpy.random
        sampled = np.empty(0)
    return SpectrumReport(
        eigenvalues=eigs,
        min_eigenvalue=float(eigs[0]) if eigs.size else 0.0,
        min_sampled_sectional=float(sampled.min()) if sampled.size else None,
        sampled_values=sampled,
    )
