"""Weitzenboeck curvature operators of a symmetric (2,2) double form.

The operator of order p is defined through the Clifford commutators
ad_{e_i.e_j} by

    N_p(w)(psi1, psi2) = (1/4) sum_{i<j, k<l} w(e_i^e_j, e_k^e_l)
                         <ad_{e_i.e_j} psi1, ad_{e_k.e_l} psi2>,

evaluated from gather tables: ad_{e_i.e_j}(e_I) is +-2 e_{I xor {i,j}} when
exactly one of i, j lies in I and 0 otherwise, with the signs read off the
sign masks of the Clifford product (clifford._sign_masks), so the sum is
one gather of w and one scatter into the C(n,p) x C(n,p) result, without
2**n-wide Clifford vectors.  Each target is ranked by the shared
mask -> rank lookup of exterior.mask_ranks.
That definitional sum is the trusted oracle in this package and shares no
code with the closed forms; the closed form

    N_p(w) = { g.c(w)/(p-1) - 2 w } g^{p-2} / (p-2)!      (2 <= p <= n-2)

and every derived identity (duality, splitting, contraction orders,
mid-degree expression, adjoint) are checked against it numerically.

The oracle and each closed form have one private kernel on stacks of
coefficient matrices, shape (members, rows, cols) (_definition_stack,
_formula_stack, _decompose_stack, ...); the public functions run it on a
stack of one, and the verification suite on all the seeds of a cell.  A
stacked call gives every member the terms a stack of one gives, summed in
the same order, so its bits equal a single call's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, ldexp

import numpy as np

from .exterior import AlgebraContext, _as_int, cached_table, mask_ranks, subset_masks
from .forms import (
    DoubleForm,
    _contract_stack,
    _exponent,
    _metric_stack,
    _norm,
    _orthonormal_stack,
    as_form22,
    kn_product,  # noqa: F401  not called here; bench/tracing.py counts it in this module
    metric_product,
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


@cached_table
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
    from . import clifford as cl  # here, so that only the oracle loads the Clifford layer
    source_masks, pair_masks = subset_masks(n, p), subset_masks(n, 2)
    src = np.repeat(np.arange(len(source_masks)), len(pair_masks))
    pair = np.tile(np.arange(len(pair_masks)), len(source_masks))
    S, E = source_masks[src], pair_masks[pair]
    flips, signs = cl._sign_masks(n), cl._lower_parity(n, n + 1)  # (-1)^|X| for every subset X
    coef = signs[S & flips[E]] - signs[E & flips[S]]
    keep = np.nonzero(coef)[0]
    target = mask_ranks(n)[S[keep] ^ E[keep]]
    order = keep[np.argsort(target, kind="stable")]
    shape = (len(source_masks), p * (n - p))
    return src[order].reshape(shape), pair[order].reshape(shape), coef[order].reshape(shape)


def _definition_stack(W: np.ndarray, n: int, p: int) -> np.ndarray:
    """The commutator sum of np_definition for each (2,2) coefficient matrix
    of a stack (members, C(n,2), C(n,2)): one gather of the stack over the
    _ad_table rows and one scatter, each member's cells offset by its
    position, so that every member adds its terms in the order a stack of
    one would.  The gather is member-major, one take along the last axis of
    the flattened members, so that each member's terms lie together."""
    src, pair, coef = _ad_table(n, p)
    dim, members = len(src), len(W)
    cells = ((np.arange(members) * dim).reshape(-1, 1, 1, 1) + src[:, :, None]) * dim + src[:, None, :]
    flat = W.reshape(members, W.shape[1] * W.shape[2])
    terms = flat.take(pair[:, :, None] * W.shape[2] + pair[:, None, :], axis=1)
    terms *= coef[:, :, None] * coef[:, None, :]
    N = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=members * dim * dim)
    N = N.reshape(members, dim, dim) * 0.25
    return (N + N.transpose(0, 2, 1)) / 2.0  # symmetric in exact arithmetic; kill roundoff skew


def np_definition(omega, p: int) -> DoubleForm:
    """Order-p Weitzenboeck form via the Clifford commutator sum.

    Works for every 0 <= p <= n and any symmetric (2,2) input; this is the
    reference implementation everything else is measured against.  With
    ad_{e_a} e_I = s e_{K}, the sum reads N[I,J] = (1/4) sum_K s s' w[a,b]
    over the pairs of terms (I,a,s), (J,b,s') landing on the same K, so it
    is one gather of w over the _ad_table rows and one scatter into N
    (_definition_stack on a stack of one).
    """
    w = as_form22(omega)
    ctx = w.ctx
    p = _as_int(p, "order", 0, ctx.n)
    return DoubleForm(p, p, _definition_stack(w.coeffs[None], ctx.n, p)[0], ctx)


# -- closed forms ---------------------------------------------------------


def _check_formula_range(n: int, p) -> int:
    """The order p as an int (exterior._as_int), or FormulaRangeError
    outside 2 <= p <= n-2, where the closed forms hold."""
    p = _as_int(p, "order")
    if not 2 <= p <= n - 2:
        raise FormulaRangeError(
            f"closed form only valid for 2 <= p <= n-2 (n={n}, p={p}); "
            "use np_definition (--method definition) outside that range"
        )
    return p


def _formula_stack(W: np.ndarray, n: int, p: int) -> np.ndarray:
    """The closed form of np_formula for each (2,2) matrix of a stack."""
    inner_part = _metric_stack(1, _contract_stack(W, n, 2, 2), n, 1, 1) / (p - 1) - 2.0 * W
    return _metric_stack(p - 2, inner_part, n, 2, 2) / factorial(p - 2)


def np_formula(omega, p: int) -> DoubleForm:
    """Closed form { g.c(w)/(p-1) - 2 w } g^{p-2}/(p-2)! for Bianchi input."""
    w = as_form22(omega)
    ctx = w.ctx
    p = _check_formula_range(ctx.n, p)
    return DoubleForm(p, p, _formula_stack(w.coeffs[None], ctx.n, p)[0], ctx)


def _adjoint_stack(B: np.ndarray, n: int, p: int) -> np.ndarray:
    """The adjoint of np_adjoint for each (p,p) matrix of a stack."""
    c2 = B
    for k in range(p, 2, -1):
        c2 = _contract_stack(c2, n, k, k)
    term1 = _metric_stack(1, _contract_stack(c2, n, 2, 2), n, 1, 1) / factorial(p - 1)
    return term1 - 2.0 * c2 / factorial(p - 2)


def np_adjoint(w_pp: DoubleForm, p: int) -> DoubleForm:
    """Adjoint of the order-p transformation: (g c^{p-1}/(p-1)! - 2 c^{p-2}/(p-2)!) w."""
    ctx = w_pp.ctx
    p = _check_formula_range(ctx.n, p)
    if w_pp.degree != (p, p):
        raise ValueError(f"expected a ({p},{p}) form, got {w_pp.degree}")
    return DoubleForm(2, 2, _adjoint_stack(w_pp.coeffs[None], ctx.n, p)[0], ctx)


def _traces(W: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Ricci contractions c w, shape (members, n, n), and the scalars
    c^2 w, shape (members,), of a stack of (2,2) matrices."""
    ricci = _contract_stack(W, n, 2, 2)
    return ricci, _contract_stack(ricci, n, 1, 1)[:, 0, 0]


def _times_metric_power(k: int, scalars: np.ndarray, n: int) -> np.ndarray:
    """scalars[m] g^k for each member m: the matrices k! I times each scalar."""
    return (float(factorial(k)) * np.eye(comb(n, k))) * scalars[:, None, None]


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


def _decompose_stack(W: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Weyl, traceless-Ricci and scalar parts of decompose_22 for each
    (2,2) matrix of a stack: (members, C(n,2), C(n,2)), (members, n, n) and
    (members,) arrays."""
    ricci, s = _traces(W, n)
    omega0 = s / (2.0 * n * (n - 1))
    omega1 = (ricci - _times_metric_power(1, s / n, n)) / (n - 2)
    omega2 = W - _metric_stack(1, omega1, n, 1, 1) - _times_metric_power(2, omega0, n)
    return omega2, omega1, omega0


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
    omega2, omega1, omega0 = _decompose_stack(w.coeffs[None], n)
    return KulkarniComponents(omega2=DoubleForm(2, 2, omega2[0], ctx),
                              omega1=DoubleForm(1, 1, omega1[0], ctx), omega0=float(omega0[0]))


def _split_stack(omega2: np.ndarray, omega1: np.ndarray, omega0: np.ndarray, n: int, p: int) -> np.ndarray:
    """The operator np_split assembles, for each member of stacked parts."""
    t2 = _metric_stack(p - 2, omega2, n, 2, 2) * (-2.0 / factorial(p - 2))
    t1 = _metric_stack(p - 1, omega1, n, 1, 1) * ((n - 2 * p) / factorial(p - 1))
    t0 = _times_metric_power(p, 2.0 * (n - p) * omega0 / factorial(p - 1), n)
    return t2 + t1 + t0


def np_split(components: KulkarniComponents, p: int) -> DoubleForm:
    """Order-p operator assembled from the decomposition:

    N_p = g^{p-2} {-2 w2/(p-2)!} + g^{p-1} {(n-2p) w1/(p-1)!}
          + g^p {2(n-p) w0/(p-1)!}.
    """
    ctx = components.ctx
    n = ctx.n
    p = _check_formula_range(n, p)
    out = _split_stack(components.omega2.coeffs[None], components.omega1.coeffs[None],
                       np.array([components.omega0]), n, p)
    return DoubleForm(p, p, out[0], ctx)


# -- contraction orders ----------------------------------------------------


def _contraction_rhs_stack(W: np.ndarray, n: int, p: int, k: int) -> np.ndarray:
    """The closed form of np_contraction_rhs for each (2,2) matrix of a stack."""
    ricci, s = _traces(W, n)
    if k == p:
        return (p * factorial(n - 2) / factorial(n - p - 1) * s)[:, None, None]
    if k == p - 1:
        coef = factorial(n - 3) / factorial(n - p - 1)
        return coef * ((n - 2 * p) * ricci + _times_metric_power(1, (p - 1) * s, n))
    coef = factorial(n - p + k - 2) / (factorial(n - p - 2) * factorial(p - k - 2))
    a = (n - k - p - 1) / ((n - p - 1) * (p - k - 1))
    b = k / ((n - p - 1) * (p - k - 1) * (p - k))
    brace = -2.0 * W + a * _metric_stack(1, ricci, n, 1, 1) + _times_metric_power(2, b * s, n)
    return coef * _metric_stack(p - k - 2, brace, n, 2, 2)


def np_contraction_rhs(omega, p: int, k: int) -> DoubleForm:
    """Closed form for the k-fold contraction of the order-p operator.

    k = p gives the full contraction p (n-2)!/(n-p-1)! c^2 w (a scalar
    form), k = p-1 gives (n-3)!/(n-p-1)! {(n-2p) c w + (p-1) c^2 w g}, and
    k <= p-2 the general g-power expression.
    """
    w = as_form22(omega)
    ctx = w.ctx
    n = ctx.n
    p = _check_formula_range(n, p)
    k = _as_int(k, "contraction order", 0, p)
    return DoubleForm(p - k, p - k, _contraction_rhs_stack(w.coeffs[None], n, p, k)[0], ctx)


def _einstein_stack(ricci: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """E = (1/2) c^2 w g - c w of each member, from the _traces of a stack."""
    return _times_metric_power(1, 0.5 * s, n) - ricci


def einstein_tensor(omega) -> DoubleForm:
    """E = (1/2) c^2 w g - c w, a symmetric (1,1) form."""
    w = as_form22(omega)
    n = w.ctx.n
    return DoubleForm(1, 1, _einstein_stack(*_traces(w.coeffs[None], n), n)[0], w.ctx)


def _einstein_rhs_stack(W: np.ndarray, n: int, p: int) -> np.ndarray:
    """The expression of np_contraction_einstein_rhs for each (2,2) matrix of a stack."""
    ricci, s = _traces(W, n)
    coef = factorial(n - 3) / factorial(n - p - 1)
    einstein = _einstein_stack(ricci, s, n)
    return coef * (_times_metric_power(1, ((n - 2) / 2.0) * s, n) - (n - 2 * p) * einstein)


def np_contraction_einstein_rhs(omega, p: int) -> DoubleForm:
    """Alternative (p-1)-fold contraction written through the Einstein tensor:

    (n-3)!/(n-p-1)! { (n-2)/2 c^2 w g - (n-2p) E }.
    """
    w = as_form22(omega)
    ctx = w.ctx
    n = ctx.n
    p = _check_formula_range(n, p)
    return DoubleForm(1, 1, _einstein_rhs_stack(w.coeffs[None], n, p)[0], ctx)


# -- p-curvature and the mid-degree expression ----------------------------


def p_curvature_form(omega, p: int) -> DoubleForm:
    """The (p,p) form *(g^{n-p-2} w / (n-p-2)!) whose sectional values are
    the p-curvatures of w."""
    w = as_form22(omega)
    n = w.ctx.n
    p = _as_int(p, "p-curvature order", 0, n - 2)
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
    # the expression needs 2 <= p and (n+p)/2 <= n-2, that is p <= n-4
    p = _as_int(p, "mid-degree p", 2, n - 4)
    if (n + p) % 2 != 0:
        raise ValueError(f"n + p must be even, got n={n}, p={p}")
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


#: Gaussian draws sample_frames makes for one plane before it gives up.
_PLANE_TRIES = 32


def sample_frames(rng: np.random.Generator, n: int, p: int, count: int) -> np.ndarray:
    """Orthonormal bases of count random p-planes, shape (count, n, p).

    Each plane is drawn from rng in turn, as p Gaussian vectors that are
    orthonormalized, and drawn again while they are near-degenerate;
    _PLANE_TRIES degenerate draws in a row raise RuntimeError.  The draws
    the planes still need are made in one call, which takes the numbers
    the draws in turn would, and orthonormalized as one stack
    (forms._orthonormal_stack); the nondegenerate ones are kept in order,
    and only the planes still missing are drawn again, so each plane gets
    the numbers of its own draw.  The 0-plane is the empty (n, 0) frame
    and draws nothing; p > n, and an n, a p or a count that is negative or
    no integer (exterior._as_int), raise ValueError.
    """
    n, p = _as_int(n, "dimension", 0), _as_int(p, "plane dimension", 0)
    if p > n:
        raise ValueError(f"no {p}-plane in dimension {n}")
    count = _as_int(count, "the number of planes", 0)
    if p == 0:
        return np.zeros((count, n, 0))
    frames, done, misses = np.empty((count, n, p)), 0, 0
    while done < count:
        drawn, dependent = _orthonormal_stack(rng.standard_normal((count - done, p, n)))
        kept = np.flatnonzero(dependent < 0)
        # degenerate draws in a row before each kept draw (the first run goes
        # on from the last call's) and after the last one
        runs = np.diff(np.concatenate(([-1 - misses], kept, [len(drawn)]))) - 1
        if runs.max() >= _PLANE_TRIES:
            raise RuntimeError("failed to sample a nondegenerate plane")
        frames[done:done + kept.size] = drawn[kept]
        done, misses = done + kept.size, runs[-1]
    return frames


def spectrum(w_pp: DoubleForm, sample_planes: int = 100, seed: int = 0) -> SpectrumReport:
    """Full spectrum (LAPACK, via jacobi_eigenvalues) and sampled sectional
    values of a symmetric (p,p) form, as a self-adjoint operator on p-vectors.

    The standard basis is orthonormal, so the operator matrix is the
    coefficient matrix.  It must be finite and symmetric up to 1e-12 of
    its norm, or of 1 below norm 1; the skew and the norm are compared on
    the matrix times 2**-e, e >= 0 the exponent of its largest entry, so
    neither overflows.  It is symmetrized as 0.5 m + 0.5 m^T, which cannot
    overflow either.  The samples are
    forms.plane_values on sample_frames(default_rng(seed)), the path of the
    sectional command.  They are Rayleigh quotients of the operator matrix,
    so the smallest eigenvalue never exceeds their minimum.
    """
    samples = _as_int(sample_planes, "the number of planes", 0)
    if w_pp.p != w_pp.q:
        raise ValueError(f"expected a (p,p) form, got {w_pp.degree}")
    mat = w_pp.coeffs
    shift = max(_exponent(mat), 0)
    scaled = np.ldexp(mat, -shift)
    skew = np.max(np.abs(scaled - scaled.T), initial=0.0)
    if skew > 1e-12 * max(_norm(scaled), ldexp(1.0, -shift)):
        with np.errstate(over="ignore"):  # the skew as printed is inf past the float range
            skew = float(np.max(np.abs(mat - mat.T)))
        raise ValueError(f"operator matrix not symmetric: max skew {skew:.3e}")
    mat = 0.5 * mat + 0.5 * mat.T
    if not np.isfinite(mat).all():
        raise ValueError(f"the order-{w_pp.p} operator has non-finite entries")
    eigs = jacobi_eigenvalues(mat)
    if samples:
        frames = sample_frames(np.random.default_rng(seed), w_pp.ctx.n, w_pp.p, samples)
        sampled = plane_values(mat, frames, w_pp.ctx)
    else:  # no generator, so a command that asks for no samples never imports numpy.random
        sampled = np.empty(0)
    return SpectrumReport(
        eigenvalues=eigs,
        min_eigenvalue=float(eigs[0]) if eigs.size else 0.0,
        min_sampled_sectional=float(sampled.min()) if sampled.size else None,
        sampled_values=sampled,
    )
