"""Dense (p,q) double forms over the lexicographic exterior basis.

A double form of degree (p,q) is a bilinear form on p-vectors times
q-vectors, stored as the C(n,p) x C(n,q) matrix of its values on standard
basis elements.  The standard basis is orthonormal for the natural scalar
product g^p/p!, which is why the Frobenius pairing below realizes the
canonical inner product and the metric powers are scalar multiples of the
identity matrix.

The exterior product of forms (Kulkarni-Nomizu product) is evaluated by
summing over shuffle splits of the row and column indices; with the
factorial prefactors of the permutation-sum definition this is an exact
rewriting, and the equality is unit-tested against the literal
permutation sum at low dimension.  One cached shuffle table
(_split_tensor) lists, for each subset K and each subset I disjoint from
it, the ranks of I and K u I and the sign of e_K ^ e_I, and one kernel
(_product_stack) sums over the support of the left factor with one
gather and one scatter.  kn_product passes the nonzero entries of its
left factor.  Products by a metric power g^k, which carry every closed
form of the Weitzenboeck operators, pass the whole diagonal of
g^k = k! I (metric_product), selected without copying table rows.

metric_product, contract and star each run one private array kernel
(_metric_stack, _contract_stack, _star_stack) that takes a stack of
coefficient matrices, shape (..., C(n,p), C(n,q)): the gathers index the
last two axes and one bincount scatters the whole stack.  The DoubleForm
functions pass a stack of one; a stacked call gives every member the same
terms, summed in the same order, so its bits equal a single call's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, prod

import numpy as np

from .exterior import (
    AlgebraContext,
    insertion_sign,
    merge_sign,
    rank_index,
    subsets,
    _ranks,
)

__all__ = [
    "DoubleForm",
    "CurvatureTensor",
    "BianchiViolation",
    "zero_form",
    "metric",
    "metric_power",
    "kn_product",
    "metric_product",
    "contract",
    "contract_iter",
    "inner",
    "star",
    "bianchi_map",
    "bianchi_residual",
    "sectional",
    "orthonormalize",
    "decomposable_coefficients",
]


@dataclass(frozen=True, eq=False)
class DoubleForm:
    """A (p,q) double form as a dense coefficient matrix.

    coeffs[rank(I), rank(J)] = value on (e_I, e_J).  Instances are
    immutable; all operations return new forms.
    """

    p: int
    q: int
    coeffs: np.ndarray
    ctx: AlgebraContext

    def __post_init__(self) -> None:
        if self.p < 0 or self.q < 0:
            raise ValueError(f"negative degree ({self.p}, {self.q})")
        mat = np.asarray(self.coeffs, dtype=float)
        shape = (self.ctx.dim(self.p), self.ctx.dim(self.q))
        if mat.shape != shape:
            raise ValueError(
                f"coefficient matrix has shape {mat.shape}, expected {shape} "
                f"for a ({self.p},{self.q}) form in dimension {self.ctx.n}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "coeffs", mat)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> tuple[int, int]:
        return (self.p, self.q)

    def value(self, I, J) -> float:
        """Coefficient on the basis pair (e_I, e_J)."""
        return float(self.coeffs[rank_index(I, self.ctx), rank_index(J, self.ctx)])

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def transpose(self) -> "DoubleForm":
        return DoubleForm(self.q, self.p, self.coeffs.T, self.ctx)

    def is_symmetric(self, tol: float = 0.0) -> bool:
        if self.p != self.q:
            return False
        if tol == 0.0:
            return bool(np.array_equal(self.coeffs, self.coeffs.T))
        scale = max(self.norm(), 1.0)
        return float(np.max(np.abs(self.coeffs - self.coeffs.T), initial=0.0)) <= tol * scale

    def symmetrized(self) -> "DoubleForm":
        if self.p != self.q:
            raise ValueError("only (p,p) forms can be symmetrized")
        return DoubleForm(self.p, self.q, (self.coeffs + self.coeffs.T) / 2.0, self.ctx)

    def scalar(self) -> float:
        """Value of a (0,0) form."""
        if self.degree != (0, 0):
            raise ValueError(f"not a scalar form: degree {self.degree}")
        return float(self.coeffs[0, 0])

    # -- arithmetic ----------------------------------------------------

    def _check_same(self, other: "DoubleForm") -> None:
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: n={self.ctx.n} vs n={other.ctx.n}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __add__(self, other: "DoubleForm") -> "DoubleForm":
        self._check_same(other)
        return DoubleForm(self.p, self.q, self.coeffs + other.coeffs, self.ctx)

    def __sub__(self, other: "DoubleForm") -> "DoubleForm":
        self._check_same(other)
        return DoubleForm(self.p, self.q, self.coeffs - other.coeffs, self.ctx)

    def __neg__(self) -> "DoubleForm":
        return DoubleForm(self.p, self.q, -self.coeffs, self.ctx)

    def __mul__(self, other):
        if isinstance(other, DoubleForm):
            return kn_product(self, other)
        return DoubleForm(self.p, self.q, self.coeffs * float(other), self.ctx)

    def __rmul__(self, other) -> "DoubleForm":
        return DoubleForm(self.p, self.q, self.coeffs * float(other), self.ctx)

    def __truediv__(self, other) -> "DoubleForm":
        return DoubleForm(self.p, self.q, self.coeffs / float(other), self.ctx)

    def __repr__(self) -> str:
        return f"DoubleForm(p={self.p}, q={self.q}, n={self.ctx.n}, norm={self.norm():.6g})"


def zero_form(p: int, q: int, ctx: AlgebraContext) -> DoubleForm:
    return DoubleForm(p, q, np.zeros((ctx.dim(p), ctx.dim(q))), ctx)


def metric(ctx: AlgebraContext) -> DoubleForm:
    """The inner product of V as a (1,1) form: the identity matrix."""
    return DoubleForm(1, 1, np.eye(ctx.n), ctx)


def metric_power(k: int, ctx: AlgebraContext) -> DoubleForm:
    """k-th exterior power of the metric; its matrix is k! times the identity."""
    if not 0 <= k <= ctx.n:
        raise ValueError(f"metric power degree must be in [0, {ctx.n}], got {k}")
    return DoubleForm(k, k, float(factorial(k)) * np.eye(ctx.dim(k)), ctx)


# -- exterior (Kulkarni-Nomizu) product --------------------------------


@lru_cache(maxsize=None)
def _split_tensor(n: int, p1: int, p2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shuffle signs of the exterior product, in sparse form.

    For each p1-subset K (rows) and each p2-subset I disjoint from K
    (columns, in lexicographic order of I): the rank of I, the rank of
    K u I and the sign of e_K ^ e_I."""
    small, big = _ranks(n, p2), _ranks(n, p1 + p2)
    shape = (comb(n, p1), comb(n - p1, p2))
    src = np.empty(shape, dtype=np.int64)
    dst = np.empty(shape, dtype=np.int64)
    sign = np.empty(shape)
    for r, K in enumerate(subsets(n, p1)):
        chosen = set(K)
        rest = [i for i in range(1, n + 1) if i not in chosen]
        for c, I in enumerate(itertools.combinations(rest, p2)):
            src[r, c] = small[I]
            dst[r, c] = big[tuple(sorted(K + I))]
            sign[r, c] = merge_sign(K, I)
    for a in (src, dst, sign):
        a.setflags(write=False)
    return src, dst, sign


def _offset(index: np.ndarray, members: int, size: int) -> np.ndarray:
    """Flat indices into every block of a stack of members blocks of size
    entries: index addresses one block and is shifted by each member's
    offset.  A stack of one gets the table's own array back, not a copy."""
    if members == 1:
        return index
    return (np.arange(members) * size).reshape((-1,) + (1,) * index.ndim) + index


def _scatter(cells: np.ndarray, terms: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum terms into the C-order cells of a shape-sized output, one output
    per member of the stack that the leading axes of terms (those beyond
    the axes of cells) index.  Each member's cells are offset by its
    position, so one bincount fills the whole stack and adds every
    member's terms in the order a stack of one would."""
    stack = terms.shape[:terms.ndim - cells.ndim]
    size = shape[0] * shape[1]
    cells = _offset(cells, prod(stack), size)
    out = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=prod(stack) * size)
    return out.reshape(stack + shape)


def _product_stack(left, rows, cols, coeffs: np.ndarray, n: int,
                   p1: int, q1: int, p2: int, q2: int) -> np.ndarray:
    """A (p1,q1) form times each (p2,q2) coefficient matrix of a stack
    (..., C(n,p2), C(n,q2)).

    The left factor is given on its support: values left, a column of
    shape (m, 1) or one scalar for every entry, at table rows rows x cols,
    either integer arrays of length m or, for the whole diagonal of a
    (k,k) form, slice(None) on both sides, which copies no table rows.
    The product reads (w1 w2)[K u I, L u J] summed over the support (K, L)
    and over I, J disjoint from K, L of w1[K, L] sgn(K,I) sgn(L,J) w2[I, J]:
    one gather over the last two axes and one scatter.  Degrees beyond n
    give empty matrices.
    """
    P, Q = p1 + p2, q1 + q2
    shape = (comb(n, P), comb(n, Q))
    if P > n or Q > n:
        return np.zeros(coeffs.shape[:-2] + shape)
    srcI, dstI, sgnI = _split_tensor(n, p1, p2)
    srcJ, dstJ, sgnJ = _split_tensor(n, q1, q2)
    sign = (left * sgnI[rows])[:, :, None] * sgnJ[cols][:, None, :]
    terms = coeffs[..., srcI[rows][:, :, None], srcJ[cols][:, None, :]] * sign
    cells = dstI[rows][:, :, None] * shape[1] + dstJ[cols][:, None, :]
    return _scatter(cells, terms, shape)


#: Terms one block of left-factor entries holds at most in kn_product.
_PRODUCT_BLOCK = 2 ** 18


def kn_product(w1: DoubleForm, w2: DoubleForm) -> DoubleForm:
    """Exterior product of double forms; degree ((p1+p2), (q1+q2)).

    Sums over the nonzero entries of w1 (see _product_stack), in blocks of
    at most _PRODUCT_BLOCK terms.  Products whose degree exceeds n are
    identically zero and come back as the (empty) zero form of that degree.
    """
    if w1.ctx != w2.ctx:
        raise ValueError(f"context mismatch: n={w1.ctx.n} vs n={w2.ctx.n}")
    n = w1.ctx.n
    P, Q = w1.p + w2.p, w1.q + w2.q
    if P > n or Q > n:
        return zero_form(P, Q, w1.ctx)
    rows, cols = np.nonzero(w1.coeffs)
    step = max(1, _PRODUCT_BLOCK // (comb(n - w1.p, w2.p) * comb(n - w1.q, w2.q)))
    out = np.zeros((comb(n, P), comb(n, Q)))
    for start in range(0, len(rows), step):
        r, c = rows[start:start + step], cols[start:start + step]
        out += _product_stack(w1.coeffs[r, c, None], r, c, w2.coeffs, n, w1.p, w1.q, w2.p, w2.q)
    return DoubleForm(P, Q, out, w1.ctx)


def _metric_stack(k: int, coeffs: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """g^k times each (p,q) coefficient matrix of a stack (..., C(n,p), C(n,q)).

    g^k = k! I, so the product runs over the whole diagonal of the
    k-subsets K: (g^k w)[K u I, K u J] = k! sgn(K,I) sgn(K,J) w[I, J].
    """
    whole = slice(None)
    return _product_stack(float(factorial(k)), whole, whole, coeffs, n, k, k, p, q)


def metric_product(k: int, w: DoubleForm) -> DoubleForm:
    """g^k . w, equal to kn_product(metric_power(k, ctx), w).

    One gather of w and one scatter (see _metric_stack).  Degrees beyond n
    give the (empty) zero form.
    """
    n = w.ctx.n
    if not 0 <= k <= n:
        raise ValueError(f"metric power degree must be in [0, {n}], got {k}")
    return DoubleForm(w.p + k, w.q + k, _metric_stack(k, w.coeffs, n, w.p, w.q), w.ctx)


# -- contraction --------------------------------------------------------


@lru_cache(maxsize=None)
def _lift_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and sign of e_m ^ e_I over k-subsets I; -1 marks m in I."""
    subs = subsets(n, k)
    big = _ranks(n, k + 1)
    idx = np.full((len(subs), n), -1, dtype=np.int64)
    sgn = np.zeros((len(subs), n))
    for r, I in enumerate(subs):
        for m in range(1, n + 1):
            s = insertion_sign(m, I)
            if s is None:
                continue
            idx[r, m - 1] = big[tuple(sorted(I + (m,)))]
            sgn[r, m - 1] = s
    idx.setflags(write=False)
    sgn.setflags(write=False)
    return idx, sgn


@lru_cache(maxsize=None)
def _contract_scatter(n: int, p: int, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat source index, flat target index and sign of every term of the
    contraction of a (p,q) form, ordered by the slot index m so that
    summing in array order adds the m terms of each entry in turn."""
    idxI, sgnI = _lift_table(n, p - 1)
    idxJ, sgnJ = _lift_table(n, q - 1)
    cols_in, cols_out = comb(n, q), comb(n, q - 1)
    src, dst, sign = [], [], []
    for m in range(n):
        rows = np.nonzero(idxI[:, m] >= 0)[0]
        cols = np.nonzero(idxJ[:, m] >= 0)[0]
        src.append((idxI[rows, m][:, None] * cols_in + idxJ[cols, m]).ravel())
        dst.append((rows[:, None] * cols_out + cols).ravel())
        sign.append(np.outer(sgnI[rows, m], sgnJ[cols, m]).ravel())
    table = tuple(np.concatenate(parts) for parts in (src, dst, sign))
    for a in table:
        a.setflags(write=False)
    return table


def _contract_stack(coeffs: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """Contraction of each (p,q) coefficient matrix of a stack
    (..., C(n,p), C(n,q)): one gather and one scatter."""
    src, dst, sign = _contract_scatter(n, p, q)
    stack = coeffs.shape[:-2]
    # one gather from the flattened stack: numpy's fast path for a 1-d source
    src = _offset(src, prod(stack), coeffs.shape[-2] * coeffs.shape[-1])
    terms = coeffs.reshape(-1)[src] * sign
    return _scatter(dst, terms.reshape(stack + dst.shape), (comb(n, p - 1), comb(n, q - 1)))


def contract(w: DoubleForm) -> DoubleForm:
    """Trace over a prepended slot: (cw)(x, y) = sum_m w(e_m ^ x, e_m ^ y)."""
    if w.p < 1 or w.q < 1:
        raise ValueError(f"cannot contract a {w.degree} form")
    return DoubleForm(w.p - 1, w.q - 1, _contract_stack(w.coeffs, w.ctx.n, w.p, w.q), w.ctx)


def contract_iter(w: DoubleForm, k: int) -> DoubleForm:
    """k-fold contraction; k = 0 returns the form unchanged."""
    if k < 0:
        raise ValueError(f"contraction count must be nonnegative, got {k}")
    if k > min(w.p, w.q):
        raise ValueError(f"cannot contract a {w.degree} form {k} times")
    out = w
    for _ in range(k):
        out = contract(out)
    return out


# -- inner product, Hodge star ------------------------------------------


def inner(w1: DoubleForm, w2: DoubleForm) -> float:
    """Canonical scalar product; blocks of different degree are orthogonal."""
    if w1.ctx != w2.ctx:
        raise ValueError(f"context mismatch: n={w1.ctx.n} vs n={w2.ctx.n}")
    if w1.degree != w2.degree:
        return 0.0
    return float(np.sum(w1.coeffs * w2.coeffs))


@lru_cache(maxsize=None)
def _complement_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """For each d-subset K: rank of K^c among (n-d)-subsets, and its sign."""
    ctx = AlgebraContext(n)
    rc = _ranks(n, n - d)
    subs = subsets(n, d)
    perm = np.zeros(len(subs), dtype=np.int64)
    sgn = np.zeros(len(subs))
    from .exterior import complement as _complement

    for r, K in enumerate(subs):
        s, Kc = _complement(K, ctx)
        perm[r] = rc[Kc]
        sgn[r] = s
    perm.setflags(write=False)
    sgn.setflags(write=False)
    return perm, sgn


def _star_stack(coeffs: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """Hodge star of each (p,q) coefficient matrix of a stack
    (..., C(n,p), C(n,q)): one signed gather over the last two axes."""
    permI, sgnI = _complement_table(n, n - p)
    permJ, sgnJ = _complement_table(n, n - q)
    return np.outer(sgnI, sgnJ) * coeffs[..., permI[:, None], permJ[None, :]]


def star(w: DoubleForm) -> DoubleForm:
    """Generalized Hodge star: (*w)(a, b) = w(*a, *b), degree (n-p, n-q)."""
    n = w.ctx.n
    return DoubleForm(n - w.p, n - w.q, _star_stack(w.coeffs, n, w.p, w.q), w.ctx)


# -- first Bianchi identity ----------------------------------------------


@lru_cache(maxsize=None)
def _member_table(n: int, k: int) -> np.ndarray:
    """The members of every k-subset, zero-based, one row per subset."""
    subs = subsets(n, k)
    members = np.array(subs, dtype=np.int64).reshape(len(subs), k) - 1
    members.setflags(write=False)
    return members


@lru_cache(maxsize=None)
def _removal_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each k-subset X and position j: rank of X without x_j, and x_j - 1."""
    subs = subsets(n, k)
    small = _ranks(n, k - 1)
    idx = np.array([[small[X[:j] + X[j + 1:]] for j in range(k)] for X in subs], dtype=np.int64)
    idx = idx.reshape(len(subs), k)
    idx.setflags(write=False)
    return idx, _member_table(n, k)


def bianchi_map(w: DoubleForm) -> DoubleForm:
    """First Bianchi map b: (p,q) -> (p+1, q-1),

        b(w)(x_1..x_{p+1}; Y) = sum_j (-1)^j w(x_1..^x_j..x_{p+1}; x_j ^ Y),

    on increasing basis tuples; zero exactly on the Bianchi subalgebra.
    """
    if w.q < 1:
        raise ValueError(f"Bianchi map needs q >= 1, got degree {w.degree}")
    ctx = w.ctx
    n = ctx.n
    out = np.zeros((ctx.dim(w.p + 1), ctx.dim(w.q - 1)))
    rows, removed = _removal_table(n, w.p + 1)
    lift, lift_sign = _lift_table(n, w.q - 1)
    # one removal position at a time keeps each temporary C(n,p+1) x C(n,q-1)
    for j in range(w.p + 1):
        m = removed[:, j]
        sign = lift_sign[:, m].T  # zero where x_j lies in Y, cancelling the -1 rank's gather
        if j % 2 == 0:
            sign = -sign
        out += sign * w.coeffs[rows[:, j, None], lift[:, m].T]
    return DoubleForm(w.p + 1, w.q - 1, out, ctx)


def bianchi_residual(w: DoubleForm) -> float:
    """Largest absolute entry of the first Bianchi map of w."""
    return float(np.max(np.abs(bianchi_map(w).coeffs), initial=0.0))


# -- sectional curvature ---------------------------------------------------


def orthonormalize(vectors, *, pivot_tol: float = 1e-8) -> np.ndarray:
    """Modified Gram-Schmidt; returns an n x p matrix with orthonormal columns.

    Raises ValueError when the input is (numerically) rank deficient.
    """
    F = np.array([np.asarray(v, dtype=float) for v in vectors]).T
    if F.ndim != 2:
        F = F.reshape(F.shape[0], -1)
    n, p = F.shape
    out = np.zeros((n, p))
    for j in range(p):
        v = F[:, j].copy()
        scale = max(np.linalg.norm(v), 1.0)
        for i in range(j):
            v -= np.dot(out[:, i], v) * out[:, i]
        pivot = np.linalg.norm(v)
        if pivot < pivot_tol * scale:
            raise ValueError(f"degenerate plane: vector {j} is dependent on the span")
        out[:, j] = v / pivot
    return out


def decomposable_coefficients(F: np.ndarray, ctx: AlgebraContext) -> np.ndarray:
    """Coordinates of f_1 ^ ... ^ f_p over the standard basis (p x p minors)."""
    F = np.asarray(F, dtype=float)
    return np.linalg.det(F[_member_table(ctx.n, F.shape[1])])


def sectional(w: DoubleForm, span) -> float:
    """Value of a symmetric (p,p) form on the p-plane spanned by the input.

    The span is orthonormalized first, so the result only depends on the
    plane, not the chosen spanning vectors.
    """
    if w.p != w.q:
        raise ValueError(f"sectional curvature needs a (p,p) form, got {w.degree}")
    span = list(span)
    if len(span) != w.p:
        raise ValueError(f"expected {w.p} spanning vectors, got {len(span)}")
    if w.p == 0:
        return w.scalar()
    F = orthonormalize(span)
    v = decomposable_coefficients(F, w.ctx)
    return float(v @ w.coeffs @ v)


# -- validated curvature tensors -------------------------------------------

#: Default relative tolerance on the Bianchi residual of curvature tensors.
BIANCHI_TOL = 1e-12


class BianchiViolation(ValueError):
    """A (2,2) form fails the first Bianchi identity at the requested tolerance."""


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """A symmetric (2,2) double form satisfying the first Bianchi identity.

    The wrapped form must be finite and exactly symmetric (symmetrize
    first if necessary); the Bianchi residual must not exceed bianchi_tol
    times the norm, else BianchiViolation is raised.  Pass
    bianchi_tol=float("inf") to skip that check, e.g. for raw file input
    that will only be inspected.
    """

    form: DoubleForm
    bianchi_tol: float = BIANCHI_TOL

    def __post_init__(self) -> None:
        if self.form.degree != (2, 2):
            raise ValueError(f"curvature tensor must be a (2,2) form, got {self.form.degree}")
        if not np.all(np.isfinite(self.form.coeffs)):
            raise ValueError("curvature tensor has non-finite entries")
        if not self.form.is_symmetric():
            raise ValueError("curvature tensor matrix must be exactly symmetric")
        if np.isfinite(self.bianchi_tol):
            residual = bianchi_residual(self.form)
            limit = self.bianchi_tol * self.form.norm()
            if not residual <= limit:
                raise BianchiViolation(
                    f"first Bianchi identity violated: residual {residual:.3e} "
                    f"exceeds {limit:.3e}"
                )

    @property
    def ctx(self) -> AlgebraContext:
        return self.form.ctx

    @property
    def n(self) -> int:
        return self.form.ctx.n

    def __repr__(self) -> str:
        return f"CurvatureTensor(n={self.n}, norm={self.form.norm():.6g})"


def as_form22(omega) -> DoubleForm:
    """Accept either a CurvatureTensor or a bare symmetric (2,2) DoubleForm."""
    if isinstance(omega, CurvatureTensor):
        return omega.form
    if isinstance(omega, DoubleForm):
        if omega.degree != (2, 2):
            raise ValueError(f"expected a (2,2) form, got degree {omega.degree}")
        return omega
    raise TypeError(f"expected CurvatureTensor or DoubleForm, got {type(omega).__name__}")
