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

The cached basis tables (_split_tensor, _lift_table, _member_table,
_removal_table) are built as whole arrays from the bit masks of
exterior.subset_masks: unions and removals are mask operations, ranks are
read off exterior.mask_ranks, and the signs come from the broadcasting
merge_sign (the shuffle table) and insertion_sign (the lift table behind
contraction), so the product's table shares no code with the
contraction's.

metric_product, contract and star each run one private array kernel
(_metric_stack, _contract_stack, _star_stack) that takes a stack of
coefficient matrices, shape (..., C(n,p), C(n,q)): the gathers index the
last two axes and one bincount scatters the whole stack.  The DoubleForm
functions pass a stack of one; a stacked call gives every member the same
terms, summed in the same order, so its bits equal a single call's.

Forms are evaluated on planes by one function, plane_values: the values
v.W.v on a stack of orthonormal frames, v the frame's p x p minors.
sectional, weitzenboeck.spectrum, the sectional command and the suite's
plane checks all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, frexp, ldexp, prod

import numpy as np

from .exterior import (
    AlgebraContext,
    insertion_sign,
    mask_ranks,
    merge_sign,
    rank_index,
    subset_masks,
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
    "plane_values",
    "orthonormalize",
    "decomposable_coefficients",
]

#: Norm below which DoubleForm.norm scales the entries up.  Above it, a
#: form of at most 2**20 entries has a largest square of at least 2**-920,
#: so the squares that underflow cannot move the sum.
_TINY_NORM = 2.0 ** -450


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
        """The Frobenius norm.  When the sum of squares overflows on finite
        entries, or the norm lies below 2**-450, where squares of entries
        can underflow, it is taken on the coefficients times 2**-e, e the
        exponent of the largest entry, and scaled back, without a warning;
        it is inf only past the float range, and 0 only for a zero form."""
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(self.coeffs))
        if (norm == np.inf and np.isfinite(self.coeffs).all()) or norm < _TINY_NORM:
            shift = frexp(float(np.max(np.abs(self.coeffs), initial=0.0)))[1]
            try:
                norm = ldexp(float(np.linalg.norm(np.ldexp(self.coeffs, -shift))), shift)
            except OverflowError:
                pass
        return norm

    def transpose(self) -> "DoubleForm":
        return DoubleForm(self.q, self.p, self.coeffs.T, self.ctx)

    def is_symmetric(self) -> bool:
        """Whether the form is (p,p) with an exactly symmetric matrix."""
        return self.p == self.q and bool(np.array_equal(self.coeffs, self.coeffs.T))

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
    K = subset_masks(n, p1)[:, None]
    # the members outside each K, ascending, and the p2 of them that each
    # column picks: the columns list the I disjoint from K lexicographically
    rest = np.nonzero((~K >> np.arange(n)) & 1)[1].reshape(len(K), n - p1)
    I = (1 << rest[:, _member_table(n - p1, p2)]).sum(axis=2)
    ranks = mask_ranks(n)
    src, dst = ranks[I], ranks[K | I]
    sign = merge_sign(K, I).astype(float)
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
    I = subset_masks(n, k)[:, None]
    m = np.arange(1, n + 1)
    sgn = insertion_sign(m, I).astype(float)
    idx = np.where(sgn != 0, mask_ranks(n)[I | (1 << (m - 1))], -1)
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
    """For each d-subset K: rank of K^c among (n-d)-subsets, and the sign
    of e_K ^ e_{K^c}; the one column of the shuffle table (n, d, n-d)."""
    src, _, sign = _split_tensor(n, d, n - d)
    return src[:, 0], sign[:, 0]


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
    masks = subset_masks(n, k)
    members = np.nonzero((masks[:, None] >> np.arange(n)) & 1)[1].reshape(len(masks), k)
    members.setflags(write=False)
    return members


@lru_cache(maxsize=None)
def _removal_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """For each k-subset X and position j: rank of X without x_j, and x_j - 1."""
    members = _member_table(n, k)
    idx = mask_ranks(n)[subset_masks(n, k)[:, None] ^ (1 << members)]
    idx.setflags(write=False)
    return idx, members


#: Output entries in one block of rows of bianchi_map, at least one row;
#: the block's three buffers stay small enough to sit in cache.
_BIANCHI_BLOCK = 2 ** 15


def bianchi_map(w: DoubleForm) -> DoubleForm:
    """First Bianchi map b: (p,q) -> (p+1, q-1),

        b(w)(x_1..x_{p+1}; Y) = sum_j (-1)^j w(x_1..^x_j..x_{p+1}; x_j ^ Y),

    on increasing basis tuples; zero exactly on the Bianchi subalgebra.
    Every output entry adds its terms in the order of j, one block of
    output rows at a time: the lift ranks and signs of each term are rows
    of the transposed lift table, and its values one flat gather from w.
    """
    if w.q < 1:
        raise ValueError(f"Bianchi map needs q >= 1, got degree {w.degree}")
    ctx = w.ctx
    n = ctx.n
    out = np.zeros((ctx.dim(w.p + 1), ctx.dim(w.q - 1)))
    rows, removed = _removal_table(n, w.p + 1)
    lift, lift_sign = _lift_table(n, w.q - 1)
    # rows by the inserted x_j, so each position j gathers whole rows
    lift, lift_sign = np.ascontiguousarray(lift.T), np.ascontiguousarray(lift_sign.T)
    # w with a zero column appended, read by one flat gather: where x_j
    # lies in Y the lift rank is -1 and its sign 0, and the flat index
    # row * width - 1 lands on the zero pad ending the row before (the
    # last row's, through the wrap, for row 0), so a non-finite entry of
    # w cannot reach it
    width = w.coeffs.shape[1] + 1
    padded = np.concatenate([w.coeffs, np.zeros((len(w.coeffs), 1))], axis=1).ravel()
    # mode "wrap" reads index -1 as the last entry and, unlike the
    # default, gathers straight into the buffer
    step = max(1, _BIANCHI_BLOCK // out.shape[1])
    for start in range(0, len(out), step):
        block = out[start:start + step]
        block_rows, block_removed = rows[start:start + step], removed[start:start + step]
        sign, index, terms = np.empty(block.shape), np.empty(block.shape, dtype=np.int64), np.empty(block.shape)
        for j in range(w.p + 1):
            m = block_removed[:, j]
            lift_sign.take(m, axis=0, out=sign, mode="wrap")
            if j % 2 == 0:
                np.negative(sign, out=sign)
            lift.take(m, axis=0, out=index, mode="wrap")
            index += block_rows[:, j, None] * width
            padded.take(index, out=terms, mode="wrap")
            terms *= sign
            block += terms
    return DoubleForm(w.p + 1, w.q - 1, out, ctx)


def bianchi_residual(w: DoubleForm) -> float:
    """Largest absolute entry of the first Bianchi map of w."""
    return float(np.max(np.abs(bianchi_map(w).coeffs), initial=0.0))


# -- sectional curvature ---------------------------------------------------


#: Relative size below which a Gram-Schmidt pivot marks a degenerate span.
_PIVOT_TOL = 1e-8


def orthonormalize(vectors) -> np.ndarray:
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
        if pivot < _PIVOT_TOL * scale:
            raise ValueError(f"degenerate plane: vector {j} is dependent on the span")
        out[:, j] = v / pivot
    return out


def decomposable_coefficients(F: np.ndarray, ctx: AlgebraContext) -> np.ndarray:
    """Coordinates of f_1 ^ ... ^ f_p over the standard basis (p x p minors)."""
    F = np.asarray(F, dtype=float)
    return np.linalg.det(F[_member_table(ctx.n, F.shape[1])])


def plane_values(coeffs: np.ndarray, frames: np.ndarray, ctx: AlgebraContext) -> np.ndarray:
    """Values v.W.v of a (p,p) coefficient matrix W on a stack of orthonormal
    n x p frames (count, n, p), v the coordinates of each frame's p-vector.

    The minors are taken one frame at a time, so no (count, C(n,p), p, p)
    stack is built, and the quadratic forms are one matrix product of W,
    which is not copied.
    """
    V = np.empty((len(frames), coeffs.shape[0]))
    for v, F in zip(V, frames):
        v[:] = decomposable_coefficients(F, ctx)
    return ((V @ coeffs) * V).sum(-1)


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
    return float(plane_values(w.coeffs, orthonormalize(span)[None], w.ctx)[0])


# -- validated curvature tensors -------------------------------------------

#: Default relative tolerance on the Bianchi residual of curvature tensors.
BIANCHI_TOL = 1e-12

#: Entry size up to which a (2,2) form's norm cannot overflow: it sums at
#: most C(12, 2)**2 < 2**13 squares, each at most 2**1000.
_UNSCALED_BIANCHI_CHECK = 2.0 ** 500


def _bianchi_scaled(form: DoubleForm) -> tuple[DoubleForm, int]:
    """form times 2**-shift, and shift: 0 while no entry exceeds
    _UNSCALED_BIANCHI_CHECK, else the exponent of the largest entry, so that
    the result's norm, Bianchi map and Bianchi projection stay finite."""
    big = float(np.max(np.abs(form.coeffs), initial=0.0))
    if big <= _UNSCALED_BIANCHI_CHECK:
        return form, 0
    shift = frexp(big)[1]
    return DoubleForm(form.p, form.q, np.ldexp(form.coeffs, -shift), form.ctx), shift


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
            # residual and norm scale together, so a form near the float64
            # range is checked times a power of two that keeps both finite
            form, shift = _bianchi_scaled(self.form)
            residual = bianchi_residual(form)
            limit = self.bianchi_tol * form.norm()
            if not residual <= limit:
                raise BianchiViolation(
                    f"first Bianchi identity violated: residual {residual:.3e} "
                    f"exceeds {limit:.3e}" + (f" (both times 2**{-shift})" if shift else "")
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
