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

The basis tables (_split_tensor, _lift_table, _member_table), cached
read-only through exterior.cached_table, are row-major (C-contiguous)
arrays, so the index, cell and sign arrays the kernels build from them are
too.  Each is built as whole arrays, with no Python loop over subsets or
slots, from the bit masks of exterior.subset_masks: unions and removals
are mask operations, ranks are read off exterior.mask_ranks, and the signs
come from the broadcasting merge_sign (the shuffle table) and
insertion_sign (the lift table behind contraction and the Bianchi map), so
the product's table shares no code with the contraction's.  The lift table
is slot-major, one row per slot m, and _lift_stack reads it by rows.

metric_product, contract and star each run one private array kernel
(_metric_stack, _contract_stack, _star_stack) that takes a stack of
coefficient matrices, shape (..., C(n,p), C(n,q)).  The star reverses the
rows and columns and signs them; every other kernel reads its stack by
row and column through one member-major take, _gather, along the last
axis of the flattened members, a stack of one included, so the terms, and
every array made from them, are C-contiguous.  The products scatter their
terms with one bincount; the contraction and the first Bianchi map
(_bianchi_stack) share one kernel, _lift_stack, which adds each output
entry's terms in turn, in blocks of output rows, and caches nothing.  The DoubleForm functions pass a stack of
one; a stacked call gives every member the same terms, summed in the same
order, so its bits equal a single call's.  The checks of CurvatureTensor
(_check_curvature) take stacks the same way, so the suite checks a whole
stack of random curvature tensors in one call.  Every row sum of products
is one kernel, _pair_sums: numpy's pairwise sum of each member's products
laid out in one contiguous row, in an order numpy fixes, so none of these
sums depends on the BLAS thread count.  The norms (_norms), the Frobenius pairing and
the Gram-Schmidt steps of the plane checks take their sums from it;
DoubleForm.norm (_norm) and inner run it on a stack of one.

Forms are evaluated on planes by one function, plane_values: the values
v.W.v on a stack of orthonormal frames, v the frame's p x p minors.
sectional, weitzenboeck.spectrum, the sectional command and the suite's
plane checks all call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, frexp, prod

import numpy as np

from .exterior import (
    AlgebraContext,
    _as_int,
    _is_int,
    _per_block,
    cached_table,
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


def _exponent(coeffs: np.ndarray) -> int:
    """The exponent e of the largest |entry| of coeffs, which is m 2**e with
    1/2 <= m < 1; 0 when every entry is zero or there is none."""
    return frexp(float(np.max(np.abs(coeffs), initial=0.0)))[1]


def _norm(coeffs: np.ndarray) -> float:
    """The Frobenius norm of a coefficient matrix or vector, as
    DoubleForm.norm: _norms on a stack of one."""
    return float(_norms(np.reshape(coeffs, (1, 1, -1)))[0])


def _norms(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each member of a stack (members, rows, cols):
    the square root of its sum of squares (_pair_sums).  Members whose sum
    of squares is inf on finite entries, or below _TINY_NORM on nonzero
    ones, are scaled together by 2**-e, e the exponent of each one's largest
    entry, and scaled back."""
    with np.errstate(over="ignore"):
        norms = np.sqrt(_pair_sums(stack, stack))
        rescue = np.flatnonzero((norms == np.inf) | (norms < _TINY_NORM))
        if rescue.size:
            big = np.max(np.abs(stack[rescue]), axis=(1, 2), initial=0.0)
            finite = (big > 0) & (big < np.inf)
            rescue, shift = rescue[finite], np.frexp(big[finite])[1]
        if rescue.size:  # a zero or non-finite member is left as it is
            scaled = np.ldexp(stack[rescue], -shift[:, None, None])
            norms[rescue] = np.ldexp(np.sqrt(_pair_sums(scaled, scaled)), shift)
    return norms


def _pair_sums(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The sum of a * b over each pair of members of two stacks of equal
    shape (members, ...), as np.sum of the pair: the products of each member
    in one contiguous row, summed by numpy's pairwise sum in a fixed order.
    The package's one row sum: norms, the Frobenius pairing and the
    Gram-Schmidt steps all take theirs here."""
    products = np.ascontiguousarray(A * B)
    return products.reshape(len(A), -1).sum(axis=1)


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
        if not (_is_int(self.p) and _is_int(self.q)):
            raise ValueError(f"degrees must be integers, got ({self.p!r}, {self.q!r})")
        object.__setattr__(self, "p", int(self.p))
        object.__setattr__(self, "q", int(self.q))
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
        """Coefficient on the basis pair (e_I, e_J), I of p entries and J of q."""
        I, J = tuple(I), tuple(J)
        if (len(I), len(J)) != self.degree:
            raise ValueError(f"index degrees ({len(I)},{len(J)}) do not match a {self.degree} form")
        return float(self.coeffs[rank_index(I, self.ctx), rank_index(J, self.ctx)])

    def norm(self) -> float:
        """The Frobenius norm.  When the sum of squares overflows on finite
        entries, or the norm of a nonzero form lies below 2**-450, where
        squares of entries can underflow, it is taken on the coefficients
        times 2**-e, e the exponent of the largest entry, and scaled back,
        without a warning; it is inf only past the float range, and 0 only
        for a zero form."""
        return _norm(self.coeffs)

    def transpose(self) -> "DoubleForm":
        return DoubleForm(self.q, self.p, self.coeffs.T, self.ctx)

    def is_symmetric(self) -> bool:
        """Whether the form is (p,p) with an exactly symmetric matrix."""
        return self.p == self.q and bool(np.array_equal(self.coeffs, self.coeffs.T))

    def symmetrized(self) -> "DoubleForm":
        if self.p != self.q:
            raise ValueError("only (p,p) forms can be symmetrized")
        return DoubleForm(self.p, self.q, 0.5 * self.coeffs + 0.5 * self.coeffs.T, self.ctx)

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
    k = _as_int(k, "metric power degree", 0, ctx.n)
    return DoubleForm(k, k, float(factorial(k)) * np.eye(ctx.dim(k)), ctx)


# -- exterior (Kulkarni-Nomizu) product --------------------------------


@cached_table
def _member_table(n: int, k: int) -> np.ndarray:
    """The members of every k-subset, zero-based, one row per subset; read in
    reverse, the members outside each (n-k)-subset (see exterior)."""
    masks = subset_masks(n, k)
    return (np.flatnonzero((masks[:, None] >> np.arange(n)) & 1) % n).reshape(len(masks), k)


@cached_table
def _split_tensor(n: int, p1: int, p2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shuffle signs of the exterior product, in sparse form.

    For each p1-subset K (rows) and each p2-subset I disjoint from K
    (columns, in lexicographic order of I): the rank of I, the rank of
    K u I and the sign of e_K ^ e_I."""
    K = subset_masks(n, p1)[:, None]
    # the members outside each K, ascending, and the p2 of them that each
    # column picks: the columns list the I disjoint from K lexicographically
    rest = _member_table(n, n - p1)[::-1]
    I = (1 << rest.take(_member_table(n - p1, p2), axis=1)).sum(axis=2)
    ranks = mask_ranks(n)
    src, dst = ranks[I], ranks[K | I]
    sign = merge_sign(K, I).astype(float)
    return src, dst, sign


def _scatter(cells: np.ndarray, terms: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Sum terms into the C-order cells of a shape-sized output, one output
    per member of the stack that the leading axes of terms (those beyond
    the axes of cells) index.  Each member's cells are offset by its
    position, so one bincount fills the whole stack and adds every
    member's terms in the order a stack of one would."""
    stack = terms.shape[:terms.ndim - cells.ndim]
    members, size = prod(stack), shape[0] * shape[1]
    if members > 1:  # a stack of one scatters into the table's own cells, not a copy
        cells = (np.arange(members) * size).reshape((-1,) + (1,) * cells.ndim) + cells
    out = np.bincount(cells.ravel(), weights=terms.ravel(), minlength=members * size)
    return out.reshape(stack + shape)


def _gather(coeffs: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """coeffs[..., rows, cols] for the stack (..., R, C), rows and cols
    broadcast against each other, shape (...) + their broadcast shape, with
    the members in the leading axes and each member's entries together in
    memory: one take along the last axis of the flattened members, a single
    form being a stack of one.  Every gather from a coefficient stack goes
    through it."""
    stack, index = coeffs.shape[:-2], rows * coeffs.shape[-1] + cols
    flat = coeffs.reshape(prod(stack), coeffs.shape[-2] * coeffs.shape[-1])
    return flat.take(index, axis=1).reshape(stack + index.shape)


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
    one member-major gather (_gather), scaled in place, and one scatter.
    Degrees beyond n give empty matrices.
    """
    P, Q = p1 + p2, q1 + q2
    shape = (comb(n, P), comb(n, Q))
    if P > n or Q > n:
        return np.zeros(coeffs.shape[:-2] + shape)
    srcI, dstI, sgnI = _split_tensor(n, p1, p2)
    srcJ, dstJ, sgnJ = _split_tensor(n, q1, q2)
    terms = _gather(coeffs, srcI[rows][:, :, None], srcJ[cols][:, None, :])
    terms *= (left * sgnI[rows])[:, :, None] * sgnJ[cols][:, None, :]
    cells = dstI[rows][:, :, None] * shape[1] + dstJ[cols][:, None, :]
    return _scatter(cells, terms, shape)


#: Terms one block of left-factor entries holds at most in kn_product; the
#: blocks are added in turn, so it fixes output bits, not a memory budget.
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
    k = _as_int(k, "metric power degree", 0, n)
    return DoubleForm(w.p + k, w.q + k, _metric_stack(k, w.coeffs, n, w.p, w.q), w.ctx)


# -- contraction --------------------------------------------------------


@cached_table
def _lift_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank and sign of e_m ^ e_I, slot-major: one row per slot m, one
    column per k-subset I; rank -1 and sign 0 where m lies in I.
    _lift_stack, behind the contraction and the Bianchi map, reads its
    rows m as the columns of its terms."""
    I = subset_masks(n, k)
    m = np.arange(1, n + 1)[:, None]
    sgn = insertion_sign(m, I).astype(float)
    idx = np.where(sgn != 0, mask_ranks(n)[I | (1 << (m - 1))], -1)
    return idx, sgn


def _lift_stack(coeffs: np.ndarray, n: int, q: int, rows: np.ndarray, members: np.ndarray,
                signs: np.ndarray) -> np.ndarray:
    """out[..., X, Y] = sum_j s sgn(m, Y) w[rows[j, X], rank(m ^ Y)] for each
    (p,q) coefficient matrix w of a stack (..., C(n,p), C(n,q)) and each
    (q-1)-subset Y, with m = members[j, X] (zero-based) and s = signs[j, X],
    +1.0 or -1.0: the one kernel of contraction and Bianchi map.

    Each output entry adds its terms in the order of j from +0.0, in blocks
    of output rows sized by exterior._per_block: one member-major gather
    (_gather) per block, its columns the rows m of the lift table.  Where m
    lies in Y the lift rank is -1 and the sign 0, so the term reads the
    entry before the row (at row 0, the member's last); a finite entry gives
    a zero term, which leaves the sum as it is, and when the stack may hold
    a non-finite entry (its sum is not finite) those terms are set to zero.
    """
    out = np.zeros(coeffs.shape[:-2] + (rows.shape[1], comb(n, q - 1)))
    if not coeffs.size:  # no entry to read: every term is zero
        return out
    lift, lift_sign = _lift_table(n, q - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = bool(np.isfinite(coeffs.sum()))
    step = _per_block(prod(coeffs.shape[:-2]) * len(members) * out.shape[-1])
    for start in range(0, rows.shape[1], step):
        block = slice(start, start + step)
        m = members[:, block]
        terms = _gather(coeffs, rows[:, block, None], lift[m])
        sign = lift_sign[m]
        sign *= signs[:, block, None]
        if not finite:
            terms[..., sign == 0] = 0.0
        terms *= sign
        sums = out[..., block, :]
        for j in range(len(members)):
            sums += terms[..., j, :, :]
    return out


def _contract_stack(coeffs: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """Contraction of each (p,q) coefficient matrix of a stack
    (..., C(n,p), C(n,q)): _lift_stack over the members m outside each
    (p-1)-subset x, ascending (the reversed _member_table), with the ranks
    and signs of m ^ x, so each entry adds its m terms in ascending m."""
    outside = _member_table(n, n - p + 1)[::-1].T.copy()
    x = np.arange(outside.shape[1])
    lift, lift_sign = _lift_table(n, p - 1)
    return _lift_stack(coeffs, n, q, lift[outside, x], outside, lift_sign[outside, x])


def contract(w: DoubleForm) -> DoubleForm:
    """Trace over a prepended slot: (cw)(x, y) = sum_m w(e_m ^ x, e_m ^ y)."""
    if w.p < 1 or w.q < 1:
        raise ValueError(f"cannot contract a {w.degree} form")
    return DoubleForm(w.p - 1, w.q - 1, _contract_stack(w.coeffs, w.ctx.n, w.p, w.q), w.ctx)


def contract_iter(w: DoubleForm, k: int) -> DoubleForm:
    """k-fold contraction; k = 0 returns the form unchanged."""
    out = w
    for _ in range(_as_int(k, "contraction count", 0, min(w.p, w.q))):
        out = contract(out)
    return out


# -- inner product, Hodge star ------------------------------------------


def inner(w1: DoubleForm, w2: DoubleForm) -> float:
    """Canonical scalar product (_pair_sums on a stack of one); blocks of
    different degree are orthogonal."""
    if w1.ctx != w2.ctx:
        raise ValueError(f"context mismatch: n={w1.ctx.n} vs n={w2.ctx.n}")
    if w1.degree != w2.degree:
        return 0.0
    return float(_pair_sums(w1.coeffs[None], w2.coeffs[None])[0])


@cached_table
def _complement_table(n: int, d: int) -> np.ndarray:
    """The sign of e_K ^ e_{K^c} for each d-subset K; K^c has rank C(n,d) - 1 - rank(K)."""
    K = subset_masks(n, d)
    return merge_sign(K, K ^ ((1 << n) - 1)).astype(float)


def _star_stack(coeffs: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """Hodge star of each (p,q) coefficient matrix of a stack
    (..., C(n,p), C(n,q)): (*w)[K, L] = sgn(K) sgn(L) w[K^c, L^c], that is w's
    rows and columns reversed (see exterior) times _complement_table's signs."""
    return coeffs[..., ::-1, ::-1] * np.outer(_complement_table(n, n - p), _complement_table(n, n - q))


def star(w: DoubleForm) -> DoubleForm:
    """Generalized Hodge star: (*w)(a, b) = w(*a, *b), degree (n-p, n-q)."""
    n = w.ctx.n
    return DoubleForm(n - w.p, n - w.q, _star_stack(w.coeffs, n, w.p, w.q), w.ctx)


# -- first Bianchi identity ----------------------------------------------


def _bianchi_stack(coeffs: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """First Bianchi map of each (p,q) coefficient matrix of a stack
    (members, C(n,p), C(n,q)), see bianchi_map: _lift_stack over the
    members x_j of each output row X, with the ranks of X without x_j (one
    mask XOR read through mask_ranks) and the signs -(-1)^j."""
    removed = _member_table(n, p + 1).T.copy()
    rows = mask_ranks(n)[subset_masks(n, p + 1) ^ (1 << removed)]
    signs = np.broadcast_to(-(-1.0) ** np.arange(p + 1)[:, None], rows.shape)
    return _lift_stack(coeffs, n, q, rows, removed, signs)


def bianchi_map(w: DoubleForm) -> DoubleForm:
    """First Bianchi map b: (p,q) -> (p+1, q-1),

        b(w)(x_1..x_{p+1}; Y) = sum_j (-1)^j w(x_1..^x_j..x_{p+1}; x_j ^ Y),

    on increasing basis tuples; zero exactly on the Bianchi subalgebra.
    One call of _bianchi_stack on a stack of one.
    """
    if w.q < 1:
        raise ValueError(f"Bianchi map needs q >= 1, got degree {w.degree}")
    out = _bianchi_stack(w.coeffs[None], w.ctx.n, w.p, w.q)[0]
    return DoubleForm(w.p + 1, w.q - 1, out, w.ctx)


def bianchi_residual(w: DoubleForm) -> float:
    """Largest absolute entry of the first Bianchi map of w."""
    return float(np.max(np.abs(bianchi_map(w).coeffs), initial=0.0))


# -- sectional curvature ---------------------------------------------------


#: Relative size below which a Gram-Schmidt pivot marks a degenerate span.
_PIVOT_TOL = 1e-8


def _orthonormal_stack(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt on each member of a stack (count, p, n) of p
    vectors: the frames (count, n, p) with orthonormal columns, and for each
    member the index of its first vector dependent on the span before it
    (pivot below _PIVOT_TOL times max(1, its norm)), or -1.

    Each step is one stacked operation over the members, whose dot products
    and norms are row sums (_pair_sums), so every member gets the bits of a
    stack of one.  A dependent member's steps past its first dependent
    vector divide by a tiny or zero pivot; their values are meant to be
    discarded, and raise no warning.
    """
    count, p, n = vectors.shape
    out = np.zeros((count, n, p))
    dependent = np.full(count, -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(p):
            v = vectors[:, j, :].copy()
            scale = np.maximum(np.sqrt(_pair_sums(v, v)), 1.0)
            for i in range(j):
                v -= _pair_sums(out[:, :, i], v)[:, None] * out[:, :, i]
            pivot = np.sqrt(_pair_sums(v, v))
            dependent[(pivot < _PIVOT_TOL * scale) & (dependent < 0)] = j
            out[:, :, j] = v / pivot[:, None]
    return out, dependent


def orthonormalize(vectors) -> np.ndarray:
    """Modified Gram-Schmidt; returns an n x p matrix with orthonormal columns
    (_orthonormal_stack on a stack of one).  Each vector is first scaled by
    2**-e, e the exponent of its largest entry, which is exact and spans
    the same plane, so vectors of any finite scale give the frame of their
    directions.

    Raises ValueError when the input is not a non-empty sequence of 1-D
    vectors of one length, when a vector has a non-finite entry, or when
    the input is (numerically) rank deficient.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    shapes = [v.shape for v in vectors]
    if not vectors or len(shapes[0]) != 1 or len(set(shapes)) != 1:
        raise ValueError(f"expected a non-empty sequence of 1-D vectors of one length, got shapes {shapes}")
    F = np.array(vectors).T
    if not np.isfinite(F).all():
        raise ValueError("spanning vectors must have finite entries")
    F = np.ldexp(F, -np.frexp(np.max(np.abs(F), axis=0, initial=0.0))[1])
    out, dependent = _orthonormal_stack(F[None].transpose(0, 2, 1))
    if dependent[0] >= 0:
        raise ValueError(f"degenerate plane: vector {dependent[0]} is dependent on the span")
    return out[0]


def decomposable_coefficients(F: np.ndarray, ctx: AlgebraContext) -> np.ndarray:
    """Coordinates of f_1 ^ ... ^ f_p over the standard basis (p x p minors),
    for an n x p matrix F or for each member of a stack (..., n, p)."""
    F = np.asarray(F, dtype=float)
    return np.linalg.det(np.take(F, _member_table(ctx.n, F.shape[-1]), axis=-2))


def plane_values(coeffs: np.ndarray, frames: np.ndarray, ctx: AlgebraContext) -> np.ndarray:
    """Values v.W.v of a (p,p) coefficient matrix W on a stack of orthonormal
    n x p frames (count, n, p), v the coordinates of each frame's p-vector.

    The minors are decomposable_coefficients of one block of frames at a
    time, its (frames, C(n,p), p, p) matrices sized by exterior._per_block,
    so the whole (count, C(n,p), p, p) stack is never built.  The quadratic
    forms are one matrix product of W, which is not copied.
    """
    count, p = len(frames), frames.shape[2]
    V = np.empty((count, coeffs.shape[0]))
    step = _per_block(coeffs.shape[0] * p * p)
    for start in range(0, count, step):
        V[start:start + step] = decomposable_coefficients(frames[start:start + step], ctx)
    return ((V @ coeffs) * V).sum(-1)


def sectional(w: DoubleForm, span) -> float:
    """Value of a symmetric (p,p) form on the p-plane spanned by the input,
    p vectors of n coordinates each.

    The span is orthonormalized first, so the result only depends on the
    plane, not the chosen spanning vectors.
    """
    if w.p != w.q:
        raise ValueError(f"sectional curvature needs a (p,p) form, got {w.degree}")
    span = [np.asarray(v, dtype=float) for v in span]
    if len(span) != w.p:
        raise ValueError(f"expected {w.p} spanning vectors, got {len(span)}")
    if any(v.shape != (w.ctx.n,) for v in span):
        raise ValueError(f"spanning vectors must have {w.ctx.n} coordinates")
    if w.p == 0:
        return w.scalar()
    return float(plane_values(w.coeffs, orthonormalize(span)[None], w.ctx)[0])


# -- validated curvature tensors -------------------------------------------

#: Default relative tolerance on the Bianchi residual of curvature tensors.
BIANCHI_TOL = 1e-12

#: Entry size up to which a (2,2) form's norm cannot overflow: it sums at
#: most C(12, 2)**2 < 2**13 squares, each at most 2**1000.
_UNSCALED_BIANCHI_CHECK = 2.0 ** 500


def _bianchi_scaled(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix of a stack (members, rows, cols) times 2**-shift, and the
    shifts: 0 while no entry of the matrix exceeds _UNSCALED_BIANCHI_CHECK,
    else the exponent of its largest entry, so that its norm, Bianchi map and
    Bianchi projection stay finite.  A stack that needs no shift is returned
    as it is."""
    big = np.max(np.abs(coeffs), axis=(1, 2), initial=0.0)
    shifts = np.where(big > _UNSCALED_BIANCHI_CHECK, np.frexp(big)[1], 0)
    if not shifts.any():
        return coeffs, shifts
    return np.ldexp(coeffs, -shifts.reshape(-1, 1, 1)), shifts


class BianchiViolation(ValueError):
    """A (2,2) form fails the first Bianchi identity at the requested tolerance."""


def _check_curvature(coeffs: np.ndarray, n: int, tol: float) -> None:
    """Check a stack (members, C(n,2), C(n,2)) of symmetric (2,2)
    coefficient matrices as CurvatureTensor does: the stack must be finite
    and exactly symmetric, and for a finite tol each member's Bianchi
    residual must not exceed tol times its norm.  The first member over its
    limit raises, with the message a CurvatureTensor of it would give.  The
    residuals are one call of _bianchi_stack and the norms one of _norms,
    which gives each member _norm's bits, so every member gets the numbers a
    stack of one would.
    """
    if not np.isfinite(coeffs).all():
        raise ValueError("curvature tensor has non-finite entries")
    if not (coeffs == coeffs.transpose(0, 2, 1)).all():
        raise ValueError("curvature tensor matrix must be exactly symmetric")
    if np.isfinite(tol):
        # residual and norm scale together, so a form near the float64
        # range is checked times a power of two that keeps both finite
        scaled, shifts = _bianchi_scaled(coeffs)
        residuals = np.max(np.abs(_bianchi_stack(scaled, n, 2, 2)), axis=(1, 2), initial=0.0)
        for residual, norm, shift in zip(residuals, _norms(scaled).tolist(), shifts.tolist()):
            limit = tol * norm
            if not residual <= limit:
                raise BianchiViolation(
                    f"first Bianchi identity violated: residual {residual:.3e} "
                    f"exceeds {limit:.3e}" + (f" (both times 2**{-shift})" if shift else "")
                )


@dataclass(frozen=True, eq=False)
class CurvatureTensor:
    """A symmetric (2,2) double form satisfying the first Bianchi identity.

    The wrapped form must be finite and exactly symmetric (symmetrize
    first if necessary); the Bianchi residual must not exceed bianchi_tol
    times the norm, else BianchiViolation is raised.  Pass
    bianchi_tol=float("inf") to skip that check, e.g. for raw file input
    that will only be inspected.  The checks are _check_curvature's on a
    stack of one.
    """

    form: DoubleForm
    bianchi_tol: float = BIANCHI_TOL

    def __post_init__(self) -> None:
        if self.form.degree != (2, 2):
            raise ValueError(f"curvature tensor must be a (2,2) form, got {self.form.degree}")
        _check_curvature(self.form.coeffs[None], self.form.ctx.n, self.bianchi_tol)

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
