"""Clifford algebra of Euclidean R^n over the subset basis.

Elements are dense vectors of length 2**n indexed by subset bitmasks
(bit i-1 set means generator e_i present); the basis element of a subset
equals the wedge of its generators in increasing order, which identifies
the algebra with the exterior algebra as a vector space.  The product is
fixed by e.w = e ^ w - i_e(w), so e_i . e_i = -1.

Products use the sign rule e_A . e_B = (-1)^parity(B & D_A) e_{A xor B}:
bit j-1 of D_A is set when j lies in A (e_j . e_j = -1), xor'd with the
parity of the number of elements of A above j (the anticommutations that
carry e_j into place).  clifford_mul is one gather over the support of its
left factor, in blocks of at most _PRODUCT_BLOCK terms; _mul_stack runs
it on a stack of pairs of elements at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exterior import AlgebraContext, _mask, _parity, cached_table, validate_index

__all__ = [
    "CliffordElement",
    "zero_element",
    "basis_vector",
    "basis_element",
    "from_vector",
    "clifford_mul",
    "interior",
    "ad",
]


@dataclass(frozen=True, eq=False)
class CliffordElement:
    """Coefficient vector over all 2**n subsets of {1..n}."""

    coeffs: np.ndarray
    ctx: AlgebraContext

    def __post_init__(self) -> None:
        vec = np.asarray(self.coeffs, dtype=float)
        if vec.shape != (2 ** self.ctx.n,):
            raise ValueError(
                f"coefficient vector has shape {vec.shape}, expected ({2 ** self.ctx.n},)"
            )
        vec = vec.copy()
        vec.setflags(write=False)
        object.__setattr__(self, "coeffs", vec)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def _check_same(self, other: "CliffordElement") -> None:
        if self.ctx != other.ctx:
            raise ValueError(f"context mismatch: n={self.ctx.n} vs n={other.ctx.n}")

    def __add__(self, other: "CliffordElement") -> "CliffordElement":
        self._check_same(other)
        return CliffordElement(self.coeffs + other.coeffs, self.ctx)

    def __sub__(self, other: "CliffordElement") -> "CliffordElement":
        self._check_same(other)
        return CliffordElement(self.coeffs - other.coeffs, self.ctx)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(-self.coeffs, self.ctx)

    def __mul__(self, other):
        if isinstance(other, CliffordElement):
            return clifford_mul(self, other)
        return CliffordElement(self.coeffs * float(other), self.ctx)

    def __rmul__(self, other) -> "CliffordElement":
        return CliffordElement(self.coeffs * float(other), self.ctx)

    def __repr__(self) -> str:
        return f"CliffordElement(n={self.ctx.n}, norm={self.norm():.6g})"


@cached_table
def _lower_parity(n: int, i: int) -> np.ndarray:
    """(-1)**(number of generators below i present in each subset)."""
    return np.where(_parity(np.arange(2 ** n) & ((1 << (i - 1)) - 1)), -1.0, 1.0)


@cached_table
def _sign_masks(n: int) -> np.ndarray:
    """D_A for every subset mask A, so that e_A . e_B = (-1)^parity(B & D_A) e_{A xor B}."""
    masks = np.arange(2 ** n)
    out = np.zeros(2 ** n, dtype=np.int64)
    above = np.zeros(2 ** n, dtype=np.int64)  # parity of the elements of A above j
    for j in range(n, 0, -1):
        present = (masks >> (j - 1)) & 1
        out |= (present ^ above) << (j - 1)
        above ^= present
    return out


#: Terms one block of left-factor rows holds at most in clifford_mul; the
#: blocks are added in turn, so it fixes output bits, not a memory budget.
_PRODUCT_BLOCK = 2 ** 16


def zero_element(ctx: AlgebraContext) -> CliffordElement:
    return CliffordElement(np.zeros(2 ** ctx.n), ctx)


def basis_vector(ctx: AlgebraContext, i: int) -> CliffordElement:
    return basis_element(ctx, (i,))


def basis_element(ctx: AlgebraContext, I) -> CliffordElement:
    """e_{i_1} . ... . e_{i_p} for increasing I; equals the basis wedge."""
    I = validate_index(I, ctx)
    vec = np.zeros(2 ** ctx.n)
    vec[_mask(I)] = 1.0
    return CliffordElement(vec, ctx)


def from_vector(ctx: AlgebraContext, coords) -> CliffordElement:
    """Degree-1 element with the given coordinates over e_1..e_n."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (ctx.n,):
        raise ValueError(f"expected {ctx.n} coordinates, got shape {coords.shape}")
    vec = np.zeros(2 ** ctx.n)
    for i in range(ctx.n):
        vec[1 << i] = coords[i]
    return CliffordElement(vec, ctx)


def _mul_stack(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The products a[m] . b[m] of two stacks (members, 2**n) of coefficient
    vectors, whose left factors a[m] all have supports of one size.

    Member m sums a[m, A] e_A . b[m] over the nonzero entries A of a[m] in
    mask order, in blocks of step = _PRODUCT_BLOCK / 2**n entries: a
    block's terms are added entry by entry and the blocks are added to
    zeros in turn, so every member gets the bits a stack of one gives.  An
    entry's flat index F = m 2**n + A in the stack gives its terms' flat
    sources in b as F xor B: m 2**n only sets bits above those of A and B.
    Supports of different sizes raise ValueError.
    """
    size = 2 ** n
    flips, signs = _sign_masks(n), _lower_parity(n, n + 1)  # (-1)^|S| for every subset S
    targets = np.arange(size)
    members = len(a)
    a, b = a.reshape(-1), b.reshape(-1)
    flat = np.flatnonzero(a)
    counts = np.bincount(flat >> n, minlength=members)
    if (counts != counts.max(initial=0)).any():
        raise ValueError("the left factors' supports differ in size")
    support = flat.reshape(members, -1)  # row-major: each member's entries in mask order
    step = max(1, _PRODUCT_BLOCK // size)
    out = np.zeros((members, size))
    for start in range(0, support.shape[1], step):
        F = support[:, start:start + step, None]
        source = F ^ targets  # e_A . e_B lands on A xor B, the column's target
        terms = a[F] * (signs[source & flips[F & (size - 1)]] * b[source])
        out += terms.sum(axis=1)
    return out


def clifford_mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Associative bilinear product with e.f = e ^ f - g(e, f) on vectors.

    Sums a[A] e_A . b over the nonzero entries A of a in mask order
    (_mul_stack on a stack of one).
    """
    a._check_same(b)
    return CliffordElement(_mul_stack(a.coeffs[None], b.coeffs[None], a.ctx.n)[0], a.ctx)


def interior(i: int, a: CliffordElement) -> CliffordElement:
    """Interior product i_{e_i}, the adjoint of wedging with e_i."""
    (i,) = validate_index((i,), a.ctx)
    n = a.ctx.n
    bit = 1 << (i - 1)
    size = 2 ** n
    parity = _lower_parity(n, i)
    has_bit = (np.arange(size) & bit) != 0
    out = np.zeros(size)
    src = np.arange(size) | bit
    out[~has_bit] = (parity * a.coeffs[src])[~has_bit]
    return CliffordElement(out, a.ctx)


def ad(phi: CliffordElement, psi: CliffordElement) -> CliffordElement:
    """Commutator [phi, psi] = phi.psi - psi.phi."""
    return clifford_mul(phi, psi) - clifford_mul(psi, phi)
