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
left factor, in blocks of at most _PRODUCT_BLOCK terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import AlgebraContext, validate_index

__all__ = [
    "CliffordElement",
    "zero_element",
    "basis_vector",
    "basis_element",
    "from_vector",
    "clifford_mul",
    "interior",
    "wedge_generator",
    "ad",
    "dot",
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

    def degree_component(self, k: int) -> "CliffordElement":
        """Restriction to coefficients of size-k subsets."""
        mask = _popcounts(self.ctx.n) == k
        return CliffordElement(np.where(mask, self.coeffs, 0.0), self.ctx)

    def degrees(self) -> set[int]:
        """Subset sizes carrying a nonzero coefficient."""
        pops = _popcounts(self.ctx.n)
        return {int(k) for k in np.unique(pops[self.coeffs != 0.0])}

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


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    out = np.array([bin(s).count("1") for s in range(2 ** n)], dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _lower_parity(n: int, i: int) -> np.ndarray:
    """(-1)**(number of generators below i present in each subset)."""
    lower = (1 << (i - 1)) - 1
    counts = np.array([bin(s & lower).count("1") for s in range(2 ** n)], dtype=np.int64)
    out = np.where(counts % 2 == 0, 1.0, -1.0)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _generator_table(n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and source sign for left multiplication by e_i."""
    bit = 1 << (i - 1)
    size = 2 ** n
    idx = np.arange(size) ^ bit
    parity = _lower_parity(n, i)
    has_bit = (np.arange(size) & bit) != 0
    # e_i . e_S lands on S xor {i}; an extra -1 appears when i was in S.
    sign_src = np.where(has_bit, -parity, parity)
    idx.setflags(write=False)
    sign_src.setflags(write=False)
    return idx, sign_src


@lru_cache(maxsize=None)
def _sign_masks(n: int) -> np.ndarray:
    """D_A for every subset mask A, so that e_A . e_B = (-1)^parity(B & D_A) e_{A xor B}."""
    masks = np.arange(2 ** n)
    out = np.zeros(2 ** n, dtype=np.int64)
    above = np.zeros(2 ** n, dtype=np.int64)  # parity of the elements of A above j
    for j in range(n, 0, -1):
        present = (masks >> (j - 1)) & 1
        out |= (present ^ above) << (j - 1)
        above ^= present
    out.setflags(write=False)
    return out


#: Terms one block of left-factor rows holds at most in clifford_mul.
_PRODUCT_BLOCK = 2 ** 16


def zero_element(ctx: AlgebraContext) -> CliffordElement:
    return CliffordElement(np.zeros(2 ** ctx.n), ctx)


def basis_vector(ctx: AlgebraContext, i: int) -> CliffordElement:
    return basis_element(ctx, (i,))


def basis_element(ctx: AlgebraContext, I) -> CliffordElement:
    """e_{i_1} . ... . e_{i_p} for increasing I; equals the basis wedge."""
    I = validate_index(I, ctx)
    vec = np.zeros(2 ** ctx.n)
    mask = 0
    for i in I:
        mask |= 1 << (i - 1)
    vec[mask] = 1.0
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


def clifford_mul(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Associative bilinear product with e.f = e ^ f - g(e, f) on vectors.

    Sums a[A] e_A . b over the nonzero rows A of a in mask order; within a
    block of rows the terms of each entry are added in that order.
    """
    a._check_same(b)
    n = a.ctx.n
    size = 2 ** n
    flips, signs = _sign_masks(n), _lower_parity(n, n + 1)  # (-1)^|S| for every subset S
    targets = np.arange(size)
    rows = np.nonzero(a.coeffs)[0]
    step = max(1, _PRODUCT_BLOCK // size)
    out = np.zeros(size)
    for start in range(0, len(rows), step):
        A = rows[start:start + step, None]
        B = A ^ targets  # e_A . e_B lands on A xor B, the column's target
        out += (a.coeffs[A] * (signs[B & flips[A]] * b.coeffs[B])).sum(axis=0)
    return CliffordElement(out, a.ctx)


def wedge_generator(i: int, a: CliffordElement) -> CliffordElement:
    """Exterior multiplication e_i ^ a."""
    n = a.ctx.n
    bit = 1 << (i - 1)
    size = 2 ** n
    parity = _lower_parity(n, i)
    has_bit = (np.arange(size) & bit) != 0
    out = np.zeros(size)
    src = np.arange(size) ^ bit
    out[has_bit] = (parity[src] * a.coeffs[src])[has_bit]
    return CliffordElement(out, a.ctx)


def interior(i: int, a: CliffordElement) -> CliffordElement:
    """Interior product i_{e_i}, the adjoint of wedging with e_i."""
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


def dot(a: CliffordElement, b: CliffordElement) -> float:
    """Frobenius pairing on the subset basis (each basis subset has norm 1)."""
    a._check_same(b)
    return float(np.dot(a.coeffs, b.coeffs))
