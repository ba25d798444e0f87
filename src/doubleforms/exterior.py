"""Combinatorics of the standard basis of the exterior algebra of R^n.

Basis p-vectors e_I = e_{i_1} ^ ... ^ e_{i_p} are addressed by strictly
increasing tuples of integers in [1, n], ordered lexicographically.  Every
dense coefficient matrix in this package uses that ordering on both axes,
so ranking, unranking and the sign bookkeeping for merges and
insertions are centralized here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

MultiIndex = tuple[int, ...]

# Clifford coefficient vectors have 2**n entries; keep things desk-scale.
MAX_DIMENSION = 12


@dataclass(frozen=True)
class AlgebraContext:
    """Dimension n of the underlying Euclidean space, fixed for a session."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_DIMENSION:
            raise ValueError(
                f"dimension must be an integer in [1, {MAX_DIMENSION}], got {self.n!r}"
            )

    def dim(self, p: int) -> int:
        """Number of basis p-vectors, C(n, p)."""
        return comb(self.n, p)


@lru_cache(maxsize=None)
def subsets(n: int, p: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing p-tuples over {1..n}, in lexicographic order."""
    if p < 0:
        return ()
    return tuple(itertools.combinations(range(1, n + 1), p))


@lru_cache(maxsize=None)
def _ranks(n: int, p: int) -> dict[MultiIndex, int]:
    return {I: r for r, I in enumerate(subsets(n, p))}


def validate_index(I, ctx: AlgebraContext) -> MultiIndex:
    """Normalize I to a tuple and check it addresses a basis element of ctx."""
    I = tuple(int(i) for i in I)
    if len(I) > ctx.n:
        raise ValueError(f"degree {len(I)} exceeds dimension {ctx.n}")
    if any(not 1 <= i <= ctx.n for i in I):
        raise ValueError(f"index entries must lie in [1, {ctx.n}]: {I}")
    if any(a >= b for a, b in zip(I, I[1:])):
        raise ValueError(f"multi-index must be strictly increasing: {I}")
    return I


def rank_index(I, ctx: AlgebraContext) -> int:
    """Position of I in the lexicographic order of len(I)-subsets of {1..n}."""
    I = validate_index(I, ctx)
    return _ranks(ctx.n, len(I))[I]


def unrank_index(r: int, p: int, ctx: AlgebraContext) -> MultiIndex:
    """Inverse of rank_index."""
    if not 0 <= p <= ctx.n:
        raise ValueError(f"degree must be in [0, {ctx.n}], got {p}")
    table = subsets(ctx.n, p)
    if not 0 <= r < len(table):
        raise ValueError(f"rank {r} out of range [0, {len(table)}) for degree {p}")
    return table[r]


def merge_sign(I: MultiIndex, J: MultiIndex) -> int:
    """Sign of sorting the concatenation (I, J); both halves already sorted."""
    inversions = sum(1 for i in I for j in J if i > j)
    return -1 if inversions % 2 else 1


def insertion_sign(m: int, I: MultiIndex) -> int | None:
    """Sign of e_m ^ e_I, or None when m already occurs in I."""
    if m in I:
        return None
    below = sum(1 for i in I if i < m)
    return -1 if below % 2 else 1
