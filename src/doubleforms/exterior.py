"""Combinatorics of the standard basis of the exterior algebra of R^n.

Basis p-vectors e_I = e_{i_1} ^ ... ^ e_{i_p} are addressed by strictly
increasing tuples of integers in [1, n], ordered lexicographically.  Every
dense coefficient matrix in this package uses that ordering on both axes,
so ranking and the sign bookkeeping for merges and
insertions are centralized here.  The tuple API (subsets, rank_index,
validate_index) is the package's public boundary, and subsets is the
independent enumeration the tests check the mask tables against.

The array kernels address subsets by int64 bit masks, bit i - 1 for the
member i.  Two cached tables translate: subset_masks(n, k) lists the masks
of the k-subsets in lexicographic order, and mask_ranks(n) maps each of
the 2**n masks to its rank among the subsets of its size.  merge_sign and
insertion_sign take masks and broadcast over arrays, so the kernels'
tables are built as whole arrays; a tuple argument is read as its mask.
Complementation reverses the lexicographic order: rank(K^c) = C(n,k) - 1 -
rank(K) for every k-subset K, since the first member where two subsets
differ lies in just one of them, and so in the other one's complement.

cached_table is the package's one cache of basis tables: it makes each
array a table returns read-only, since every caller shares it; _per_block
sizes the blocks of every loop whose block size cannot change a result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, wraps
from math import comb

import numpy as np

MultiIndex = tuple[int, ...]

# Clifford coefficient vectors have 2**n entries; keep things desk-scale.
MAX_DIMENSION = 12


def _is_int(value) -> bool:
    """The package's rule for a degree, a count or a dimension: a Python or
    numpy integer, and not a boolean (True is an int equal to 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_int(value, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """value as an int if it meets _is_int and lies in [lo, hi], else
    ValueError naming it; a bound left as None is no bound.  The package's
    one check of a degree, an order, a count or a dimension."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {span}, got {value}")
    return value


@dataclass(frozen=True)
class AlgebraContext:
    """Dimension n of the underlying Euclidean space, fixed for a session."""

    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _as_int(self.n, "dimension", 1, MAX_DIMENSION))

    def dim(self, p: int) -> int:
        """Number of basis p-vectors, C(n, p)."""
        return comb(self.n, p)


def cached_table(build):
    """build as a basis table: lru_cache(maxsize=None) around it, and the
    array it returns, or each array of a returned tuple, made read-only on
    each build, so that no caller can change the shared table."""

    @lru_cache(maxsize=None)
    @wraps(build)
    def table(*args):
        out = build(*args)
        for a in out if isinstance(out, tuple) else (out,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return out

    return table


#: Entries one block's temporaries hold at most, in every loop whose block
#: size cannot change a result; read only through _per_block.
_BLOCK_ENTRIES = 2 ** 16


def _per_block(entries: int) -> int:
    """Items of entries entries each that one block holds, at least one; the
    budget is read at call time, so one change moves every blocked loop."""
    return max(1, _BLOCK_ENTRIES // max(1, entries))


@cached_table
def subsets(n: int, p: int) -> tuple[MultiIndex, ...]:
    """All strictly increasing p-tuples over {1..n}, in lexicographic order."""
    if p < 0:
        return ()
    return tuple(itertools.combinations(range(1, n + 1), p))


@cached_table
def _mask_sizes(n: int) -> np.ndarray:
    """Number of members of every subset mask of {1..n}."""
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        sizes += (masks >> b) & 1
    return sizes


@cached_table
def mask_ranks(n: int) -> np.ndarray:
    """Rank of every subset mask of {1..n} among the subsets of its size.

    Read with the member 1 as its top bit, a mask orders the k-subsets in
    reverse lexicographic order: the first member where two subsets
    differ is the highest bit where their masks differ.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    top_first = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        top_first |= ((masks >> b) & 1) << (n - 1 - b)
    sizes = _mask_sizes(n)
    order = np.lexsort((-top_first, sizes))
    starts = np.cumsum([0] + [comb(n, k) for k in range(n)])
    ranks = np.empty(1 << n, dtype=np.int64)
    ranks[order] = np.arange(1 << n) - starts[sizes[order]]
    return ranks


@cached_table
def subset_masks(n: int, k: int) -> np.ndarray:
    """Bit masks of the k-subsets of {1..n}, in lexicographic order."""
    chosen = np.flatnonzero(_mask_sizes(n) == k)
    masks = np.empty(len(chosen), dtype=np.int64)
    masks[mask_ranks(n)[chosen]] = chosen
    return masks


def _mask(I) -> np.ndarray:
    """I as int64 bit masks: a tuple of members becomes its mask, an int."""
    if isinstance(I, tuple):
        return sum(1 << (i - 1) for i in I)
    return np.asarray(I, dtype=np.int64)


def _parity(masks: np.ndarray) -> np.ndarray:
    """Parity of the number of members of each mask, 0 or 1."""
    for shift in (32, 16, 8, 4, 2, 1):
        masks = masks ^ (masks >> shift)
    return masks & 1


def validate_index(I, ctx: AlgebraContext) -> MultiIndex:
    """Normalize I to a tuple of ints and check it addresses a basis element
    of ctx; entries must be Python or numpy integers, not booleans."""
    I = tuple(I)
    if not all(map(_is_int, I)):
        raise ValueError(f"index entries must be integers: {I}")
    I = tuple(map(int, I))
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
    return int(mask_ranks(ctx.n)[_mask(I)])


def merge_sign(I, J):
    """Sign of sorting the concatenation (I, J); both halves already sorted.

    (-1) to the number of pairs i in I, j in J with i > j.  I and J are
    tuples of members or int64 masks, which broadcast against each other;
    a scalar call gives an int.
    """
    # bit b of above: parity of the members of I above bit b
    above = _mask(I) >> 1
    for shift in (1, 2, 4, 8, 16, 32):
        above = above ^ (above >> shift)
    signs = 1 - 2 * _parity(_mask(J) & above)
    return int(signs) if np.ndim(signs) == 0 else signs


def insertion_sign(m, I):
    """Sign of e_m ^ e_I, 0 where m already occurs in I.

    m (members) and I (tuples of members or int64 masks) broadcast against
    each other; a scalar call gives an int, or None when m occurs in I.
    """
    bit = np.int64(1) << (np.asarray(m, dtype=np.int64) - 1)
    masks = _mask(I)
    signs = np.where(masks & bit, 0, 1 - 2 * _parity(masks & (bit - 1)))
    if np.ndim(signs) == 0:
        return int(signs) or None
    return signs
