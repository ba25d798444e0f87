"""Independent brute-force oracles used to pin expected test values.

Everything here deliberately avoids the package's production code paths:
products are evaluated by the literal permutation sum with factorial
prefactors or by contracting dense shuffle tensors with tensordot, ranks
by plain enumeration, the commutator sum through dense Clifford vectors,
contraction by one pass per slot index, and eigenvalues come from numpy's
LAPACK wrappers.
"""

import itertools
from functools import lru_cache
from math import comb, factorial, ldexp

import numpy as np

from doubleforms import clifford as cl
from doubleforms.exterior import AlgebraContext, subsets
from doubleforms.forms import _TINY_NORM, DoubleForm, _exponent, _lift_table
from doubleforms.tensorio import project_bianchi


def unrank_index(r: int, p: int, ctx: AlgebraContext):
    """Inverse of rank_index: the r-th p-subset in lexicographic order."""
    if not 0 <= p <= ctx.n:
        raise ValueError(f"degree must be in [0, {ctx.n}], got {p}")
    table = subsets(ctx.n, p)
    if not 0 <= r < len(table):
        raise ValueError(f"rank {r} out of range [0, {len(table)}) for degree {p}")
    return table[r]


def perm_sign(perm) -> int:
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b]:
                sign = -sign
    return sign


def sort_with_sign(indices):
    """Sort an index tuple, tracking the permutation sign; repeats give 0."""
    arr = list(indices)
    if len(set(arr)) != len(arr):
        return 0, None
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(arr)


def eval_on_basis_vectors(w: DoubleForm, xs, ys) -> float:
    """Evaluate a form on wedges of basis vectors given in any order."""
    sx, I = sort_with_sign(xs)
    if sx == 0:
        return 0.0
    sy, J = sort_with_sign(ys)
    if sy == 0:
        return 0.0
    return sx * sy * w.value(I, J)


def literal_kn_product(w1: DoubleForm, w2: DoubleForm) -> np.ndarray:
    """The permutation-sum exterior product, coefficient matrix only.

    Summation over all of S_{p+r} x S_{q+s} with the 1/(p! r! q! s!)
    prefactor; exponential cost, so keep n <= 4.
    """
    p, q = w1.p, w1.q
    r, s = w2.p, w2.q
    n = w1.ctx.n
    P, Q = p + r, q + s
    rows = subsets(n, P)
    cols = subsets(n, Q)
    out = np.zeros((len(rows), len(cols)))
    pref = 1.0 / (factorial(p) * factorial(r) * factorial(q) * factorial(s))
    for a, A in enumerate(rows):
        for b, B in enumerate(cols):
            total = 0.0
            for sig in itertools.permutations(range(P)):
                es = perm_sign(sig)
                x1 = [A[i] for i in sig[:p]]
                x2 = [A[i] for i in sig[p:]]
                for rho in itertools.permutations(range(Q)):
                    er = perm_sign(rho)
                    y1 = [B[i] for i in rho[:q]]
                    y2 = [B[i] for i in rho[q:]]
                    v1 = eval_on_basis_vectors(w1, x1, y1)
                    if v1 == 0.0:
                        continue
                    v2 = eval_on_basis_vectors(w2, x2, y2)
                    total += es * er * v1 * v2
            out[a, b] = pref * total
    return out


@lru_cache(maxsize=None)
def dense_split_tensor(n: int, p1: int, p2: int) -> np.ndarray:
    """T[A, I1, I2] = sign of splitting the (p1+p2)-subset A into (I1, I2),
    shape (C(n,p1+p2), C(n,p1), C(n,p2)); signs by sort_with_sign."""
    r1 = {I: r for r, I in enumerate(subsets(n, p1))}
    r2 = {I: r for r, I in enumerate(subsets(n, p2))}
    T = np.zeros((comb(n, p1 + p2), len(r1), len(r2)))
    for a, A in enumerate(subsets(n, p1 + p2)):
        for I1 in itertools.combinations(A, p1):
            I2 = tuple(i for i in A if i not in I1)
            T[a, r1[I1], r2[I2]] = sort_with_sign(I1 + I2)[0]
    T.setflags(write=False)
    return T


def dense_kn_product(w1: DoubleForm, w2: DoubleForm) -> np.ndarray:
    """The exterior product as three tensordots with dense shuffle tensors,
    coefficient matrix only; degrees beyond n give an empty matrix."""
    n = w1.ctx.n
    P, Q = w1.p + w2.p, w1.q + w2.q
    if P > n or Q > n:
        return np.zeros((comb(n, P), comb(n, Q)))
    Sx = dense_split_tensor(n, w1.p, w2.p)
    Sy = dense_split_tensor(n, w1.q, w2.q)
    t = np.tensordot(Sx, w1.coeffs, axes=([1], [0]))  # [A, I2, J1]
    t = np.tensordot(t, w2.coeffs, axes=([1], [0]))   # [A, J1, J2]
    return np.tensordot(t, Sy, axes=([1, 2], [1, 2]))  # [A, B]


def literal_bianchi_map(w: DoubleForm) -> np.ndarray:
    """The alternating first-Bianchi sum, coefficient matrix only:

    b(w)(x_1..x_{p+1}; Y) = sum_j (-1)^j w(x_1..^x_j..x_{p+1}; x_j, Y).
    """
    n = w.ctx.n
    rows = subsets(n, w.p + 1)
    cols = subsets(n, w.q - 1)
    out = np.zeros((len(rows), len(cols)))
    for a, X in enumerate(rows):
        for b, Y in enumerate(cols):
            for j in range(1, len(X) + 1):
                rest = X[:j - 1] + X[j:]
                out[a, b] += (-1) ** j * eval_on_basis_vectors(w, rest, (X[j - 1],) + Y)
    return out


def enumeration_rank(I, n: int) -> int:
    """Rank of a subset by explicit enumeration of all combinations."""
    every = list(itertools.combinations(range(1, n + 1), len(I)))
    return every.index(tuple(I))


def eigh_eigenvalues(matrix) -> np.ndarray:
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=float))


@lru_cache(maxsize=None)
def dense_ad_table(n: int, p: int) -> np.ndarray:
    """ad_{e_i.e_j} applied to every basis p-vector, as Clifford vectors.

    Shape (C(n,p), C(n,2), 2**n), built by clifford_mul; the pair axis
    follows the lexicographic order of 2-subsets.  Memory grows as 2**n,
    so keep n <= 9.
    """
    ctx = AlgebraContext(n)
    pairs = subsets(n, 2)
    phis = [
        cl.clifford_mul(cl.basis_vector(ctx, i), cl.basis_vector(ctx, j))
        for (i, j) in pairs
    ]
    table = np.zeros((comb(n, p), len(pairs), 2 ** n))
    for r, I in enumerate(subsets(n, p)):
        psi = cl.basis_element(ctx, I)
        for a, phi in enumerate(phis):
            table[r, a] = cl.ad(phi, psi).coeffs
    table.setflags(write=False)
    return table


def dense_definition(w: DoubleForm, p: int) -> np.ndarray:
    """The commutator sum (1/4) sum w[a,b] <ad_a e_I, ad_b e_J> over dense
    Clifford vectors, coefficient matrix only."""
    T = dense_ad_table(w.ctx.n, p)
    t = np.tensordot(w.coeffs, T, axes=([1], [1]))   # [a, J, x]
    N = np.tensordot(T, t, axes=([1, 2], [0, 2]))    # [I, J]
    N *= 0.25
    return (N + N.T) / 2.0


def loop_contract(w: DoubleForm) -> np.ndarray:
    """(cw)(x, y) = sum_m w(e_m ^ x, e_m ^ y), one np.ix_ pass per m."""
    n = w.ctx.n
    idxI, sgnI = _lift_table(n, w.p - 1)
    idxJ, sgnJ = _lift_table(n, w.q - 1)
    out = np.zeros((comb(n, w.p - 1), comb(n, w.q - 1)))
    for m in range(n):
        vi = idxI[m] >= 0
        vj = idxJ[m] >= 0
        block = w.coeffs[np.ix_(idxI[m, vi], idxJ[m, vj])]
        out[np.ix_(vi, vj)] += np.outer(sgnI[m, vi], sgnJ[m, vj]) * block
    return out


def drawn_factors(seed, ctx, terms):
    """The symmetric factors random_bianchi_22 draws, one n x n draw each."""
    rng = np.random.default_rng(seed)
    factors = []
    for _ in range(terms):
        raw = rng.standard_normal((ctx.n, ctx.n))
        factors.append(DoubleForm(1, 1, (raw + raw.T) / 2.0, ctx))
    return factors


def dense_square_sum(factors):
    """The sum of the squares h.h by dense_kn_product, symmetrized."""
    total = dense_kn_product(factors[0], factors[0])
    for h in factors[1:]:
        total = total + dense_kn_product(h, h)
    return (total + total.T) / 2.0


def _below(n: int, i: int) -> np.ndarray:
    """Number of generators below e_i present in each subset mask, by bin()."""
    return np.array([bin(s & ((1 << (i - 1)) - 1)).count("1") for s in range(2 ** n)])


@lru_cache(maxsize=None)
def generator_table(n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather index and source sign for left multiplication by e_i:
    e_i . e_S lands on S xor {i}, with (-1)^(members of S below i) and an
    extra -1 when i was in S."""
    bit = 1 << (i - 1)
    idx = np.arange(2 ** n) ^ bit
    has_bit = (np.arange(2 ** n) & bit) != 0
    sign_src = np.where(has_bit, -1.0, 1.0) * (-1.0) ** _below(n, i)
    idx.setflags(write=False)
    sign_src.setflags(write=False)
    return idx, sign_src


def loop_clifford_mul(a: cl.CliffordElement, b: cl.CliffordElement) -> np.ndarray:
    """The Clifford product by iterated left multiplication with single
    generators, e_S . b = e_{s_1} . (... (e_{s_k} . b)), one gather of
    generator_table per generator; coefficient vector only."""
    n = a.ctx.n
    out = np.zeros(2 ** n)
    for mask in np.nonzero(a.coeffs)[0]:
        vec = b.coeffs
        for i in range(n, 0, -1):
            if int(mask) & (1 << (i - 1)):
                idx, sign_src = generator_table(n, i)
                vec = sign_src[idx] * vec[idx]
        out += a.coeffs[mask] * vec
    return out


def wedge_generator(i: int, a: cl.CliffordElement) -> np.ndarray:
    """Exterior multiplication e_i ^ a: e_i ^ e_S = (-1)^(members of S below i)
    e_{S + {i}} when i is not in S, else 0; coefficient vector only."""
    bit = 1 << (i - 1)
    out = np.zeros(2 ** a.ctx.n)
    free = (np.arange(2 ** a.ctx.n) & bit) == 0
    out[np.nonzero(free)[0] | bit] = ((-1.0) ** _below(a.ctx.n, i) * a.coeffs)[free]
    return out


def grade(a: cl.CliffordElement, k: int) -> cl.CliffordElement:
    """The grade-k part of a: its coefficients on the k-subsets."""
    sizes = np.array([bin(s).count("1") for s in range(2 ** a.ctx.n)])
    return cl.CliffordElement(np.where(sizes == k, a.coeffs, 0.0), a.ctx)


# -- loop references for the mask-built basis tables ---------------------------
#
# The builders the package used before its tables were computed from bit
# masks: one Python pass per subset, signs from the tuple definitions below
# and ranks from a dictionary over the lexicographic enumeration.


def tuple_merge_sign(I, J) -> int:
    """Sign of sorting the concatenation (I, J) of sorted tuples: (-1) to
    the number of pairs i in I, j in J with i > j."""
    inversions = sum(1 for i in I for j in J if i > j)
    return -1 if inversions % 2 else 1


def tuple_insertion_sign(m: int, I):
    """Sign of e_m ^ e_I for a sorted tuple I, or None when m occurs in I."""
    if m in I:
        return None
    below = sum(1 for i in I if i < m)
    return -1 if below % 2 else 1


def _lex(n: int, k: int) -> list:
    return list(itertools.combinations(range(1, n + 1), k)) if k >= 0 else []


def _lex_ranks(n: int, k: int) -> dict:
    return {I: r for r, I in enumerate(_lex(n, k))}


def loop_subset_masks(n: int, k: int) -> np.ndarray:
    return np.array([sum(1 << (i - 1) for i in I) for I in _lex(n, k)], dtype=np.int64)


def loop_mask_ranks(n: int) -> np.ndarray:
    ranks = np.empty(2 ** n, dtype=np.int64)
    for k in range(n + 1):
        for r, I in enumerate(_lex(n, k)):
            ranks[sum(1 << (i - 1) for i in I)] = r
    return ranks


def loop_split_tensor(n: int, p1: int, p2: int):
    """forms._split_tensor: per p1-subset K and each p2-subset I disjoint
    from it, the rank of I, the rank of K u I and the sign of e_K ^ e_I."""
    small, big = _lex_ranks(n, p2), _lex_ranks(n, p1 + p2)
    shape = (comb(n, p1), comb(n - p1, p2))
    src = np.empty(shape, dtype=np.int64)
    dst = np.empty(shape, dtype=np.int64)
    sign = np.empty(shape)
    for r, K in enumerate(_lex(n, p1)):
        rest = [i for i in range(1, n + 1) if i not in K]
        for c, I in enumerate(itertools.combinations(rest, p2)):
            src[r, c] = small[I]
            dst[r, c] = big[tuple(sorted(K + I))]
            sign[r, c] = tuple_merge_sign(K, I)
    return src, dst, sign


def loop_lift_table(n: int, k: int):
    """forms._lift_table: rank and sign of e_m ^ e_I, one row per slot m;
    -1 and 0 for m in I."""
    subs, big = _lex(n, k), _lex_ranks(n, k + 1)
    idx = np.full((n, len(subs)), -1, dtype=np.int64)
    sgn = np.zeros((n, len(subs)))
    for r, I in enumerate(subs):
        for m in range(1, n + 1):
            s = tuple_insertion_sign(m, I)
            if s is not None:
                idx[m - 1, r] = big[tuple(sorted(I + (m,)))]
                sgn[m - 1, r] = s
    return idx, sgn


def loop_star(coeffs: np.ndarray, n: int, p: int, q: int) -> np.ndarray:
    """forms._star_stack, one entry at a time, of a stack (..., C(n,p), C(n,q)):
    (*w)[K, L] = sgn(K) sgn(L) w[K^c, L^c], with K^c ranked by enumeration
    and sgn(K) the sign of sorting K + K^c."""

    def complements(d):
        # rank of K^c among the d-subsets and sgn(K), per (n-d)-subset K
        ranks = _lex_ranks(n, d)
        rests = [(K, tuple(i for i in range(1, n + 1) if i not in K)) for K in _lex(n, n - d)]
        return [(ranks[rest], float(tuple_merge_sign(K, rest))) for K, rest in rests]

    rows, cols = complements(p), complements(q)
    out = np.empty(coeffs.shape[:-2] + (len(rows), len(cols)))
    for a, (r, s) in enumerate(rows):
        for b, (c, t) in enumerate(cols):
            out[..., a, b] = coeffs[..., r, c] * (s * t)
    return out


def loop_member_table(n: int, k: int) -> np.ndarray:
    subs = _lex(n, k)
    return np.array(subs, dtype=np.int64).reshape(len(subs), k) - 1


def loop_four_form_table(n: int) -> np.ndarray:
    """tensorio._four_form_table: per 4-subset abcd, as rows, the rank of
    abc, d - 1 and the ranks of ab, cd, ac, bd, ad, bc."""
    r2, r3 = _lex_ranks(n, 2), _lex_ranks(n, 3)
    rows = [
        (r3[(a, b, c)], d - 1, r2[(a, b)], r2[(c, d)], r2[(a, c)], r2[(b, d)], r2[(a, d)], r2[(b, c)])
        for a, b, c, d in _lex(n, 4)
    ]
    return np.array(rows, dtype=np.int64).reshape(-1, 8).T


def loop_bianchi_projector(n: int) -> np.ndarray:
    """tensorio.bianchi_projector built one unit matrix at a time: column k
    is project_bianchi of the k-th unit (2,2) coefficient matrix."""
    ctx = AlgebraContext(n)
    dim = ctx.dim(2)
    units = np.eye(dim * dim).reshape(-1, dim, dim)
    return np.array([project_bianchi(DoubleForm(2, 2, e, ctx)).coeffs.reshape(-1) for e in units]).T


def sorted_ad_table(n: int, p: int):
    """weitzenboeck._ad_table with each target ranked by a binary search
    among the sorted source masks in place of the shared mask lookup."""
    sources = np.array(_lex(n, p), dtype=np.int64).reshape(comb(n, p), p)
    pairs = np.array(_lex(n, 2), dtype=np.int64).reshape(comb(n, 2), 2)
    src = np.repeat(np.arange(len(sources)), len(pairs))
    pair = np.tile(np.arange(len(pairs)), len(sources))
    source_masks = (1 << (sources - 1)).sum(axis=1)
    S, E = source_masks[src], (1 << (pairs - 1)).sum(axis=1)[pair]
    flips, signs = cl._sign_masks(n), cl._lower_parity(n, n + 1)
    coef = signs[S & flips[E]] - signs[E & flips[S]]
    keep = np.nonzero(coef)[0]
    by_mask = np.argsort(source_masks)
    target = by_mask[np.searchsorted(source_masks[by_mask], S[keep] ^ E[keep])]
    order = keep[np.argsort(target, kind="stable")]
    shape = (len(sources), p * (n - p))
    return src[order].reshape(shape), pair[order].reshape(shape), coef[order].reshape(shape)


def loop_norm(coeffs: np.ndarray) -> float:
    """The Frobenius norm of one coefficient matrix, the square root of
    np.sum of its squares, rescaled by 2**-e, e the exponent of the largest
    entry, when the sum of squares is inf on finite entries or below
    _TINY_NORM on nonzero ones: the rule of DoubleForm.norm, one matrix at
    a time."""
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(coeffs * coeffs)))
    if (norm == np.inf and np.isfinite(coeffs).all()) or (norm < _TINY_NORM and coeffs.any()):
        shift = _exponent(coeffs)
        scaled = np.ldexp(coeffs, -shift)
        try:
            norm = ldexp(float(np.sqrt(np.sum(scaled * scaled))), shift)
        except OverflowError:
            pass
    return norm


def classical_weitzenboeck(coeffs: np.ndarray, n: int, p: int) -> np.ndarray:
    """The curvature term of the classical Weitzenboeck formula on p-forms,
    in index notation (Petersen, Riemannian Geometry, the Bochner chapter):

        (N w)_{i_1..i_p} = sum_k sum_a Ric_{i_k a} w_{..a..}
                           - sum_{k != l} sum_{a,b} R_{i_k a i_l b} w_{..a..b..},

    a in slot k and b in slot l, with R[i,j,k,l] = w(e_i ^ e_j, e_k ^ e_l)
    and Ric_{ik} = sum_j R[i,j,k,j].  coeffs is the (2,2) coefficient
    matrix, rows and columns in itertools.combinations order; the result is
    the (p,p) matrix in the same order.  It reads no table of the package:
    R is a dense n^4 array, each basis p-form e_J a dense antisymmetric n^p
    array, and each term one np.tensordot over the slots it sums, so keep
    C(n,p) n^p small (n <= 8, p <= n/2 at n = 8).
    """
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).reshape(comb(n, 2), 2)
    R = np.zeros((n, n, n, n))
    i, j = pairs[:, 0, None], pairs[:, 1, None]
    k, l = pairs[None, :, 0], pairs[None, :, 1]
    R[i, j, k, l], R[j, i, k, l], R[i, j, l, k], R[j, i, l, k] = coeffs, -coeffs, -coeffs, coeffs
    ric = np.einsum("ijkj->ik", R)
    basis = np.array(list(itertools.combinations(range(n), p)), dtype=np.int64).reshape(comb(n, p), p)
    forms = np.zeros((len(basis),) + (n,) * p)  # forms[J] is e_J as an antisymmetric array
    for perm in itertools.permutations(range(p)):
        forms[(np.arange(len(basis)), *basis[:, perm].T)] = perm_sign(perm)
    out = np.zeros_like(forms)
    for slot in range(p):  # the Ricci term, in slot k
        out += np.moveaxis(np.tensordot(ric, forms, axes=([1], [slot + 1])), 0, slot + 1)
    for k, l in itertools.permutations(range(p), 2):  # the curvature term, in slots k != l
        term = np.tensordot(R, forms, axes=([1, 3], [k + 1, l + 1]))
        out -= np.moveaxis(term, [0, 1], [k + 1, l + 1])
    # (N e_J)_I at sorted I is the entry [I, J]
    return out[(slice(None), *basis.T)].T
