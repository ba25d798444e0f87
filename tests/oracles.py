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
from math import comb, factorial

import numpy as np

from doubleforms import clifford as cl
from doubleforms.exterior import AlgebraContext, subsets
from doubleforms.forms import DoubleForm, _lift_table


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
        vi = idxI[:, m] >= 0
        vj = idxJ[:, m] >= 0
        block = w.coeffs[np.ix_(idxI[vi, m], idxJ[vj, m])]
        out[np.ix_(vi, vj)] += np.outer(sgnI[vi, m], sgnJ[vj, m]) * block
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


def loop_clifford_mul(a: cl.CliffordElement, b: cl.CliffordElement) -> np.ndarray:
    """The Clifford product by iterated left multiplication with single
    generators, e_S . b = e_{s_1} . (... (e_{s_k} . b)), one gather of
    clifford._generator_table per generator; coefficient vector only."""
    n = a.ctx.n
    out = np.zeros(2 ** n)
    for mask in np.nonzero(a.coeffs)[0]:
        vec = b.coeffs
        for i in range(n, 0, -1):
            if int(mask) & (1 << (i - 1)):
                idx, sign_src = cl._generator_table(n, i)
                vec = sign_src[idx] * vec[idx]
        out += a.coeffs[mask] * vec
    return out
