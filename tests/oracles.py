"""Independent brute-force oracles used to pin expected test values.

Everything here deliberately avoids the package's production code paths:
products are evaluated by the literal permutation sum with factorial
prefactors, ranks by plain enumeration, and eigenvalues come from numpy's
LAPACK wrappers.
"""

import itertools
from math import factorial

import numpy as np

from doubleforms.exterior import subsets
from doubleforms.forms import DoubleForm


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
