"""The closed form of N_p equals the commutator-sum oracle exactly on a set
that spans the algebraic curvature tensors.

N_p is linear in w, so np_formula(w) = np_definition(w) for every curvature
tensor exactly when the two agree on a spanning set.  The Kulkarni-Nomizu
products h.k of the elementary symmetric matrices E_ab + E_ba (a <= b) are
such a set (Gilkey, Geometric Properties of Natural Operators Defined by
the Riemann Curvature Tensor, 2001).  Their entries are small integers, and
scaled by (p-1)(p-2)! they make every division of the closed form exact, so
both sides are exact in float64 and must agree to the last bit.  The
generators are built here from index loops in plain numpy, not with
kn_product.
"""

from itertools import combinations, combinations_with_replacement
from math import comb, factorial

import numpy as np
import pytest

from doubleforms import forms
from doubleforms import weitzenboeck as wz

#: Gathered terms the oracle takes in one stacked call at most.
TERMS = 2 ** 21


def symmetric_units(n):
    """E_ab + E_ba for every a <= b, as n x n matrices."""
    units = []
    for a, b in combinations_with_replacement(range(n), 2):
        h = np.zeros((n, n))
        h[a, b] += 1.0
        h[b, a] += 1.0
        units.append(h)
    return units


def kn_pair(h, k, n):
    """The (2,2) coefficient matrix of the Kulkarni-Nomizu product of two
    symmetric matrices: at rows (i,j) and columns (a,b), i < j and a < b,
    h_ia k_jb + h_jb k_ia - h_ib k_ja - h_ja k_ib."""
    first, second = (np.array(side) for side in zip(*combinations(range(n), 2)))
    i, j, a, b = first[:, None], second[:, None], first[None, :], second[None, :]
    return h[i, a] * k[j, b] + h[j, b] * k[i, a] - h[i, b] * k[j, a] - h[j, a] * k[i, b]


def generators(n):
    """The nonzero products h.k of the symmetric units, one stack."""
    units = symmetric_units(n)
    products = [kn_pair(h, k, n) for h, k in combinations_with_replacement(units, 2)]
    return np.array([w for w in products if w.any()])


@pytest.mark.parametrize("n", range(4, 10))
def test_closed_form_equals_the_oracle_on_a_spanning_set(n):
    G = generators(n)
    assert not forms._bianchi_stack(G, n, 2, 2).any()
    flat, rank = G.reshape(len(G), -1), n * n * (n * n - 1) // 12
    assert np.linalg.matrix_rank(flat) == rank
    singular = np.linalg.svd(flat, compute_uv=False)
    # the margin of the rank: the smallest nonzero singular value over the
    # largest reads sqrt(0.3) = 0.548 for every n from 4 to 9
    assert singular[rank - 1] / singular[0] > 0.5
    for p in range(2, n - 1):
        W = G * ((p - 1) * factorial(p - 2))
        step = max(1, TERMS // (comb(n, p) * (p * (n - p)) ** 2))
        for start in range(0, len(W), step):
            block = W[start:start + step]
            gap = wz._definition_stack(block, n, p) - wz._formula_stack(block, n, p)
            assert not gap.any(), (n, p, start, float(np.max(np.abs(gap))))
