"""Bi-invariant metrics on compact Lie groups: nullities that topology fixes.

A bi-invariant metric has curvature R(X,Y,Z,W) = 1/4 <[X,Y],[Z,W]> (Milnor
1976), and its curvature operator is nonnegative, so by Bochner's argument
the kernel of the order-p Weitzenboeck operator N_p is the bi-invariant
p-forms: its dimension is the Betti number b_p, the coefficient of t^p in
Hopf's Poincare polynomial prod(1 + t^d) over the degrees d of the group's
primitive generators.  With <X,Y> = -Re tr(XY) in the defining
representations, every eigenvalue of N_p lies on the lattice 1/4 Z.

The tensors are built here from numpy matrices alone: each Lie algebra's
basis is orthonormalized for -Re tr(XY), the structure constants are read
off the commutators, and the pairs follow itertools.combinations.  No
kn_product and no exterior table is used.
"""

from itertools import combinations

import numpy as np
import pytest

from doubleforms.exterior import AlgebraContext
from doubleforms.forms import CurvatureTensor, DoubleForm
from doubleforms.weitzenboeck import np_definition


def su(m):
    """A basis of su(m), the traceless skew-Hermitian m x m matrices."""
    basis = []
    for i, j in combinations(range(m), 2):
        for entry in (1.0, 1j):
            X = np.zeros((m, m), dtype=complex)
            X[i, j], X[j, i] = entry, -np.conj(entry)
            basis.append(X)
    for k in range(m - 1):
        basis.append(np.diag([1j if a == k else -1j if a == k + 1 else 0 for a in range(m)]))
    return basis


def so(m):
    """A basis of so(m), the real skew m x m matrices."""
    basis = []
    for i, j in combinations(range(m), 2):
        X = np.zeros((m, m), dtype=complex)
        X[i, j], X[j, i] = 1.0, -1.0
        basis.append(X)
    return basis


def direct_sum(*bases):
    """A basis of the sum of the algebras, as block-diagonal matrices."""
    size = sum(len(b[0]) for b in bases)
    out, at = [], 0
    for b in bases:
        m = len(b[0])
        for X in b:
            Y = np.zeros((size, size), dtype=complex)
            Y[at:at + m, at:at + m] = X
            out.append(Y)
        at += m
    return out


def real(X):
    """X's entries as one real vector: on skew-Hermitian matrices the dot
    product of these vectors is -Re tr(XY)."""
    return np.concatenate([X.real.ravel(), X.imag.ravel()])


def curvature(basis):
    """The (2,2) coefficient matrix of 1/4 <[X,Y],[Z,W]> on a basis
    orthonormalized for -Re tr(XY)."""
    m = len(basis[0])
    Q = np.linalg.qr(np.array([real(X) for X in basis]).T)[0]
    frame = [(q[:m * m] + 1j * q[m * m:]).reshape(m, m) for q in Q.T]
    pairs = list(combinations(range(len(frame)), 2))
    # structure constants: the coordinates of [e_i, e_j] in the frame
    V = np.array([Q.T @ real(frame[i] @ frame[j] - frame[j] @ frame[i]) for i, j in pairs])
    return V @ V.T / 4


def betti(degrees, n):
    """The coefficients of prod(1 + t^d) over the degrees, up to t^n."""
    poly = np.zeros(n + 1, dtype=int)
    poly[0] = 1
    for d in degrees:
        poly[d:] = poly[d:] + poly[:-d]
    return list(poly)


GROUPS = {
    "su2": (lambda: su(2), (3,)),
    "su2^2": (lambda: direct_sum(su(2), su(2)), (3, 3)),
    "su3": (lambda: su(3), (3, 5)),
    "su2^3": (lambda: direct_sum(su(2), su(2), su(2)), (3, 3, 3)),
    "so5": (lambda: so(5), (3, 7)),
    "su3+su2": (lambda: direct_sum(su(3), su(2)), (3, 5, 3)),
    "su2^4": (lambda: direct_sum(su(2), su(2), su(2), su(2)), (3, 3, 3, 3)),
}


def test_betti_numbers_of_the_hopf_exponents():
    # the Betti numbers of the groups as tabulated for them
    assert betti((3,), 3) == [1, 0, 0, 1]
    assert betti((3, 5), 8) == [1, 0, 0, 1, 0, 1, 0, 0, 1]
    assert betti((3, 7), 10) == [1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1]
    assert betti((3, 5, 3), 11) == [1, 0, 0, 2, 0, 1, 1, 0, 2, 0, 0, 1]
    assert betti((3, 3, 3, 3), 12) == [1, 0, 0, 4, 0, 0, 6, 0, 0, 4, 0, 0, 1]


@pytest.mark.parametrize("group", GROUPS)
def test_nullity_of_every_order_is_the_betti_number(group):
    build, degrees = GROUPS[group]
    basis = build()
    n = len(basis)
    expected = betti(degrees, n)
    assert n == sum(degrees) and expected[n] == 1
    ctx = AlgebraContext(n)
    tensor = CurvatureTensor(DoubleForm(2, 2, curvature(basis), ctx))  # the default Bianchi check
    for p in range(n + 1):
        eig = np.linalg.eigvalsh(np_definition(tensor, p).coeffs)
        size = np.sort(np.abs(eig))
        b = expected[p]
        if b:
            assert size[b - 1] <= 1e-9 * size[-1], (group, p)
        if b < len(size):
            assert size[b] >= 0.25, (group, p, size[b])
        assert np.max(np.abs(eig - np.round(4 * eig) / 4)) <= 1e-12, (group, p)
        assert eig.min() >= -1e-12, (group, p)
