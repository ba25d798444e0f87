# Double forms 101: products, contraction, inner products, Hodge star.
#
# A (p,q) double form on Euclidean R^n is a bilinear form taking a p-vector
# and a q-vector; we store it as the dense matrix of its values on the
# standard basis, ordered lexicographically.  This script walks the basic
# algebra on small examples and prints the numbers alongside what theory
# says they should be.

import numpy as np

import doubleforms as df

ctx = df.AlgebraContext(4)
g = df.metric(ctx)

print("== the metric and its exterior powers ==")
print("g is the (1,1) identity form; its matrix:")
print(g.coeffs)

# The k-th power under the exterior (Kulkarni-Nomizu) product evaluates to
# k! det[<x_i, y_j>] on decomposables, so on the orthonormal basis it is
# k! times the identity.
g2 = df.kn_product(g, g)
print("\ng.g on (e1^e2, e1^e2):", g2.value((1, 2), (1, 2)), "(expected 2 = 2!)")
print("g.g equals metric_power(2):", np.allclose(g2.coeffs, df.metric_power(2, ctx).coeffs))

print("\n== contraction ==")
# Contraction traces over a prepended slot and is adjoint to multiplying
# by g: <g.a, b> = <a, c(b)> for the Frobenius pairing.
print("c(g) =", df.contract(g).scalar(), "(the dimension)")
print("c(g^2) = 2(n-1) g:",
      np.allclose(df.contract(g2).coeffs, 2 * 3 * np.eye(4)))

rng = np.random.default_rng(0)
a = df.DoubleForm(1, 1, rng.standard_normal((4, 4)), ctx)
b = df.DoubleForm(2, 2, rng.standard_normal((6, 6)), ctx)
lhs = df.inner(df.kn_product(g, a), b)
rhs = df.inner(a, df.contract(b))
print(f"adjointness <g.a, b> = <a, c b>: {lhs:.12f} = {rhs:.12f}")

print("\n== generalized Hodge star ==")
# The star of a double form evaluates the form on starred arguments.  It
# turns multiplication by g into contraction: g.w = *c*w.
w = df.DoubleForm(2, 2, rng.standard_normal((6, 6)), ctx)
residual = (df.kn_product(g, w) - df.star(df.contract(df.star(w)))).norm()
print("g.w = *c*w residual:", residual)
print("*(g^n/n!) =", df.star(df.metric_power(4, ctx) / 24).scalar(), "(volume pairing)")

print("\n== the first Bianchi identity ==")
# Squares h.h of symmetric (1,1) forms satisfy the identity; the form
# supported on the single pair (e1^e2, e3^e4) famously does not.
h = df.random_form(1, 1, 1, ctx, symmetric=True)
hh = df.kn_product(h, h)
print("residual of h.h:", df.bianchi_residual(hh))
bad = np.zeros((6, 6))
bad[0, 5] = bad[5, 0] = 1.0  # ranks of {1,2} and {3,4}
print("residual of the witness form:",
      df.bianchi_residual(df.DoubleForm(2, 2, bad, ctx)), "(exactly 1)")

print("\n== sectional curvature ==")
# A symmetric (p,p) form assigns a number to each p-plane: its value on an
# orthonormal basis of the plane.  For g^p/p! that number is always 1.
w = df.metric_power(2, ctx) / 2
for _ in range(3):
    plane = rng.standard_normal((2, 4))
    print("K(random plane) =", df.sectional(w, plane))
