# Positivity of the curvature operators across orders.
#
# Positivity of the order-p operator sits strictly between a positive
# curvature operator and positive scalar curvature: a positive-definite
# curvature operator forces every N_p positive, and a positive N_p forces
# the scalar curvature positive through its full contraction.  Sampled
# sectional curvatures are Rayleigh quotients of the operator matrix, so
# they can be positive while the operator itself is not.

import numpy as np

import doubleforms as df

n = 5
ctx = df.AlgebraContext(n)

print("== perturbed unit curvature keeps every operator positive ==")
w = df.positive_operator_perturbation(7, ctx)
op_eigs = df.jacobi_eigenvalues(w.form.coeffs)
print(f"curvature operator eigenvalues in [{op_eigs[0]:.3f}, {op_eigs[-1]:.3f}]")
for p in range(2, n - 1):
    rep = df.spectrum(df.np_definition(w, p), sample_planes=60, seed=0)
    print(f"  p={p}: min eigenvalue {rep.min_eigenvalue:.4f}, "
          f"min sampled sectional {rep.min_sampled_sectional:.4f}")
scal = df.contract_iter(w.form, 2).scalar()
print(f"scalar curvature {scal:.3f} (positive, as the contraction forces)")

print("\n== positive sectional curvature does not imply a positive operator ==")
# A generic tensor with Weyl part shows the gap: rescale the unit tensor
# plus Weyl noise until the operator dips negative while sampled sectional
# values stay positive.
weyl = df.weyl_part_tensor(3, ctx)
found = None
for scale in np.linspace(0.5, 4.0, 36):
    cand = df.CurvatureTensor(
        (df.constant_curvature(1.0, ctx).form
         + scale / weyl.form.norm() * weyl.form).symmetrized())
    rep = df.spectrum(cand.form, sample_planes=300, seed=1)
    if rep.min_eigenvalue < 0 < rep.min_sampled_sectional:
        found = (scale, rep)
        break
if found:
    scale, rep = found
    print(f"  at Weyl scale {scale:.2f}: operator min {rep.min_eigenvalue:.4f} < 0 "
          f"but sampled sectional min {rep.min_sampled_sectional:.4f} > 0")
else:
    print("  no witness in the scanned range (sampling may miss thin cones)")

print("\n== the p-curvature forms ==")
# The p-curvature is the sectional curvature of *(g^(n-p-2) w/(n-p-2)!).
# At constant curvature 1 its value on every p-plane is (n-p)(n-p-1)/2.
cc = df.constant_curvature(1.0, ctx)
rng = np.random.default_rng(5)
for p in range(0, n - 1):
    form = df.p_curvature_form(cc, p)
    if p == 0:
        val = form.scalar()
    else:
        val = df.sectional(form, rng.standard_normal((p, n)))
    print(f"  p={p}: value {val:.4f}  (expected {(n - p) * (n - p - 1) / 2:.1f})")

print("\n== mid-degree expression through p-curvature and Weyl ==")
ctx6 = df.AlgebraContext(6)
w6 = df.random_bianchi_22(11, ctx6)
lhs = df.np_definition(w6, 4)
rhs = df.np_midpoint_formula(w6, 2)
print(f"  n=6, p=2: order-4 operator vs p-curvature/Weyl expression, "
      f"residual {(lhs - rhs).norm() / lhs.norm():.2e}")
