"""The order-p operators: definition, closed forms, and derived identities."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys
from math import comb, factorial

import numpy as np
import pytest

from doubleforms.exterior import AlgebraContext, subsets
from doubleforms import clifford as cl
from doubleforms.forms import (
    CurvatureTensor,
    DoubleForm,
    bianchi_residual,
    contract,
    contract_iter,
    decomposable_coefficients,
    inner,
    kn_product,
    metric,
    metric_power,
    metric_product,
    orthonormalize,
    plane_values,
    sectional,
    star,
)
from doubleforms.random_tensors import (
    conformally_flat,
    constant_curvature,
    random_bianchi_22,
    random_form,
    weyl_part_tensor,
)
from doubleforms import weitzenboeck as wz
from doubleforms.tensorio import load_tensor, save_form
from doubleforms.weitzenboeck import (
    FormulaRangeError,
    decompose_22,
    einstein_tensor,
    jacobi_eigenvalues,
    np_adjoint,
    np_contraction_einstein_rhs,
    np_contraction_rhs,
    np_definition,
    np_formula,
    np_midpoint_formula,
    np_split,
    p_curvature_form,
    spectrum,
)
from measured import run_cli_measured
from oracles import dense_definition, eigh_eigenvalues


def rel(a, b):
    return (a - b).norm() / max(b.norm(), 1.0)


# -- the definitional operator ------------------------------------------------


def test_definition_of_zero_is_zero():
    ctx = AlgebraContext(5)
    zero = CurvatureTensor(0.0 * metric_power(2, ctx))
    for p in range(6):
        assert np_definition(zero, p).norm() == 0.0


def test_definition_constant_curvature_diagonal():
    # unit-curvature input: diagonal entries are p(n-p); frozen instance 6
    w = constant_curvature(1.0, AlgebraContext(5))
    N2 = np_definition(w, 2)
    assert np.allclose(N2.coeffs, 6.0 * np.eye(10))
    for n in (4, 6):
        w = constant_curvature(1.0, AlgebraContext(n))
        for p in range(n + 1):
            got = np_definition(w, p)
            want = (p * (n - p) / factorial(p)) * metric_power(p, AlgebraContext(n))
            assert rel(got, want) <= 1e-12


def test_definition_order_one_is_ricci():
    for n in (4, 5, 6):
        w = random_bianchi_22(21, AlgebraContext(n))
        assert rel(np_definition(w, 1), contract(w.form)) <= 1e-13


def test_definition_vanishes_at_extreme_orders():
    w = random_bianchi_22(22, AlgebraContext(5))
    assert np_definition(w, 0).norm() == 0.0
    assert np_definition(w, 5).norm() == 0.0


def test_definition_order_bounds():
    w = random_bianchi_22(1, AlgebraContext(4))
    with pytest.raises(ValueError):
        np_definition(w, 5)
    with pytest.raises(ValueError):
        np_definition(w, -1)


def test_definition_is_frame_independent():
    # re-evaluate the commutator sum in a rotated orthonormal frame
    for n, p in ((4, 2), (5, 3)):
        ctx = AlgebraContext(n)
        w = random_bianchi_22(31, ctx)
        rng = np.random.default_rng(7)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        frame = [cl.from_vector(ctx, Q[:, i]) for i in range(n)]
        pair_list = list(subsets(n, 2))
        # transport the coefficient matrix into the rotated frame
        B = np.zeros((len(pair_list), len(pair_list)))
        for col, (i, j) in enumerate(pair_list):
            B[:, col] = decomposable_coefficients(Q[:, [i - 1, j - 1]], ctx)
        A_rot = B.T @ w.form.coeffs @ B
        basis_p = list(subsets(n, p))
        got = np.zeros((len(basis_p), len(basis_p)))
        ads = {}
        for a, (i, j) in enumerate(pair_list):
            phi = cl.clifford_mul(frame[i - 1], frame[j - 1])
            for r, I in enumerate(basis_p):
                ads[a, r] = cl.ad(phi, cl.basis_element(ctx, I))
        for r in range(len(basis_p)):
            for s in range(len(basis_p)):
                total = 0.0
                for a in range(len(pair_list)):
                    for b in range(len(pair_list)):
                        if A_rot[a, b] == 0.0:
                            continue
                        total += A_rot[a, b] * float(ads[a, r].coeffs @ ads[b, s].coeffs)
                got[r, s] = 0.25 * total
        want = np_definition(w, p)
        assert np.max(np.abs(got - want.coeffs)) <= 1e-10 * max(want.norm(), 1.0)


def test_definition_matches_dense_clifford_reference():
    # the gather tables against full 2**n Clifford vectors built by clifford_mul
    for n in range(1, 9):
        ctx = AlgebraContext(n)
        rng = np.random.default_rng(40 + n)
        raw = rng.standard_normal((ctx.dim(2), ctx.dim(2)))
        inputs = [DoubleForm(2, 2, raw + raw.T, ctx)]
        if n >= 2:
            inputs.append(random_bianchi_22(40 + n, ctx).form)
        for w in inputs:
            for p in range(n + 1):
                got = np_definition(w, p).coeffs
                if p in (0, n):  # includes n = 1, which has no pairs
                    assert np.array_equal(got, np.zeros_like(got))
                    continue
                want = dense_definition(w, p)
                assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_dense_reference_stays_out_of_the_package():
    package = pathlib.Path(wz.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            else:
                continue
            assert not any("oracles" in name or name.startswith("dense_") for name in names), path.name


def test_ad_table_rows_are_gather_lists():
    assert hasattr(wz._ad_table, "cache_info")
    for n, p in ((5, 2), (6, 3), (7, 0), (7, 7)):
        src, pair, coef = wz._ad_table(n, p)
        shape = (comb(n, p), p * (n - p))
        assert src.shape == pair.shape == coef.shape == shape
        assert set(np.unique(np.abs(coef))) <= {2.0}
        # the p(n-p) terms landing on one target come from distinct (source, pair)
        assert all(len(set(zip(s, a))) == shape[1] for s, a in zip(src, pair))


def test_definition_at_dimension_twelve():
    ctx = AlgebraContext(12)
    w = random_bianchi_22(12, ctx)
    N6 = np_definition(w, 6)
    assert rel(star(N6), N6) <= 1e-12
    # full contraction: p! tr N_p = p (n-2)!/(n-p-1)! c^2 w
    lhs = factorial(6) * np.trace(N6.coeffs)
    rhs = 6 * factorial(10) / factorial(5) * contract_iter(w.form, 2).scalar()
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)
    assert rel(np_definition(w, 4), np_formula(w, 4)) <= 1e-12


def test_spectrum_command_at_dimension_twelve(tmp_path):
    path = tmp_path / "n12.json"
    save_form(random_bianchi_22(12, AlgebraContext(12)), path)
    code, rss_mb = run_cli_measured(["spectrum", "--input", str(path), "--p", "6",
                                      "--samples", "5", "--json"], tmp_path / "out.json")
    assert code == 0
    assert rss_mb < 500


def test_closed_forms_at_dimension_twelve_within_budget(tmp_path):
    # products by g^k are gathers, so nothing of size C(12,6) x C(12,2) x C(12,4)
    # is built: weitzenboeck and pcurvature at p = 6 stay far below 1 GB
    ctx = AlgebraContext(12)
    w = random_bianchi_22(12, ctx)
    assert rel(np_formula(w, 6), np_definition(w, 6)) <= 1e-12
    path = tmp_path / "n12.json"
    save_form(w, path)
    for command in ("weitzenboeck", "pcurvature"):
        out = tmp_path / f"{command}.json"
        code, rss_mb = run_cli_measured([command, "--input", str(path), "--p", "6", "--json"], out)
        assert code == 0, command
        assert rss_mb < 250, (command, rss_mb)
        assert len(json.loads(out.read_text())["matrix"]) == comb(12, 6)


def test_weitzenboeck_json_at_dimension_twelve_streams_its_matrix(tmp_path):
    # the 924 x 924 matrix is written a row at a time, so the peak is the
    # computation's (57 MB on a 2-vCPU x86 machine), not that of the whole
    # text (120 MB)
    path = tmp_path / "n12.json"
    save_form(random_bianchi_22(12, AlgebraContext(12)), path)
    code, rss_mb = run_cli_measured(["weitzenboeck", "--input", str(path), "--p", "6", "--json"],
                                    tmp_path / "out.json")
    assert code == 0
    assert rss_mb <= 80


def test_weitzenboeck_definition_at_dimension_twelve_within_budget(tmp_path):
    # the oracle gathers a single form through a flat index of all its
    # 924 x 36 x 36 terms, as it gathers a stack; the command peaks at 65 MB
    # on a 2-vCPU x86 machine
    path = tmp_path / "n12.json"
    save_form(random_bianchi_22(12, AlgebraContext(12)), path)
    code, rss_mb = run_cli_measured(["weitzenboeck", "--input", str(path), "--p", "6",
                                     "--method", "definition", "--json"], tmp_path / "out.json")
    assert code == 0
    assert rss_mb <= 150


def _cli_stdout(args, blas_threads):
    """The stdout of one CLI process with BLAS (OpenBLAS, OpenMP, MKL) on
    blas_threads threads."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(wz.__file__).parents[1]))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(blas_threads)))
    proc = subprocess.run([sys.executable, "-m", "doubleforms.cli", *args], env=env, capture_output=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("method", ["formula", "definition"])
def test_weitzenboeck_json_independent_of_blas_threads(tmp_path, method):
    # the n = 9, p = 4 norm sums C(9,4)**2 = 15,876 squares, enough for a
    # threaded BLAS dot product to split them across threads; for this
    # tensor, a norm taken by that dot product prints different digits at 2
    # threads with either method.  On a single CPU, BLAS runs one thread
    # whatever it is asked for, so there this check cannot fail
    path = tmp_path / "n9.json"
    save_form(random_bianchi_22(1, AlgebraContext(9)), path)
    args = ["weitzenboeck", "--input", str(path), "--p", "4", "--method", method, "--json"]
    assert _cli_stdout(args, 1) == _cli_stdout(args, 2)


# -- closed form ----------------------------------------------------------------


def test_formula_constant_curvature():
    for n in (4, 5, 6):
        ctx = AlgebraContext(n)
        w = constant_curvature(1.0, ctx)
        for p in range(2, n - 1):
            want = (p * (n - p) / factorial(p)) * metric_power(p, ctx)
            assert rel(np_formula(w, p), want) <= 1e-14


def test_formula_matches_definition_on_random_tensors():
    ctx = AlgebraContext(6)
    for seed in range(3):
        w = random_bianchi_22(seed, ctx)
        for p in (2, 3, 4):
            oracle = np_definition(w, p)
            assert rel(np_formula(w, p), oracle) <= 1e-9


def test_formula_output_satisfies_bianchi():
    w = random_bianchi_22(5, AlgebraContext(6))
    for p in (2, 3):
        out = np_formula(w, p)
        assert bianchi_residual(out) <= 1e-10 * max(out.norm(), 1.0)


def test_formula_range_errors():
    w = random_bianchi_22(1, AlgebraContext(5))
    for p in (0, 1, 4, 5):
        with pytest.raises(FormulaRangeError):
            np_formula(w, p)


def test_duality_including_order_one():
    ctx = AlgebraContext(5)
    w = random_bianchi_22(9, ctx)
    for p in (1, 2):
        lhs = star(np_definition(w, p))
        rhs = np_definition(w, 5 - p)
        assert rel(lhs, rhs) <= 1e-12


def test_self_dual_cell():
    ctx = AlgebraContext(6)
    w = random_bianchi_22(10, ctx)
    assert rel(star(np_definition(w, 3)), np_definition(w, 3)) <= 1e-12


# -- adjoint -----------------------------------------------------------------------


def test_adjoint_order_two_closed_form():
    ctx = AlgebraContext(5)
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((10, 10))
    beta = DoubleForm(2, 2, (raw + raw.T) / 2, ctx)
    want = kn_product(metric(ctx), contract(beta)) - 2.0 * beta
    assert rel(np_adjoint(beta, 2), want) <= 1e-13


def test_adjoint_pairing_random():
    ctx = AlgebraContext(6)
    rng = np.random.default_rng(12)
    for t in range(20):
        alpha = random_bianchi_22(rng, ctx)
        raw = rng.standard_normal((20, 20))
        beta = DoubleForm(3, 3, (raw + raw.T) / 2, ctx)
        lhs = inner(np_definition(alpha, 3), beta)
        rhs = inner(alpha.form, np_adjoint(beta, 3))
        assert abs(lhs - rhs) <= 1e-9 * max(alpha.form.norm() * beta.norm(), 1.0)


def test_adjoint_of_metric_power_two_ways():
    # reconstruct the adjoint at g^p entrywise from the pairing and compare
    n, p = 5, 3
    ctx = AlgebraContext(n)
    gp = metric_power(p, ctx)
    direct = np_adjoint(gp, p)
    dim = ctx.dim(2)
    recon = np.zeros((dim, dim))
    for a in range(dim):
        for b in range(dim):
            e = np.zeros((dim, dim))
            e[a, b] = 1.0
            alpha = DoubleForm(2, 2, e, ctx)
            recon[a, b] = inner(np_formula(alpha, p), gp)
    # the pairing reconstruction only sees the Bianchi part, so compare
    # after projecting both onto the Bianchi subspace
    from doubleforms.tensorio import project_bianchi

    lhs = project_bianchi(DoubleForm(2, 2, recon, ctx))
    rhs = project_bianchi(direct)
    assert rel(lhs, rhs) <= 1e-9


def test_adjoint_degree_checks():
    ctx = AlgebraContext(5)
    with pytest.raises(ValueError):
        np_adjoint(metric_power(3, ctx), 2)
    with pytest.raises(FormulaRangeError):
        np_adjoint(metric_power(4, ctx), 4)


# -- decomposition and splitting ------------------------------------------------


def test_decompose_constant_curvature():
    comps = decompose_22(constant_curvature(1.0, AlgebraContext(5)))
    assert comps.omega0 == pytest.approx(0.5, rel=1e-14)
    assert comps.omega1.norm() <= 1e-14
    assert comps.omega2.norm() <= 1e-13


def test_decompose_ricci_flat_is_pure_weyl():
    ctx = AlgebraContext(5)
    w = weyl_part_tensor(3, ctx)
    comps = decompose_22(w)
    scale = w.form.norm()
    assert abs(comps.omega0) <= 1e-12 * scale
    assert comps.omega1.norm() <= 1e-12 * scale
    assert rel(comps.omega2, w.form) <= 1e-12


def test_decompose_reassembly_random():
    ctx = AlgebraContext(5)
    w = random_bianchi_22(40, ctx)
    comps = decompose_22(w)
    rebuilt = comps.omega2 + kn_product(metric(ctx), comps.omega1) \
        + comps.omega0 * metric_power(2, ctx)
    scale = w.form.norm()
    assert (w.form - rebuilt).norm() <= 1e-10 * scale
    assert contract(comps.omega2).norm() <= 1e-10 * scale
    assert abs(contract(comps.omega1).scalar()) <= 1e-10 * scale


def test_decompose_low_dimension_rejected():
    with pytest.raises(ValueError):
        decompose_22(constant_curvature(1.0, AlgebraContext(3)))


def test_split_matches_definition():
    ctx = AlgebraContext(6)
    w = random_bianchi_22(41, ctx)
    comps = decompose_22(w)
    for p in (2, 3, 4):
        assert rel(np_split(comps, p), np_definition(w, p)) <= 1e-9


def test_split_constant_curvature_middle_term_drops():
    n = 6
    ctx = AlgebraContext(n)
    comps = decompose_22(constant_curvature(1.0, ctx))
    for p in (2, 3):
        want = (p * (n - p) / factorial(p)) * metric_power(p, ctx)
        assert rel(np_split(comps, p), want) <= 1e-12


def test_split_conformally_flat_half_dimension_is_constant():
    # vanishing Weyl part with n = 2p leaves only the metric-power term
    for n in (4, 6):
        p = n // 2
        ctx = AlgebraContext(n)
        w = conformally_flat(8, ctx)
        comps = decompose_22(w)
        npdef = np_definition(w, p)
        want = metric_power(p, ctx) * (2 * (n - p) * comps.omega0 / factorial(p - 1))
        assert rel(npdef, want) <= 1e-12
        rng = np.random.default_rng(0)
        values = [sectional(npdef, rng.standard_normal((p, n))) for _ in range(10)]
        assert max(values) - min(values) <= 1e-10 * max(abs(values[0]), 1.0)


def test_weitzenboeck_kernel_exactly_at_half_dimension():
    # g.h for traceless symmetric h maps to (n-2p) g^{p-1} h/(p-1)!, which
    # vanishes precisely when n = 2p
    for n in (4, 5, 6):
        ctx = AlgebraContext(n)
        h = np.diag(np.arange(1.0, n + 1.0))
        h -= np.trace(h) / n * np.eye(n)
        gh = CurvatureTensor(kn_product(DoubleForm(1, 1, h, ctx), metric(ctx)).symmetrized())
        out = np_definition(gh, 2)
        if n == 4:
            assert out.norm() <= 1e-13
        else:
            assert out.norm() >= 1e-3


# -- contraction orders -----------------------------------------------------------


def test_contraction_full_order_frozen_value():
    # n=5, p=2 at unit curvature: both routes give 120
    ctx = AlgebraContext(5)
    w = constant_curvature(1.0, ctx)
    by_oracle = contract_iter(np_definition(w, 2), 2).scalar()
    by_formula = np_contraction_rhs(w, 2, 2).scalar()
    assert by_oracle == pytest.approx(120.0, abs=1e-12)
    assert by_formula == pytest.approx(120.0, abs=1e-12)


def test_contraction_zero_order_reduces_to_closed_form():
    ctx = AlgebraContext(6)
    w = random_bianchi_22(50, ctx)
    for p in (2, 3, 4):
        assert rel(np_contraction_rhs(w, p, 0), np_formula(w, p)) <= 1e-13


def test_contraction_orders_match_oracle():
    for n in (5, 6):
        ctx = AlgebraContext(n)
        w = random_bianchi_22(51, ctx)
        for p in range(2, n - 1):
            oracle = np_definition(w, p)
            for k in range(p + 1):
                lhs = contract_iter(oracle, k)
                assert rel(lhs, np_contraction_rhs(w, p, k)) <= 1e-9


def test_einstein_alternative_form():
    ctx = AlgebraContext(6)
    w = random_bianchi_22(52, ctx)
    for p in (2, 3, 4):
        a = np_contraction_rhs(w, p, p - 1)
        b = np_contraction_einstein_rhs(w, p)
        assert rel(b, a) <= 1e-10


def test_einstein_tensor_definition():
    ctx = AlgebraContext(5)
    w = random_bianchi_22(53, ctx)
    ric = contract(w.form)
    s = contract(ric).scalar()
    want = 0.5 * s * metric(ctx) - ric
    assert rel(einstein_tensor(w), want) == 0.0


def test_contraction_rhs_range_checks():
    w = random_bianchi_22(1, AlgebraContext(5))
    with pytest.raises(ValueError):
        np_contraction_rhs(w, 2, 3)
    with pytest.raises(FormulaRangeError):
        np_contraction_rhs(w, 4, 0)


# -- p-curvature -------------------------------------------------------------------


def test_p_curvature_top_case_is_star():
    ctx = AlgebraContext(5)
    w = random_bianchi_22(60, ctx)
    assert rel(p_curvature_form(w, 3), star(w.form)) == 0.0


def test_p_curvature_scalar_case_frozen():
    # n=4, p=0 at unit curvature: *(g^2 (g^2/2) / 2!) = *(g^4/4) = 4!/4 = 6,
    # matching half the full contraction
    ctx = AlgebraContext(4)
    w = constant_curvature(1.0, ctx)
    got = p_curvature_form(w, 0).scalar()
    assert got == 6.0
    assert got == contract_iter(w.form, 2).scalar() / 2.0


def test_p_curvature_scalar_constant_matches_half_contraction():
    for n in (4, 5, 6):
        w = random_bianchi_22(61, AlgebraContext(n))
        got = p_curvature_form(w, 0).scalar()
        assert got == pytest.approx(contract_iter(w.form, 2).scalar() / 2.0, rel=1e-12)


def test_p_curvature_constant_curvature_values():
    for n in (5, 6):
        ctx = AlgebraContext(n)
        w = constant_curvature(1.0, ctx)
        rng = np.random.default_rng(4)
        for p in range(0, n - 1):
            form = p_curvature_form(w, p)
            want = (n - p) * (n - p - 1) / 2.0
            if p == 0:
                assert form.scalar() == pytest.approx(want, rel=1e-13)
            else:
                val = sectional(form, rng.standard_normal((p, n)))
                assert val == pytest.approx(want, rel=1e-12)


def test_p_curvature_range():
    w = random_bianchi_22(1, AlgebraContext(4))
    with pytest.raises(ValueError):
        p_curvature_form(w, 3)


# -- mid-degree expression ------------------------------------------------------------


def test_midpoint_constant_curvature_frozen():
    # n=6, p=2: both sides equal 8 g^4/4!
    ctx = AlgebraContext(6)
    w = constant_curvature(1.0, ctx)
    want = (8.0 / factorial(4)) * metric_power(4, ctx)
    assert rel(np_definition(w, 4), want) <= 1e-13
    assert rel(np_midpoint_formula(w, 2), want) <= 1e-13


def test_midpoint_all_cells_and_instances():
    for n, p in ((6, 2), (7, 3), (8, 2), (8, 4)):
        ctx = AlgebraContext(n)
        for w in (random_bianchi_22(70, ctx), conformally_flat(71, ctx), weyl_part_tensor(72, ctx)):
            assert rel(np_midpoint_formula(w, p), np_definition(w, (n + p) // 2)) <= 1e-9


def test_midpoint_parity_and_range():
    w = random_bianchi_22(1, AlgebraContext(5))
    with pytest.raises(ValueError):
        np_midpoint_formula(w, 2)  # n + p odd
    w6 = random_bianchi_22(1, AlgebraContext(6))
    with pytest.raises(ValueError):
        np_midpoint_formula(w6, 4)  # order beyond n-2


# -- operators and spectra ---------------------------------------------------------


def test_spectrum_identity_cases():
    ctx = AlgebraContext(5)
    unit = spectrum(metric_power(2, ctx) / 2, sample_planes=5, seed=0)
    assert np.array_equal(unit.eigenvalues, np.ones(10))
    assert np.allclose(unit.sampled_values, 1.0, rtol=1e-12)
    zero = spectrum(0.0 * metric_power(2, ctx), sample_planes=5, seed=0)
    assert np.all(zero.eigenvalues == 0.0) and np.all(zero.sampled_values == 0.0)
    rep = spectrum(np_definition(constant_curvature(1.0, ctx), 2), sample_planes=5, seed=0)
    assert np.allclose(rep.eigenvalues, 6.0)


def test_spectrum_reads_the_coefficient_matrix():
    # an exactly symmetric matrix survives the symmetrization bit for bit
    for n, p in ((4, 0), (5, 2), (6, 3), (7, 7)):
        N = np_definition(random_bianchi_22(n, AlgebraContext(n)), p)
        rep = spectrum(N, sample_planes=8, seed=1)
        assert np.array_equal(rep.eigenvalues, jacobi_eigenvalues(N.coeffs))
        frames = wz.sample_frames(np.random.default_rng(1), n, p, 8)
        assert np.array_equal(rep.sampled_values, plane_values(N.coeffs, frames, N.ctx))


def test_sampled_planes_need_p_at_most_n():
    # no p-plane exists when p > n: refused at once, before any draw
    zero = DoubleForm(2, 2, np.zeros((0, 0)), AlgebraContext(1))
    with pytest.raises(ValueError, match="no 2-plane in dimension 1"):
        spectrum(zero, sample_planes=3)
    with pytest.raises(ValueError, match="no 3-plane in dimension 2"):
        wz.sample_frames(np.random.default_rng(0), 2, 3, 1)
    assert wz.sample_frames(np.random.default_rng(0), 4, 0, 2).shape == (2, 4, 0)


def test_sampled_planes_need_a_non_negative_count():
    # refused before any draw; no planes is an empty stack
    rng = ScriptedGenerator(np.zeros(0))
    with pytest.raises(ValueError, match="number of planes must be an integer >= 0, got -1"):
        wz.sample_frames(rng, 4, 2, -1)
    assert rng.state == 0
    assert wz.sample_frames(rng, 4, 2, 0).shape == (0, 4, 2) and rng.state == 0


#: Each public degree, order, count or dimension outside DoubleForm, with
#: the name its error gives, and a call that takes the value 2 at n = 6.
_INTEGER_ARGUMENTS = [
    ("dimension", lambda w, v: np.eye(AlgebraContext(v).n)),
    ("metric power degree", lambda w, v: metric_power(v, w.ctx).coeffs),
    ("metric power degree", lambda w, v: metric_product(v, w.form).coeffs),
    ("contraction count", lambda w, v: contract_iter(w.form, v).coeffs),
    ("order", lambda w, v: np_definition(w, v).coeffs),
    ("order", lambda w, v: np_formula(w, v).coeffs),
    ("order", lambda w, v: np_adjoint(np_formula(w, 2), v).coeffs),
    ("order", lambda w, v: np_split(decompose_22(w), v).coeffs),
    ("order", lambda w, v: np_contraction_rhs(w, v, 1).coeffs),
    ("contraction order", lambda w, v: np_contraction_rhs(w, 3, v).coeffs),
    ("order", lambda w, v: np_contraction_einstein_rhs(w, v).coeffs),
    ("p-curvature order", lambda w, v: p_curvature_form(w, v).coeffs),
    ("mid-degree p", lambda w, v: np_midpoint_formula(w, v).coeffs),
    ("dimension", lambda w, v: wz.sample_frames(np.random.default_rng(0), v, 2, 3)),
    ("plane dimension", lambda w, v: wz.sample_frames(np.random.default_rng(0), 6, v, 3)),
    ("the number of planes", lambda w, v: wz.sample_frames(np.random.default_rng(0), 6, 2, v)),
    ("the number of planes", lambda w, v: spectrum(np_formula(w, 2), sample_planes=v).sampled_values),
    ("degree p", lambda w, v: random_form(0, v, 1, w.ctx).coeffs),
    ("degree q", lambda w, v: random_form(0, 1, v, w.ctx).coeffs),
]


@pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "2"], ids=repr)
def test_counts_orders_and_dimensions_follow_the_degree_rule(value, tmp_path):
    # DoubleForm's rule: True is an int equal to 1, but no count, and a float is none either
    w = random_bianchi_22(0, AlgebraContext(6))

    def header(field):
        # a tensor file whose header field field holds the value
        def load(w, v):
            path = tmp_path / "t.json"
            path.write_text(json.dumps({"n": 4, "entries": [], field: v}))
            return load_tensor(path).form.coeffs
        return f"'{field}'", load

    for name, call in [*_INTEGER_ARGUMENTS, *map(header, ("n", "p", "q"))]:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            call(w, value)


def test_numpy_integers_are_counts_orders_and_dimensions():
    # as DoubleForm stores a numpy integer degree as int
    w = random_bianchi_22(0, AlgebraContext(6))
    for name, call in _INTEGER_ARGUMENTS:
        for value in (np.int64(2), np.int32(2), np.uint8(2)):
            got, want = call(w, value), call(w, 2)
            assert got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64)), name
    ctx = AlgebraContext(np.int64(6))
    assert type(ctx.n) is int and ctx == w.ctx and hash(ctx) == hash(w.ctx)


class ScriptedGenerator:
    """A generator whose standard_normal hands out a fixed sequence of
    numbers in order; state is the position reached."""

    def __init__(self, numbers):
        self.numbers, self.state = numbers, 0

    def standard_normal(self, shape):
        size = int(np.prod(shape))
        out = self.numbers[self.state:self.state + size].reshape(shape)
        self.state += size
        return out


@pytest.mark.parametrize("n, p", [(4, 2), (5, 5), (8, 3), (10, 5)])
def test_sampled_frames_are_the_per_plane_draws(n, p):
    # the stacked draw and Gram-Schmidt give each plane the bits of its own draw
    got = wz.sample_frames(np.random.default_rng(n), n, p, 9)
    rng = np.random.default_rng(n)
    want = [orthonormalize(rng.standard_normal((p, n))) for _ in range(9)]
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_a_degenerate_draw_is_drawn_again_in_turn():
    # plane 1's first draw repeats a vector; it is drawn again from the
    # next numbers, and plane 2 takes the numbers after those
    n, p = 4, 3
    draws = np.random.default_rng(0).standard_normal((4, p, n))
    draws[1, 2] = draws[1, 0]
    rng = ScriptedGenerator(draws.ravel())
    got = wz.sample_frames(rng, n, p, 3)
    want = np.array([orthonormalize(draws[t]) for t in (0, 2, 3)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert rng.state == draws.size
    with pytest.raises(RuntimeError, match="failed to sample"):
        wz.sample_frames(ScriptedGenerator(np.ones(wz._PLANE_TRIES * p * n)), n, p, 1)


@pytest.mark.parametrize("misses", [wz._PLANE_TRIES - 1, wz._PLANE_TRIES])
def test_degenerate_draws_in_a_row_are_counted_across_calls(misses):
    # plane 0 takes draw 0; plane 1 needs misses more draws, one per call,
    # and _PLANE_TRIES of them in a row raise
    n, p = 4, 2
    draws = np.random.default_rng(1).standard_normal((misses + 2, p, n))
    draws[1:-1, 1] = draws[1:-1, 0]
    rng = ScriptedGenerator(draws.ravel())
    if misses < wz._PLANE_TRIES:
        got = wz.sample_frames(rng, n, p, 2)
        want = np.array([orthonormalize(draws[0]), orthonormalize(draws[-1])])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)) and rng.state == draws.size
    else:
        with pytest.raises(RuntimeError, match="failed to sample"):
            wz.sample_frames(rng, n, p, 2)


def test_spectrum_without_samples_draws_no_generator(monkeypatch):
    N = np_definition(random_bianchi_22(3, AlgebraContext(5)), 2)
    want = spectrum(N, sample_planes=4, seed=0).eigenvalues
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("generator drawn"))
    rep = spectrum(N, sample_planes=0)
    assert np.array_equal(rep.eigenvalues, want)
    assert rep.min_eigenvalue == float(want[0])
    assert rep.min_sampled_sectional is None
    assert rep.sampled_values.dtype == np.float64 and rep.sampled_values.shape == (0,)


def test_spectrum_rejects_asymmetric():
    ctx = AlgebraContext(4)
    raw = np.zeros((6, 6))
    raw[0, 1] = 1.0
    with pytest.raises(ValueError, match="not symmetric"):
        spectrum(DoubleForm(2, 2, raw, ctx))
    # skew within 1e-12 of the norm is roundoff, and is symmetrized away;
    # LAPACK reads the lower triangle, where the raw matrix has no entry
    raw[0, 1] = 1e-13
    raw += np.eye(6)
    rep = spectrum(DoubleForm(2, 2, raw, ctx), sample_planes=1)
    assert np.array_equal(rep.eigenvalues, eigh_eigenvalues((raw + raw.T) / 2))
    assert rep.eigenvalues[0] < 1.0 < rep.eigenvalues[-1]
    with pytest.raises(ValueError, match=r"expected a \(p,p\) form"):
        spectrum(DoubleForm(1, 2, np.zeros((4, 6)), ctx))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spectrum_rejects_non_finite_operators(monkeypatch, bad):
    # LAPACK never sees them: it fails on a NaN with "did not converge"
    monkeypatch.setattr(wz, "jacobi_eigenvalues", lambda m: pytest.fail("LAPACK called"))
    raw = np.eye(6)
    raw[2, 2] = bad
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="the order-2 operator has non-finite entries"):
        spectrum(DoubleForm(2, 2, raw, AlgebraContext(4)))


def test_spectrum_takes_entries_near_the_float_range():
    # the symmetrization halves before it adds, so 1e308 stays finite, and
    # the skew check's norm is scaled, so a skew of 1e190 is still seen
    ctx = AlgebraContext(4)
    raw = np.eye(6)
    raw[2, 2] = 1e308
    rep = spectrum(DoubleForm(2, 2, raw, ctx), sample_planes=4)
    assert np.array_equal(rep.eigenvalues, [1.0] * 5 + [1e308])
    assert np.isfinite(rep.sampled_values).all()
    raw = 1e200 * np.eye(6)
    raw[0, 1] = 1e190
    with pytest.raises(ValueError, match=r"not symmetric: max skew 1.000e\+190"):
        spectrum(DoubleForm(2, 2, raw, ctx))


def test_spectrum_sees_a_skew_past_the_float_range():
    # the norm of this matrix lies past the float range, so a check against
    # the plain norm could never fire; at the scale 2**-1024 it does
    raw = np.full((6, 6), 1.7e308)
    raw[0, 1] = 0.0
    with pytest.raises(ValueError, match=r"not symmetric: max skew 1.700e\+308"):
        spectrum(DoubleForm(2, 2, raw, AlgebraContext(4)), sample_planes=0)


def test_jacobi_against_lapack():
    rng = np.random.default_rng(14)
    for m in (1, 2, 5, 12, 40):
        raw = rng.standard_normal((m, m))
        sym = (raw + raw.T) / 2
        got = jacobi_eigenvalues(sym)
        want = eigh_eigenvalues(sym)
        assert np.max(np.abs(got - want)) <= 1e-10 * max(np.linalg.norm(sym), 1.0)


def test_jacobi_on_operator_sized_matrix():
    rng = np.random.default_rng(15)
    raw = rng.standard_normal((70, 70))
    sym = (raw + raw.T) / 2
    assert np.max(np.abs(jacobi_eigenvalues(sym) - eigh_eigenvalues(sym))) <= 1e-9


def test_spectrum_constant_curvature():
    ctx = AlgebraContext(5)
    w = constant_curvature(1.0, ctx)
    for p in (2, 3):
        rep = spectrum(np_definition(w, p), sample_planes=10, seed=3)
        assert np.allclose(rep.eigenvalues, p * (5 - p))
        assert rep.min_sampled_sectional == pytest.approx(p * (5 - p), rel=1e-12)


def test_spectrum_zero_tensor():
    ctx = AlgebraContext(4)
    rep = spectrum(0.0 * metric_power(2, ctx), sample_planes=5, seed=0)
    assert np.all(rep.eigenvalues == 0.0)


def test_spectrum_rayleigh_bound_and_determinism():
    ctx = AlgebraContext(5)
    w = random_bianchi_22(80, ctx)
    op = np_definition(w, 2)
    rep1 = spectrum(op, sample_planes=40, seed=9)
    rep2 = spectrum(op, sample_planes=40, seed=9)
    assert rep1.min_eigenvalue <= rep1.min_sampled_sectional + 1e-10
    assert np.array_equal(rep1.sampled_values, rep2.sampled_values)
    assert np.array_equal(rep1.eigenvalues, rep2.eigenvalues)


def test_sectional_values_of_operator_match_formula_sum():
    # sampled sectional curvature of the order-p form equals the cross sum
    n, p = 5, 2
    ctx = AlgebraContext(n)
    w = random_bianchi_22(81, ctx)
    npdef = np_definition(w, p)
    rng = np.random.default_rng(6)
    for _ in range(5):
        frame = orthonormalize(rng.standard_normal((n, n)))
        lhs = sectional(npdef, [frame[:, i] for i in range(p)])
        rhs = 0.0
        for i in range(p):
            for j in range(p, n):
                v = decomposable_coefficients(frame[:, [i, j]], ctx)
                rhs += float(v @ w.form.coeffs @ v)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
