"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 1-10 are evaluated over a single default-configuration run of the
verification suite (the `verify` command with default flags is exactly this
run); criterion 11 exercises the installed CLI twice and compares bytes.

Criterion 4 requires every injectivity record to pass except the
order-n/2 cells at n = 2p, where the operator provably has a kernel: the
splitting coefficient of the traceless-Ricci part is (n-2p)/(p-1)!, so
g.h for traceless h maps to zero.  `verify` still reports those two
records, (4,2) and (6,3), as failures and exits 1.  Here the test checks
the true statement instead: the recorded ratio is below tolerance, and,
against the commutator-sum oracle, the kernel on the Bianchi space is
exactly {g.h : h symmetric, tr h = 0}, of dimension n(n+1)/2 - 1.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from doubleforms.exterior import AlgebraContext
from doubleforms.forms import DoubleForm, kn_product, metric
from doubleforms.verify import _TOL_RATIO, SuiteConfig, _bianchi_basis, run_suite, worst_text
import doubleforms
from doubleforms import weitzenboeck as wz
from conftest import acceptance_lines


@pytest.fixture(scope="module")
def report():
    return run_suite(SuiteConfig())


def _records(report, *identities):
    out = [r for r in report.records if r.identity in identities]
    assert out, f"no records for {identities}"
    return out


def _emit(line):
    print(line)
    acceptance_lines.append(line)


def _check(num, title, records, extra_ok=True, detail="", notes=()):
    bad = [r for r in records if not r.passed]
    ok = not bad and extra_ok
    line = (f"criterion {num:2d} ({title}): "
            f"{'PASS' if ok else 'FAIL'}  records={len(records)} {worst_text(records)}")
    if detail:
        line += f"  {detail}"
    _emit(line)
    for note in notes:
        _emit(f"    {note}")
    for r in bad[:6]:
        _emit(f"    failing cell: n={r.n} p={r.p} seed={r.seed} "
              f"residual={r.residual:.6e} tol={r.tolerance:.1e} {r.note}")
    assert ok, f"criterion {num} failed on {len(bad)} of {len(records)} records"


def test_criterion_01_closed_form(report):
    recs = _records(report, "closed_form")
    cells = {(r.n, r.p) for r in recs}
    expected = {(n, p) for n in (4, 5, 6) for p in range(2, n - 1)}
    timing = report.timings.get("closed_form", 0.0)
    _check(1, "closed form vs commutator sum", recs,
           extra_ok=(cells == expected and len(recs) == 10 * len(expected) and timing <= 60.0),
           detail=f"{timing:.1f}s")


def test_criterion_02_duality(report):
    recs = _records(report, "hodge_duality")
    self_dual = [r for r in recs if r.n == 2 * r.p]
    _check(2, "star duality incl. self-dual cells", recs, extra_ok=bool(self_dual))


def test_criterion_03_adjointness(report):
    recs = _records(report, "contraction_adjoint", "star_contraction")
    _check(3, "metric/contraction adjointness and star relation", recs)


def _traceless_symmetric_basis(n):
    """E_ab + E_ba for a < b and E_aa - E_(a+1)(a+1): n(n+1)/2 - 1 matrices."""
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            h = np.zeros((n, n))
            h[a, b] = h[b, a] = 1.0
            out.append(h)
    for a in range(n - 1):
        h = np.zeros((n, n))
        h[a, a], h[a + 1, a + 1] = 1.0, -1.0
        out.append(h)
    return out


def _half_dimension_kernel(n, p):
    """Kernel facts of the order-p map on Bianchi (2,2) forms at n = 2p.

    The map is the commutator-sum oracle `np_definition`, not the closed
    form the suite's record used.  Returns the largest |N_p(g.h)|/|g.h| and
    distance of g.h from the Bianchi space over a basis of traceless h,
    and the singular-value ratios sv/sv_max of the map on an orthonormal
    Bianchi basis, ascending.
    """
    ctx = AlgebraContext(n)
    dim = ctx.dim(2)
    basis = _bianchi_basis(n)
    assert basis.shape[1] == n * n * (n * n - 1) // 12
    g = metric(ctx)
    vanish = outside = 0.0
    for h in _traceless_symmetric_basis(n):
        gh = kn_product(g, DoubleForm(1, 1, h, ctx))
        vanish = max(vanish, wz.np_definition(gh, p).norm() / gh.norm())
        v = gh.coeffs.reshape(-1)
        outside = max(outside, np.linalg.norm(v - basis @ (basis.T @ v)) / np.linalg.norm(v))
    cols = [wz.np_definition(DoubleForm(2, 2, col.reshape(dim, dim), ctx), p).coeffs.reshape(-1)
            for col in basis.T]
    sv = np.linalg.svd(np.array(cols).T, compute_uv=False)
    return vanish, outside, np.sort(sv / sv[0])


def test_criterion_04_injectivity(report):
    recs = _records(report, "metric_injectivity", "weitzenboeck_injectivity")

    def at_half(r):
        return r.identity == "weitzenboeck_injectivity" and r.n == 2 * r.p

    half = [r for r in recs if at_half(r)]
    ok = {(r.n, r.p) for r in half} == {(4, 2), (6, 3)}
    kernel, notes = [], []
    for r in half:
        expected = r.n * (r.n + 1) // 2 - 1
        vanish, outside, ratios = _half_dimension_kernel(r.n, r.p)
        nullity = int(np.sum(ratios < _TOL_RATIO))
        cell_ok = (r.residual < r.tolerance
                   and vanish <= report.config["tolerance"] and outside <= report.config["tolerance"]
                   and ratios[expected - 1] < _TOL_RATIO and ratios[expected] >= _TOL_RATIO)
        ok = ok and cell_ok
        kernel.append(f"({r.n},{r.p}) nullity {nullity}")
        notes.append(f"n=2p cell ({r.n},{r.p}) {'PASS' if cell_ok else 'FAIL'}: "
                     f"recorded ratio {r.residual:.3e} {'<' if r.residual < r.tolerance else '>='} "
                     f"tol {r.tolerance:.1e}; "
                     f"oracle nullity {nullity} (n(n+1)/2-1 = {expected}), "
                     f"largest kernel ratio {ratios[expected - 1]:.1e}, "
                     f"smallest complement ratio {ratios[expected]:.3e}; "
                     f"max |N_{r.p}(g.h)|/|g.h| {vanish:.1e}, g.h off Bianchi {outside:.1e}")
    _check(4, "multiplication and operator injectivity", [r for r in recs if not at_half(r)],
           extra_ok=ok, detail=f"n=2p kernel = g.h, h traceless: {', '.join(kernel)}", notes=notes)


def test_criterion_05_contractions(report):
    recs = _records(report, "contraction_orders", "einstein_alternative")
    _check(5, "contraction orders and Einstein form", recs)


def test_criterion_06_splitting(report):
    recs = _records(report, "splitting", "decomposition")
    _check(6, "splitting and decomposition", recs)


def test_criterion_07_constant_curvature(report):
    recs = _records(report, "constant_curvature")
    dims = {r.n for r in recs}
    _check(7, "constant-curvature closed forms", recs, extra_ok=(dims == {4, 5, 6, 7, 8}))


def test_criterion_08_clifford_layer(report):
    recs = _records(report, "clifford_ad_rule", "wedge_recovery", "clifford_associativity")
    triples = sum(int(r.note.split()[0]) for r in recs if r.identity == "clifford_associativity")
    _check(8, "Clifford layer", recs, extra_ok=(triples >= 100))


def test_criterion_09_mid_degree(report):
    recs = _records(report, "mid_degree")
    cells = {(r.n, r.p) for r in recs}
    labels = {r.note for r in recs}
    _check(9, "mid-degree expression", recs,
           extra_ok=(cells == {(6, 2), (7, 3), (8, 2), (8, 4)}
                     and {"conformally flat", "pure Weyl"} <= labels))


def test_criterion_10_positivity(report):
    recs = _records(report, "meyer_positivity", "scalar_positivity", "contracted_positivity")
    meyer = [r for r in recs if r.identity == "meyer_positivity"]
    _check(10, "positivity spot checks", recs, extra_ok=(len(meyer) == 20))


def test_criterion_11_determinism(tmp_path):
    cmd = [sys.executable, "-m", "doubleforms.cli", "verify", "--seed", "42",
           "--n-min", "4", "--n-max", "5", "--seeds", "3", "--trials", "20", "--json"]
    # the children import the package this test imported
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(doubleforms.__file__).parents[1]))
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = first.stdout == second.stdout and len(first.stdout) > 0
    _emit(f"criterion 11 (byte-identical reports): "
          f"{'PASS' if ok else 'FAIL'}  bytes={len(first.stdout)}")
    assert ok


def test_all_other_suite_identities(report):
    # invariants aggregated by the suite beyond the numbered criteria
    extra = ("sectional_sum", "adjoint_pairing", "tachibana", "kn_algebra")
    recs = _records(report, *extra)
    bad = [r for r in recs if not r.passed]
    _emit(f"aggregated invariants: {'PASS' if not bad else 'FAIL'} "
          f"records={len(recs)}")
    assert not bad
