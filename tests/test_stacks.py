"""Stacked kernels: every member of a stack gets the bits a stack of one gives.

The suite evaluates all the seeds of a cell as one stack of coefficient
matrices; each public per-form function runs the same kernel on a stack of
one.  These tests compare the two bitwise, sign bits of zeros included, on
inputs that hold -0.0, for stacks of 1 and 3.
"""

import ast
import inspect
import json
from dataclasses import asdict
from math import comb

import numpy as np
import pytest

from doubleforms import clifford as cl
from doubleforms import exterior, forms, random_tensors, tensorio, verify
from doubleforms import weitzenboeck as wz
from doubleforms.cli import main
from doubleforms.exterior import AlgebraContext
from doubleforms.forms import BianchiViolation, CurvatureTensor, DoubleForm, bianchi_map
from doubleforms.random_tensors import _curvature_stack, _factors, _sum_of_squares, random_bianchi_22
from doubleforms.tensorio import save_form
from oracles import loop_norm


def assert_same_bits(got, want, label=""):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, label
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), label


def tensor_stack(n, members, seed=0):
    """members random curvature tensors of dimension n; the first has a
    symmetric pair of -0.0 entries and, in a stack of three, the last is
    all -0.0."""
    ctx = AlgebraContext(n)
    W = np.array([random_bianchi_22(seed + m, ctx).form.coeffs for m in range(members)])
    W[0, 0, -1] = W[0, -1, 0] = -0.0
    if members == 3:
        W[2] = -0.0
    return W


STACKS = (1, 3)


@pytest.mark.parametrize("members", STACKS)
@pytest.mark.parametrize("n", range(2, 9))
def test_sampler_stack_equals_per_seed_draws(n, members):
    ctx = AlgebraContext(n)
    seeds = [np.random.SeedSequence([n, t]) for t in range(members)]
    H = _factors(seeds, n)
    H[0, 0, 0, 0] = -0.0
    stacked = _sum_of_squares(H, ctx)
    for m in range(members):
        assert_same_bits(_factors(seeds[m:m + 1], n)[0, 1:], H[m, 1:], f"factors {m}")
        assert_same_bits(_sum_of_squares(H[m:m + 1], ctx)[0], stacked[m], f"squares {m}")
    want = [random_bianchi_22(seed, ctx).form.coeffs for seed in seeds]
    assert_same_bits(_curvature_stack(_factors(seeds, n), ctx), want)


def test_stacked_check_raises_for_the_first_failing_member():
    n, ctx = 5, AlgebraContext(5)
    good = [random_bianchi_22(seed, ctx).form.coeffs for seed in range(2)]
    bad_bianchi = good[1].copy()
    bad_bianchi[0, 9] += 1.0
    bad_bianchi[9, 0] += 1.0
    non_finite = good[1].copy()
    non_finite[2, 2] = np.inf
    skew = good[1].copy()
    skew[0, 1] += 1.0
    for member, kind in ((bad_bianchi, BianchiViolation), (non_finite, ValueError), (skew, ValueError)):
        with pytest.raises(kind) as single:
            CurvatureTensor(DoubleForm(2, 2, member, ctx))
        with pytest.raises(kind) as stacked:
            forms._check_curvature(np.array([good[0], member, good[1]]), n, forms.BIANCHI_TOL)
        assert str(stacked.value) == str(single.value)
    # the whole stack must be finite before any residual is taken
    for stack in ([bad_bianchi, non_finite], [non_finite, bad_bianchi], [skew, good[0], non_finite]):
        with pytest.raises(ValueError, match="non-finite"):
            forms._check_curvature(np.array(stack), n, forms.BIANCHI_TOL)
    # a member near the float range is checked times its own power of two
    huge = np.array([good[1], bad_bianchi * 1e300])
    with pytest.raises(BianchiViolation, match=r"both times 2\*\*-"):
        forms._check_curvature(huge, n, forms.BIANCHI_TOL)
    forms._check_curvature(np.array([good[1] * 1e300, good[0]]), n, forms.BIANCHI_TOL)


@pytest.mark.parametrize("members", STACKS)
@pytest.mark.parametrize("n", range(2, 9))
def test_bianchi_stack_equals_per_member_maps(n, members):
    ctx = AlgebraContext(n)
    W = tensor_stack(n, members)
    W[0, 0, 0] += 0.5  # off the Bianchi subspace
    got = forms._bianchi_stack(W, n, 2, 2)
    for m in range(members):
        assert_same_bits(got[m], bianchi_map(DoubleForm(2, 2, W[m], ctx)).coeffs, m)


@pytest.mark.parametrize("n", range(3, 9))
def test_bianchi_stack_zeroes_unread_terms_only_when_needed(n):
    # a member near the float range makes the stack's sum overflow, so the
    # stack takes the path that zeroes the terms where x_j lies in Y; every
    # finite member still gets the bits of its own map, which does not
    W = tensor_stack(n, 3)
    W[0, 0, 0] += 0.5
    W[1] = 1e308
    with np.errstate(over="ignore"):
        assert np.isfinite(W).all() and not np.isfinite(W.sum())
        got = forms._bianchi_stack(W, n, 2, 2)
    for m in (0, 2):
        assert_same_bits(got[m], forms._bianchi_stack(W[m:m + 1], n, 2, 2)[0], m)


@pytest.mark.parametrize("members", (1, 2, 5))
@pytest.mark.parametrize("n", range(2, 9))
def test_projection_stack_equals_per_member_projections(n, members):
    # general (2,2) matrices, neither symmetric nor Bianchi; the first has
    # -0.0 entries and, in a stack of five, the last is all -0.0
    ctx = AlgebraContext(n)
    W = np.random.default_rng(n).standard_normal((members, ctx.dim(2), ctx.dim(2)))
    W[0, 0, -1] = W[0, -1, 0] = W[0, 0, 0] = -0.0
    if members == 5:
        W[4] = -0.0
    got = tensorio._project_stack(W, n)
    for m in range(members):
        assert_same_bits(got[m], tensorio.project_bianchi(DoubleForm(2, 2, W[m], ctx)).coeffs, m)


@pytest.mark.parametrize("members", STACKS)
@pytest.mark.parametrize("n", range(2, 9))
def test_definition_stack_equals_per_member_calls(n, members):
    ctx = AlgebraContext(n)
    W = tensor_stack(n, members)
    for p in range(0, n + 1):
        got = wz._definition_stack(W, n, p)
        for m in range(members):
            assert_same_bits(got[m], wz.np_definition(DoubleForm(2, 2, W[m], ctx), p).coeffs, (p, m))


def _closed_forms(n, p):
    """(label, stacked kernel, per-form function) for each closed form at (n, p)."""
    def decomposed(i):
        return (lambda W: wz._decompose_stack(W, n)[i],
                lambda w: (lambda c: (c.omega2, c.omega1, c.omega0)[i])(wz.decompose_22(w)))

    out = [
        ("formula", lambda W: wz._formula_stack(W, n, p), lambda w: wz.np_formula(w, p)),
        ("split", lambda W: wz._split_stack(*wz._decompose_stack(W, n), n, p),
         lambda w: wz.np_split(wz.decompose_22(w), p)),
        ("einstein rhs", lambda W: wz._einstein_rhs_stack(W, n, p),
         lambda w: wz.np_contraction_einstein_rhs(w, p)),
        ("einstein", lambda W: wz._einstein_stack(*wz._traces(W, n), n), wz.einstein_tensor),
        *(("weyl, ricci, scalar"[7 * i:7 * i + 6], *decomposed(i)) for i in range(3)),
    ]
    out += [(f"contraction k={k}", lambda W, k=k: wz._contraction_rhs_stack(W, n, p, k),
             lambda w, k=k: wz.np_contraction_rhs(w, p, k)) for k in range(p + 1)]
    return out


@pytest.mark.parametrize("members", STACKS)
@pytest.mark.parametrize("n", range(4, 9))
def test_closed_form_stacks_equal_per_member_calls(n, members):
    ctx = AlgebraContext(n)
    W = tensor_stack(n, members)
    for p in range(2, n - 1):
        for label, stacked, single in _closed_forms(n, p):
            got = stacked(W)
            for m in range(members):
                want = single(DoubleForm(2, 2, W[m], ctx))
                assert_same_bits(got[m], getattr(want, "coeffs", want), (p, label, m))


@pytest.mark.parametrize("members", STACKS)
@pytest.mark.parametrize("n", range(4, 9))
def test_adjoint_stack_equals_per_member_calls(n, members):
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(n)
    for p in range(2, n - 1):
        raw = rng.standard_normal((members, ctx.dim(p), ctx.dim(p)))
        B = (raw + raw.transpose(0, 2, 1)) / 2.0
        B[0, 0, 0] = -0.0
        got = wz._adjoint_stack(B, n, p)
        for m in range(members):
            assert_same_bits(got[m], wz.np_adjoint(DoubleForm(p, p, B[m], ctx), p).coeffs, (p, m))


def clifford_stack(n, members, rng, support):
    """Pairs of stacks of Clifford elements: each left factor has support
    nonzero entries at random places and -0.0 everywhere else, and each
    right factor has a -0.0 entry."""
    size = 2 ** n
    a = np.full((members, size), -0.0)
    for row in a:
        row[rng.choice(size, support, replace=False)] = rng.standard_normal(support)
    b = rng.standard_normal((members, size))
    b[:, 0] = -0.0
    return a, b


@pytest.mark.parametrize("block", [None, 16])
@pytest.mark.parametrize("members", STACKS)
@pytest.mark.parametrize("n", range(1, 9))
def test_clifford_stack_equals_per_member_products(monkeypatch, n, members, block):
    # a small block cuts a dense support into several blocks and a shorter last one
    if block:
        monkeypatch.setattr(cl, "_PRODUCT_BLOCK", block * 2 ** n)
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(n)
    for support in (0, max(1, 2 ** n // 4), 2 ** n):  # zero, sparse and dense left factors
        a, b = clifford_stack(n, members, rng, support)
        got = cl._mul_stack(a, b, n)
        for m in range(members):
            want = cl.clifford_mul(cl.CliffordElement(a[m], ctx), cl.CliffordElement(b[m], ctx))
            assert_same_bits(got[m], want.coeffs, (support, m))
            # the single product against the sum over the support in blocks of rows
            step = max(1, cl._PRODUCT_BLOCK // 2 ** n)
            rows = np.flatnonzero(a[m])
            flips, signs = cl._sign_masks(n), cl._lower_parity(n, n + 1)
            loop = np.zeros(2 ** n)
            for start in range(0, len(rows), step):
                A = rows[start:start + step, None]
                B = A ^ np.arange(2 ** n)
                loop += (a[m][A] * (signs[B & flips[A]] * b[m][B])).sum(axis=0)
            assert_same_bits(want.coeffs, loop, (support, m))


def test_clifford_stack_rejects_supports_of_different_sizes():
    a, b = np.eye(4)[[1, 2]], np.ones((2, 4))
    a[1, 3] = 0.5
    with pytest.raises(ValueError, match="supports differ in size"):
        cl._mul_stack(a, b, 2)


#: The forms kernels the closed forms are built from.
FORMS_KERNELS = {"_product_stack", "_metric_stack", "_contract_stack", "_lift_stack", "_star_stack", "_scatter",
                 "_gather"}


def test_oracle_shares_no_code_with_the_closed_forms():
    # the commutator sum checks the closed forms, so it may call none of their kernels
    for func in (wz.np_definition, wz._definition_stack, wz._ad_table):
        tree = ast.parse(inspect.getsource(inspect.unwrap(func)))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & FORMS_KERNELS, func.__name__
    assert "_definition_stack" in inspect.getsource(wz.np_definition)


#: The functions of forms and random_tensors that may call a take: _gather,
#: which reads every coefficient stack, and those that take on a table or
#: on frames.
TAKE_CALLERS = {"_gather", "_split_tensor", "decomposable_coefficients"}


@pytest.mark.parametrize("module", [forms, random_tensors], ids=lambda m: m.__name__)
def test_only_take_reads_a_coefficient_stack(module):
    tree = ast.parse(inspect.getsource(module))
    callers = {func.name for func in tree.body if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "take"}
    assert callers <= TAKE_CALLERS, sorted(callers - TAKE_CALLERS)


def test_forms_subscripts_no_transposed_array():
    # rows of a transposed table are strided reads; each table is stored in
    # the order its kernels read it, so none is read through .T
    tree = ast.parse(inspect.getsource(forms))
    readers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Subscript)
               and isinstance(node.value, ast.Attribute) and node.value.attr == "T"}
    assert not readers, sorted(readers)


@pytest.mark.parametrize("n, p, contracted", [(8, 4, False), (8, 4, True), (8, 6, True), (4, 2, False)])
def test_stack_size_bounds_the_gathered_terms(n, p, contracted):
    size = verify._stack_size(n, p, contracted)
    oracle = comb(n, p) * (p * (n - p)) ** 2
    assert size >= 1 and (size == 1 or size * oracle <= exterior._BLOCK_ENTRIES)
    if contracted:
        assert size == 1 or all(size * comb(n, k) ** 2 * (n - k) <= exterior._BLOCK_ENTRIES for k in range(p))


def test_suite_records_do_not_depend_on_the_stack_size(monkeypatch):
    names = ("closed_form", "hodge_duality", "contraction_orders", "einstein_alternative", "splitting",
             "sectional_sum", "adjoint_pairing", "metric_injectivity", "contraction_adjoint",
             "star_contraction", "tachibana")
    cfg = verify.SuiteConfig(n_min=4, n_max=6, seeds=3, identities=names)
    want = verify.run_suite(cfg).to_json()
    # stacks of one, one unit matrix, sampled trial, frame's minors and
    # Bianchi row per block
    monkeypatch.setattr(exterior, "_BLOCK_ENTRIES", 1)
    assert verify.run_suite(cfg).to_json() == want


def norm_stack():
    """Members that take each path of the norm: ordinary, zero, -0.0, all
    subnormal (rescaled up), near the float range (rescaled down), one
    non-finite, and one mixing tiny and large entries.  At 70 x 70 entries
    and this seed, a BLAS dot product and numpy's pairwise sum give the
    ordinary member, and two of the rescaled ones, different bits, so the
    test tells the two reductions apart on either pass of the norm."""
    rng = np.random.default_rng(1)
    ordinary = rng.standard_normal((70, 70))
    members = [ordinary, np.zeros((70, 70)), np.full((70, 70), -0.0), ordinary * 1e-310,
               ordinary * 1e300, ordinary * 1e-200, ordinary * 1e200]
    mixed = ordinary.copy()
    mixed[0, :3] = (1e-310, -0.0, 1e300)
    inf = ordinary.copy()
    inf[2, 2] = np.inf
    return np.array(members + [mixed, inf])


@pytest.mark.parametrize("layout", ["C", "member-innermost"])
def test_stacked_norms_equal_the_per_member_norms(layout):
    stack = norm_stack()
    if layout == "member-innermost":
        stack = np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert_same_bits(forms._norms(stack), [loop_norm(m) for m in stack])
    assert_same_bits(forms._norms(stack[1:2]), [0.0])
    assert_same_bits([forms._norm(m) for m in stack], [loop_norm(m) for m in stack])
    assert_same_bits([forms._norm(m.ravel()) for m in stack], [loop_norm(m.ravel()) for m in stack])


@pytest.mark.parametrize("module", [forms, tensorio, wz], ids=lambda m: m.__name__)
def test_norms_come_from_one_kernel(module):
    # every norm of these modules is forms._norms; the Clifford layer and
    # verify's Clifford-vector checks are the independent layer, and keep
    # np.linalg.norm
    tree = ast.parse(inspect.getsource(module))
    callers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Attribute) and node.attr == "norm"
               and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"}
    assert not callers, sorted(callers)


def test_sample_frames_reads_no_bit_generator():
    # a degenerate draw is drawn again from the numbers that follow, never by
    # resetting the generator's state
    tree = ast.parse(inspect.getsource(wz.sample_frames))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    read = names & {"bit_generator", "orthonormalize"}
    assert not read, sorted(read)


@pytest.mark.parametrize("n", range(4, 8))
def test_stacked_kernels_return_contiguous_stacks(n):
    # three members, each kernel's output C-contiguous, member-major
    ctx = AlgebraContext(n)
    W = tensor_stack(n, 3)
    H = _factors([np.random.SeedSequence([n, t]) for t in range(3)], n)
    outputs = {"squares": _sum_of_squares(H, ctx), "bianchi": forms._bianchi_stack(W, n, 2, 2),
               "projection": tensorio._project_stack(W, n), "adjoint": wz._adjoint_stack(W, n, 2)}
    for p in range(0, n + 1):
        outputs[f"definition {p}"] = wz._definition_stack(W, n, p)
    for p in range(2, n - 1):
        for label, stacked, _ in _closed_forms(n, p):
            outputs[f"{label} {p}"] = stacked(W)
    for label, out in outputs.items():
        assert out.flags.c_contiguous, label


def test_adjoint_pairing_draws_one_stack_at_a_time(monkeypatch):
    lengths = []

    def curvature_stack(H, ctx):
        lengths.append(len(H))
        return _curvature_stack(H, ctx)

    monkeypatch.setattr(verify, "_curvature_stack", curvature_stack)
    verify._run_identity("adjoint_pairing", verify.SuiteConfig(n_min=8, n_max=8))
    want = []
    for p in range(2, 7):
        step = verify._stack_size(8, p, contracted=True)
        want += [min(step, 20 - start) for start in range(0, 20, step)]
    assert lengths == want and max(want) < 20


def test_report_json_reads_the_record_fields():
    report = verify.run_suite(verify.SuiteConfig(n_min=4, n_max=4, seeds=2, identities=("closed_form", "tachibana")))
    records = [{k: v for k, v in asdict(r).items() if k != "lower_bound"} for r in report.records]
    doc = {"config": report.config, "records": records, "summary": report.summary()}
    assert report.to_json() == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


@pytest.mark.parametrize("values, want", [([0.0], 0), ([], 0), ([-0.75, 0.5], 0), ([3.0], 2),
                                          ([1e-310], -1029), ([1.7e308, -1.0], 1024)])
def test_exponent_of_the_largest_entry(values, want):
    assert forms._exponent(np.array(values)) == want


def test_weitzenboeck_output_encodes_the_matrix_once(tmp_path, monkeypatch, capsys):
    from doubleforms import cli, tensorio

    ctx = AlgebraContext(6)
    tensor, out = tmp_path / "w.json", tmp_path / "n3.json"
    save_form(random_bianchi_22(4, ctx), tensor)
    encoded = []

    def float_texts(values):
        encoded.append(values.shape)
        return tensorio._float_texts(values)

    monkeypatch.setattr(cli, "_float_texts", float_texts)
    assert main(["weitzenboeck", "--input", str(tensor), "--p", "3", "--output", str(out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert encoded == [(20, 20)]
    want = tmp_path / "want.json"
    save_form(DoubleForm(3, 3, np.array(doc["matrix"]), ctx), want)
    assert out.read_bytes() == want.read_bytes()
