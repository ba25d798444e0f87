"""Generators and the tensor file format."""

import json
import types

import numpy as np
import pytest

from doubleforms import tensorio
from doubleforms.exterior import AlgebraContext, subsets
from doubleforms.forms import (
    CurvatureTensor,
    DoubleForm,
    bianchi_residual,
    contract,
    contract_iter,
    kn_product,
    metric,
    metric_power,
    sectional,
)
from doubleforms.random_tensors import (
    _sum_of_squares,
    conformally_flat,
    constant_curvature,
    positive_operator_perturbation,
    random_bianchi_22,
    random_form,
    weyl_part_tensor,
)
from doubleforms.tensorio import bianchi_projector, load_tensor, project_bianchi, save_form
from doubleforms.weitzenboeck import decompose_22, jacobi_eigenvalues
from oracles import dense_square_sum, drawn_factors


def test_random_symmetric_determinism_and_symmetry():
    ctx = AlgebraContext(5)
    a = random_form(123, 1, 1, ctx, symmetric=True)
    b = random_form(123, 1, 1, ctx, symmetric=True)
    c = random_form(124, 1, 1, ctx, symmetric=True)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert a.is_symmetric()


def test_random_symmetric_entry_scale():
    # loose Monte Carlo sanity on the entry magnitude
    ctx = AlgebraContext(4)
    mags = [float(np.mean(np.abs(random_form(s, 1, 1, ctx, symmetric=True).coeffs))) for s in range(200)]
    assert 0.3 <= float(np.mean(mags)) <= 1.2


def test_random_form_shapes():
    ctx = AlgebraContext(5)
    w = random_form(0, 2, 3, ctx)
    assert w.coeffs.shape == (10, 10)
    s = random_form(1, 2, 2, ctx, symmetric=True)
    assert s.is_symmetric()
    with pytest.raises(ValueError):
        random_form(0, 1, 2, ctx, symmetric=True)


def test_square_of_metric_is_metric_power():
    ctx = AlgebraContext(4)
    built = _sum_of_squares(metric(ctx).coeffs[None], ctx)
    assert np.array_equal(built.form.coeffs, metric_power(2, ctx).coeffs)


def test_random_bianchi_construction():
    for n in (4, 5, 6):
        ctx = AlgebraContext(n)
        w = random_bianchi_22(7, ctx)
        assert bianchi_residual(w.form) <= 1e-12 * w.form.norm()
        again = random_bianchi_22(7, ctx)
        assert np.array_equal(w.form.coeffs, again.form.coeffs)


def test_random_bianchi_is_weyl_generic():
    ctx = AlgebraContext(5)
    for seed in range(5):
        comps = decompose_22(random_bianchi_22(seed, ctx))
        assert comps.omega2.norm() > 1e-3


def assert_matches_dense(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("n", range(2, 9))
def test_sum_of_minors_matches_dense_squares(n):
    ctx = AlgebraContext(n)
    default = n * (n + 1) // 2 + 2
    for terms in (1, 2, 5, default):
        for seed in range(3):
            factors = drawn_factors(seed, ctx, terms)
            want = dense_square_sum(factors)
            stack = np.stack([h.coeffs for h in factors])
            assert_matches_dense(_sum_of_squares(stack, ctx).form.coeffs, want)
            if terms == default:
                assert_matches_dense(random_bianchi_22(seed, ctx).form.coeffs, want)


def test_sum_of_minors_matches_dense_squares_at_n12():
    ctx = AlgebraContext(12)
    want = dense_square_sum(drawn_factors(5, ctx, 80))  # the default term count at n = 12
    assert_matches_dense(random_bianchi_22(5, ctx).form.coeffs, want)


@pytest.mark.parametrize("n", [4, 5, 7])
def test_random_bianchi_consumes_terms_square_normals(n):
    # callers that pass a Generator keep drawing from it afterwards
    ctx = AlgebraContext(n)
    rng = np.random.default_rng(11)
    random_bianchi_22(rng, ctx)
    ref = np.random.default_rng(11)
    ref.standard_normal((n * (n + 1) // 2 + 2) * n * n)
    assert np.array_equal(rng.standard_normal(8), ref.standard_normal(8))


def test_constant_curvature_properties():
    ctx = AlgebraContext(5)
    w = constant_curvature(1.0, ctx)
    rng = np.random.default_rng(2)
    for _ in range(5):
        assert sectional(w.form, rng.standard_normal((2, 5))) == pytest.approx(1.0, abs=1e-12)
    ric = contract(w.form)
    assert np.allclose(ric.coeffs, 4.0 * np.eye(5))
    assert constant_curvature(0.0, ctx).form.norm() == 0.0
    w2 = constant_curvature(2.5, ctx)
    assert sectional(w2.form, np.eye(5)[:2]) == pytest.approx(2.5, abs=1e-12)


def test_conformally_flat_has_no_weyl_part():
    ctx = AlgebraContext(6)
    w = conformally_flat(3, ctx)
    comps = decompose_22(w)
    assert comps.omega2.norm() <= 1e-12 * max(w.form.norm(), 1.0)


def test_weyl_part_tensor_is_traceless_bianchi():
    ctx = AlgebraContext(5)
    w = weyl_part_tensor(4, ctx)
    assert contract(w.form).norm() <= 1e-12 * w.form.norm()
    assert bianchi_residual(w.form) <= 1e-10 * w.form.norm()


def test_positive_operator_perturbation_margin():
    ctx = AlgebraContext(5)
    for seed in range(5):
        w = positive_operator_perturbation(seed, ctx)
        assert jacobi_eigenvalues(w.form.coeffs)[0] >= 0.5 - 1e-12


# -- file format ------------------------------------------------------------


def test_round_trip(tmp_path):
    ctx = AlgebraContext(5)
    w = random_bianchi_22(11, ctx)
    path = tmp_path / "tensor.json"
    save_form(w, path)
    back = load_tensor(path)
    assert np.array_equal(back.form.coeffs, w.form.coeffs)


def test_save_general_form_fields(tmp_path):
    ctx = AlgebraContext(5)
    from doubleforms.weitzenboeck import np_definition

    form = np_definition(random_bianchi_22(1, ctx), 3)
    path = tmp_path / "n3.json"
    save_form(form, path)
    doc = json.loads(path.read_text())
    assert doc["p"] == 3 and doc["q"] == 3 and doc["n"] == 5
    with pytest.raises(ValueError):
        load_tensor(path)  # not a (2,2) tensor


#: -0.0 is zero and never written; 5e-324 and 1e-310 are subnormal
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -1e-310, 1.0, 2.0, -3.0, 1e16, 0.1, -1.7976931348623157e308])


def _stdlib_save(form, path):
    """save_form as one dict per nonzero coefficient and one json.dump."""
    n = form.ctx.n
    entries = [{"ij": list(I), "kl": list(J), "value": float(form.coeffs[a, b])}
               for a, I in enumerate(subsets(n, form.p))
               for b, J in enumerate(subsets(n, form.q))
               if form.coeffs[a, b] != 0.0]
    with open(path, "w") as fh:
        json.dump({"n": n, "p": form.p, "q": form.q, "entries": entries}, fh, indent=2, allow_nan=False)
        fh.write("\n")


@pytest.mark.parametrize("fill", ["zero", "edge", "gaussian"])
@pytest.mark.parametrize("n, p, q", [(1, 0, 0), (4, 0, 0), (4, 2, 0), (4, 0, 3), (1, 1, 1),
                                     (5, 2, 2), (5, 3, 1), (6, 3, 3), (4, 4, 4)])
def test_save_form_is_the_stdlib_encoding(tmp_path, n, p, q, fill):
    ctx = AlgebraContext(n)
    shape = (ctx.dim(p), ctx.dim(q))
    rng = np.random.default_rng(n * 100 + p * 10 + q)
    coeffs = {"zero": np.zeros(shape),
              "edge": EDGE_VALUES[rng.integers(0, len(EDGE_VALUES), shape)],
              "gaussian": rng.standard_normal(shape)}[fill]
    form = DoubleForm(p, q, coeffs, ctx)
    save_form(form, tmp_path / "got.json")
    _stdlib_save(form, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("block", [1, 40, 100])
def test_save_form_in_blocks_of_rows_is_the_stdlib_encoding(tmp_path, monkeypatch, block):
    # blocks of one row, of 2 rows with a zero row inside, and of 5 rows
    # with every key hashed to one slot
    ctx = AlgebraContext(6)
    rng = np.random.default_rng(block)
    coeffs = EDGE_VALUES[rng.integers(0, len(EDGE_VALUES), (15, 20))]
    coeffs[3] = coeffs[:, 7] = 0.0
    monkeypatch.setattr(tensorio, "_BLOCK", block)
    if block == 100:
        monkeypatch.setattr(tensorio, "_HASH", np.uint64(0))
    form = DoubleForm(2, 3, coeffs, ctx)
    save_form(form, tmp_path / "got.json")
    _stdlib_save(form, tmp_path / "want.json")
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_save_form_rejects_non_finite_before_writing(tmp_path, value):
    coeffs = np.eye(6)
    coeffs[4, 1] = value
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_form(DoubleForm(2, 2, coeffs, AlgebraContext(4)), path)
    assert not path.exists()


def _unique_float_texts(values):
    """The np.unique version of tensorio._float_texts: (keys, lookup)."""
    keys = np.unique(values.view(np.int64))
    body = json.dumps(keys.view(np.float64).tolist(), allow_nan=False)[1:-1]
    texts = np.array(body.split(", "), dtype=object)
    return keys, lambda part: texts[np.searchsorted(keys, part.view(np.int64))]


@pytest.mark.parametrize("values", [
    np.zeros(0),
    np.zeros((0, 3)),
    np.array([2.5]),
    np.full((3, 4), -7.25),
    np.array([0.0, -0.0, -0.0, 0.0, 1.0, -0.0]),
    np.array([[5e-324, -5e-324, 0.0], [2.2250738585072e-308, -1e-310, 5e-324]]),
    EDGE_VALUES[np.random.default_rng(3).integers(0, len(EDGE_VALUES), (7, 9))],
], ids=["empty", "empty-2d", "single", "all-equal", "signed-zeros", "subnormals", "edge-mix"])
def test_float_texts_encodes_the_distinct_bit_patterns_once(monkeypatch, values):
    encoded = []

    def dumps(obj, **kwargs):
        encoded.append(obj)
        return json.dumps(obj, **kwargs)

    # one call of the encoder, on the sorted distinct bit patterns
    monkeypatch.setattr(tensorio, "json", types.SimpleNamespace(dumps=dumps))
    lookup = tensorio._float_texts(values)
    want_keys, want_lookup = _unique_float_texts(values)
    assert len(encoded) == 1
    assert np.array_equal(np.array(encoded[0], dtype=np.float64).view(np.int64), want_keys)
    got = lookup(values)
    assert got.shape == values.shape
    assert got.tolist() == want_lookup(values).tolist()
    assert got.ravel().tolist() == [json.dumps(v) for v in values.ravel().tolist()]


@pytest.mark.parametrize("slot_bits", [None, 1], ids=["one-slot", "two-slots"])
@pytest.mark.parametrize("values", [
    np.array([0.0, -0.0, 5e-324, -5e-324, 1.0]),
    EDGE_VALUES[np.random.default_rng(4).integers(0, len(EDGE_VALUES), (9, 7))],
    np.random.default_rng(5).standard_normal((40, 30)).round(1),
    np.random.default_rng(6).standard_normal(500),
], ids=["signed-zeros", "edge-mix", "repeats", "distinct"])
def test_float_texts_finds_the_keys_that_lost_their_slot(monkeypatch, values, slot_bits):
    # a zero multiplier hashes every key to slot 0, and one slot bit leaves
    # two slots; either way most entries miss and take the binary search
    if slot_bits is None:
        monkeypatch.setattr(tensorio, "_HASH", np.uint64(0))
    else:
        monkeypatch.setattr(tensorio, "_SLOT_BITS", slot_bits)
    lookup = tensorio._float_texts(values)
    want = _unique_float_texts(values)[1](values)
    assert lookup(values).tolist() == want.tolist()
    # and a block of rows, as the writers take them
    assert lookup(values[2:5]).tolist() == want[2:5].tolist()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_float_texts_rejects_non_finite_values(bad):
    with pytest.raises(ValueError, match="not JSON compliant"):
        tensorio._float_texts(np.array([[1.0, bad], [-0.0, 1.0]]))


def test_single_entry_sets_symmetric_images(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "n": 4,
        "entries": [{"ij": [1, 2], "kl": [3, 4], "value": 1.0}],
    }))
    t = load_tensor(path)  # warn mode keeps the tensor despite the violation
    assert t.form.value((1, 2), (3, 4)) == 1.0
    assert t.form.value((3, 4), (1, 2)) == 1.0


def test_diagonal_entry_file(tmp_path):
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({
        "n": 4,
        "entries": [{"ij": [1, 2], "kl": [1, 2], "value": 1.0}],
    }))
    t = load_tensor(path)
    assert t.form.value((1, 2), (1, 2)) == 1.0
    assert bianchi_residual(t.form) == 0.0


@pytest.mark.parametrize("doc, fragment", [
    ({"entries": []}, "missing dimension"),
    ({"n": "four", "entries": []}, "'n' must be an integer"),
    ({"n": 4, "entries": [{"ij": [1], "kl": [1, 2], "value": 1.0}]}, "entries[0].ij"),
    ({"n": 4, "entries": [{"ij": [1, 5], "kl": [1, 2], "value": 1.0}]}, "entries[0].ij"),
    ({"n": 4, "entries": [{"ij": [2, 1], "kl": [1, 2], "value": 1.0}]}, "strictly increasing"),
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2]}]}, "missing fields"),
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": "x"}]}, "entries[0].value"),
    ({"n": 4, "entries": "nope"}, "'entries' must be a list"),
    # indices are JSON integers and values JSON numbers; booleans are neither
    ({"n": True, "entries": []}, "'n' must be an integer, got True"),
    ({"n": 4, "entries": [{"ij": [1.7, 2], "kl": [1, 2], "value": 1.0}]},
     "entries[0].ij: indices must be integers, got [1.7, 2]"),
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": ["1", "2"], "value": 1.0}]},
     "entries[0].kl: indices must be integers, got ['1', '2']"),
    ({"n": 4, "entries": [{"ij": [True, 2], "kl": [1, 2], "value": 1.0}]},
     "entries[0].ij: indices must be integers, got [True, 2]"),
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": "2.5"}]},
     "entries[0].value: expected a number, got '2.5'"),
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": True}]},
     "entries[0].value: expected a number, got True"),
    # an integer past the float64 range is the infinity it rounds to, as 1e400 is
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": -10 ** 400}]},
     "entries[0].value: non-finite value -inf"),
    # the first bad entry in file order, with its first failing check
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": 1.0},
                          {"ij": [2, 1], "kl": [1, 9], "value": "x"},
                          {"ij": [1, 2], "kl": [1, 2], "value": 2.0},
                          {}]},
     "entries[1].ij: indices must be strictly increasing, got [2, 1]"),
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 3], "value": 1.0},
                          {"ij": [1, 3], "kl": [1, 2], "value": 2.0},
                          {"ij": [1, 2], "kl": [1, 2], "value": "x"}]},
     "entries[1]: conflicts with an earlier entry for the same symmetric slot (1.0 vs 2.0)"),
    # the optional degrees are JSON integers too, and then must be 2
    ({"n": 4, "p": 2.0, "entries": []}, "'p' must be an integer, got 2.0"),
    ({"n": 4, "q": True, "entries": []}, "'q' must be an integer, got True"),
    ({"n": 4, "p": 2, "q": 3, "entries": []}, "curvature tensors must have q = 2, got 3"),
    ({"n": 13, "entries": []}, "dimension must be an integer in [1, 12], got 13"),
    ({"n": 4, "entries": [[1, 2]]}, "entries[0]: expected an object, got [1, 2]"),
    # n = 1 has no index pairs, so every listed pair is out of range
    ({"n": 1, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": 1.0}]},
     "entries[0].ij: indices must lie in [1, 1], got [1, 2]"),
    ({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": 10 ** 400}]},
     "entries[0].value: non-finite value inf"),
])
def test_malformed_files(tmp_path, doc, fragment):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="bad.json"):
        try:
            load_tensor(path)
        except ValueError as exc:
            assert fragment in str(exc)
            raise


def test_repeated_slots_load(tmp_path):
    # a slot may be listed again with an equal value, in either orientation;
    # 0.0 and -0.0 are equal, and the last entry of a slot sets both cells
    path = tmp_path / "repeats.json"
    path.write_text(json.dumps({"n": 4, "entries": [
        {"ij": [1, 2], "kl": [1, 3], "value": 1.5},
        {"ij": [1, 3], "kl": [1, 2], "value": 1.5},
        {"ij": [1, 2], "kl": [1, 3], "value": 1.5},
        {"ij": [2, 3], "kl": [1, 4], "value": 0.0},
        {"ij": [1, 4], "kl": [2, 3], "value": -0.0},
        {"ij": [3, 4], "kl": [3, 4], "value": 2},
    ]}))
    form = load_tensor(path, on_bianchi="warn").form
    assert form.value((1, 2), (1, 3)) == form.value((1, 3), (1, 2)) == 1.5
    assert np.signbit(form.value((2, 3), (1, 4))) and np.signbit(form.value((1, 4), (2, 3)))
    assert form.coeffs.dtype == np.float64 and form.value((3, 4), (3, 4)) == 2.0
    assert np.count_nonzero(form.coeffs) == 3


def test_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_tensor(path)


def test_conflicting_symmetric_entries(tmp_path):
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps({
        "n": 4,
        "entries": [
            {"ij": [1, 2], "kl": [1, 3], "value": 1.0},
            {"ij": [1, 3], "kl": [1, 2], "value": 2.0},
        ],
    }))
    with pytest.raises(ValueError, match="conflicts"):
        load_tensor(path)


def _witness_file(tmp_path, value=1.0):
    # the (e_12, e_34)-supported tensor violating the Bianchi identity
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({
        "n": 4,
        "entries": [{"ij": [1, 2], "kl": [3, 4], "value": value}],
    }))
    return path


def test_strict_mode_rejects_witness(tmp_path):
    path = _witness_file(tmp_path)
    with pytest.raises(ValueError, match="Bianchi"):
        load_tensor(path, on_bianchi="strict")


@pytest.mark.parametrize("value", [1e200, -1.7976931348623157e308])
def test_strict_mode_rejects_witness_near_the_float_range(tmp_path, value):
    # the norm's squares overflow unscaled, which made the limit infinite
    with pytest.raises(ValueError, match=r"Bianchi identity violated: .* \(both times 2\*\*-"):
        load_tensor(_witness_file(tmp_path, value), on_bianchi="strict")


def test_warn_mode_reports(tmp_path, capsys):
    path = _witness_file(tmp_path)
    t = load_tensor(path, on_bianchi="warn")
    err = capsys.readouterr().err
    assert "warning" in err and "Bianchi" in err
    assert bianchi_residual(t.form) == 1.0


def test_project_mode_returns_bianchi_tensor(tmp_path):
    path = _witness_file(tmp_path)
    t = load_tensor(path, on_bianchi="project")
    assert bianchi_residual(t.form) <= 1e-9 * max(t.form.norm(), 1.0)


@pytest.mark.parametrize("scale", [1.0, 1e300, 1.3e308, 1.7976931348623157e308])
def test_project_mode_is_the_projection_at_every_scale(tmp_path, scale):
    # the largest entry is scale and the others are at most scale / 2, so
    # the projection's entries stay within scale; it is taken times a power
    # of two, which changes no bit below the float range
    ctx = AlgebraContext(5)
    raw = np.random.default_rng(11).uniform(-0.5, 0.5, (10, 10))
    unit = (raw + raw.T) / 2.0
    unit[0, 0] = 1.0
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"n": 5, "entries": [
        {"ij": list(I), "kl": list(J), "value": float(unit[a, b] * scale)}
        for a, I in enumerate(subsets(5, 2)) for b, J in enumerate(subsets(5, 2)) if a <= b]}))
    got = load_tensor(path, on_bianchi="project").form.coeffs
    if scale <= 1e300:
        assert np.array_equal(got, project_bianchi(DoubleForm(2, 2, unit * scale, ctx)).coeffs)
    assert np.isfinite(got).all()
    assert np.allclose(got / scale, project_bianchi(DoubleForm(2, 2, unit, ctx)).coeffs,
                       rtol=1e-14, atol=1e-15)


def test_projection_fixes_bianchi_forms():
    ctx = AlgebraContext(4)
    w = random_bianchi_22(5, ctx)
    projected = project_bianchi(w.form)
    assert (projected - w.form).norm() <= 1e-10 * w.form.norm()
    # idempotent
    again = project_bianchi(projected)
    assert (again - projected).norm() <= 1e-10 * max(projected.norm(), 1.0)


@pytest.mark.parametrize("n", range(4, 11))
def test_bianchi_projector_is_the_orthogonal_projector(n):
    # symmetric, idempotent, onto Bianchi forms, with the rank of the
    # curvature tensors: this pins down the orthogonal projector
    ctx = AlgebraContext(n)
    dim = ctx.dim(2)
    P = bianchi_projector(n)
    assert np.max(np.abs(P - P.T)) <= 1e-14
    assert np.max(np.abs(P @ P - P)) <= 1e-14
    image = (DoubleForm(2, 2, col.reshape(dim, dim), ctx) for col in P.T)
    assert max(bianchi_residual(w) for w in image) <= 1e-14
    assert np.trace(P) == pytest.approx(n * n * (n * n - 1) / 12, abs=1e-9)


@pytest.mark.parametrize("n", (11, 12))  # the matrix test above covers n <= 10
def test_project_bianchi_is_idempotent_at_large_n(n):
    ctx = AlgebraContext(n)
    raw = np.random.default_rng(n).standard_normal((ctx.dim(2), ctx.dim(2)))
    once = project_bianchi(DoubleForm(2, 2, raw, ctx))
    assert np.array_equal(once.coeffs, once.coeffs.T)
    assert bianchi_residual(once) <= 1e-14 * once.norm()
    assert (project_bianchi(once) - once).norm() <= 1e-14 * once.norm()


def test_unknown_policy(tmp_path):
    path = _witness_file(tmp_path)
    with pytest.raises(ValueError, match="on_bianchi"):
        load_tensor(path, on_bianchi="ignore")
