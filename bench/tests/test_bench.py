"""Tests of the benchmark itself: its output checks, its tracing and its
metric list.  Run with ``python3 -m pytest bench/tests`` from the repository
root."""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pytest

import doubleforms as df
import checks
import inputs
import run
import tracing

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _result(tmp_path, op: str, doc: dict, rc: int = 0) -> run.Result:
    out, err = tmp_path / f"{op}.out", tmp_path / f"{op}.err"
    out.write_text(json.dumps(doc))
    err.write_text("")
    return run.Result(op, rc, 1.0, 1.0, str(out), str(err))


def _operator_doc(form: df.DoubleForm) -> dict:
    return {"matrix": form.coeffs.tolist(), "norm": form.norm()}


def test_references_match_the_library():
    n = 6
    ctx = df.AlgebraContext(n)
    rng = np.random.default_rng(5)
    W = inputs.random_curvature(rng, n)
    w = df.DoubleForm(2, 2, W, ctx)
    assert df.bianchi_residual(w) <= 1e-13 * w.norm()
    np.testing.assert_allclose(checks.ricci(W, n), df.contract(w).coeffs, atol=1e-12 * w.norm())
    raw = rng.standard_normal((n, n))
    a, b = (raw + raw.T) / 2.0, rng.standard_normal((n, n))
    expected = df.kn_product(df.DoubleForm(1, 1, a, ctx), df.DoubleForm(1, 1, b, ctx)).coeffs
    np.testing.assert_allclose(checks.kn11(a, b, n), expected, atol=1e-13)


def test_written_tensor_loads_back(tmp_path):
    W = inputs.random_curvature(np.random.default_rng(1), 5)
    path = tmp_path / "t.json"
    inputs.write_tensor(str(path), 5, W)
    assert np.array_equal(df.load_tensor(str(path), on_bianchi="strict").form.coeffs, W)


@pytest.mark.parametrize("target, entry", [
    ("weitzenboeck-definition-p5", (0, 1)),  # off the diagonal: only the pair check sees it
    ("weitzenboeck-p5", (3, 3)),             # on the diagonal: the trace identity sees it
])
def test_perturbed_output_matrix_is_a_failed_operation(tmp_path, target, entry):
    n = 7
    W = inputs.random_curvature(np.random.default_rng(2), n)
    w = df.CurvatureTensor(df.DoubleForm(2, 2, W, df.AlgebraContext(n)))
    docs = {"weitzenboeck-p5": _operator_doc(df.np_formula(w, 5)),
            "weitzenboeck-definition-p5": _operator_doc(df.np_definition(w, 5))}
    ctx = {"n": n, "W": W}
    results = {op: _result(tmp_path, op, doc) for op, doc in docs.items()}
    assert run._cli_check(results, ctx) == (2, 0, 0)

    M = np.array(docs[target]["matrix"])
    i, j = entry
    M[i, j] += 1e-6 * np.linalg.norm(M)
    M[j, i] = M[i, j]
    docs[target] = {"matrix": M.tolist(), "norm": float(np.linalg.norm(M))}
    results = {op: _result(tmp_path, op, doc) for op, doc in docs.items()}
    attempted, failed, wrong = run._cli_check(results, ctx)
    assert attempted == 2 and failed >= 1 and wrong == failed
    assert results[target].status.startswith("wrong")


def test_nonzero_exit_is_a_failure_but_not_a_wrong_answer(tmp_path):
    W = inputs.random_curvature(np.random.default_rng(3), 5)
    results = {"decompose-project": _result(tmp_path, "decompose-project", {}, rc=2)}
    assert run._cli_check(results, {"n": 5, "W": W, "W_in": W}) == (1, 1, 0)


def _suite_doc(flip=None) -> dict:
    records = []
    for name, count in checks.SUITE_RECORDS.items():
        for k in range(count):
            n, p = (4, 2) if k == 0 else (6, 3) if k == 1 else (5, 2)
            passed = (name, n, p) not in checks.SUITE_EXPECTED_FAILURES
            records.append({"identity": name, "n": n, "p": p, "passed": passed})
    if flip is not None:
        records[flip]["passed"] = not records[flip]["passed"]
    return {"records": records}


def test_n_equals_2p_records_are_not_failures():
    assert checks.check_suite(1, _suite_doc()) == (1084, 0)


def test_suite_check_flags_wrong_verdicts_and_gaps():
    index = list(checks.SUITE_RECORDS).index("weitzenboeck_injectivity")
    first = sum(list(checks.SUITE_RECORDS.values())[:index])
    assert checks.check_suite(1, _suite_doc(flip=first)) == (1084, 1)  # the (4,2) cell passed
    assert checks.check_suite(1, _suite_doc(flip=0)) == (1084, 1)  # an ordinary record failed
    doc = _suite_doc()
    del doc["records"][5]
    assert checks.check_suite(1, doc) == (1084, 1)
    assert checks.check_suite(0, _suite_doc()) == (1084, 1084)  # exit status contradicts the verdicts
    assert checks.check_suite(1, None) == (1084, 1084)


@pytest.fixture
def traced_package():
    """A tracer installed in the package, removed again afterwards."""
    import doubleforms.cli  # noqa: F401  (install rebinds in every loaded module)

    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "doubleforms" or name.startswith("doubleforms.")}
    tracer = tracing.Tracer()
    tracing.install(tracer)
    yield tracer
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)


def test_kn_product_is_counted_from_every_importing_module(traced_package):
    import doubleforms.random_tensors as rt
    import doubleforms.verify as verify
    import doubleforms.weitzenboeck as wz

    ctx = df.AlgebraContext(4)
    h = df.DoubleForm(1, 1, np.eye(4), ctx)
    wz.kn_product(h, h)
    verify.kn_product(h, h)
    rt.kn_product(h, h)
    df.kn_product(h, h)
    h * h  # DoubleForm.__mul__ looks the name up in forms
    assert traced_package.summary()["forms.kn_product"]["calls"] == 5


def test_self_times_sum_to_at_most_the_traced_wall_time(tmp_path):
    W = inputs.random_curvature(np.random.default_rng(4), 6)
    tensor = str(tmp_path / "t.json")
    inputs.write_tensor(tensor, 6, W)
    runner = run.Runner(REPO, str(tmp_path), time.perf_counter() + 120)
    res = runner.cli("spectrum", ["spectrum", "--input", tensor, "--p", "3", "--json"], traced=True)
    assert res.rc == 0
    with open(res.summary_path) as fh:
        functions = json.load(fh)["functions"]
    assert functions["weitzenboeck.jacobi_eigenvalues"]["calls"] == 1
    assert functions[tracing.ROOT]["calls"] == 1
    self_total = sum(stats["self_s"] for stats in functions.values())
    assert 0 < self_total <= functions[tracing.ROOT]["s"] * (1 + 1e-9) <= res.wall_s


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.end_to_end_metrics()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metrics()
