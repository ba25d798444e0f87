"""The verification suite and the command-line interface."""

import json
import multiprocessing
import os
import pathlib
import re
import subprocess
import sys
import time
from math import comb, factorial

import numpy as np
import pytest

from doubleforms import cli, tensorio, verify
from doubleforms.cli import main
from doubleforms.forms import DoubleForm, contract, kn_product, metric, metric_power
from doubleforms.random_tensors import random_bianchi_22
from doubleforms.tensorio import load_tensor, save_form
from doubleforms.verify import IDENTITIES, IdentityRecord, SuiteConfig, run_suite, worst_text
from doubleforms import weitzenboeck as wz
from doubleforms.exterior import AlgebraContext, subsets
from measured import run_cli_measured, run_cli_with_workers


QUICK = dict(n_min=5, n_max=5, seeds=2, trials=10)


def test_suite_quick_run_passes():
    # n = 5 avoids the half-dimension cells where the order-n/2 operator
    # genuinely has a kernel and the injectivity claim fails
    report = run_suite(SuiteConfig(**QUICK))
    bad = [r for r in report.records if not r.passed]
    assert not bad, bad[:3]
    assert report.passed


def test_suite_covers_all_identities():
    # even dimensions are needed for the half-dimension (tachibana) cells
    report = run_suite(SuiteConfig(n_min=4, n_max=6, seeds=1, trials=5))
    seen = {r.identity for r in report.records}
    assert seen == set(IDENTITIES)


def test_suite_reports_known_kernel_cells():
    cfg = SuiteConfig(n_min=4, n_max=4, seeds=1, trials=5,
                      identities=("weitzenboeck_injectivity",))
    report = run_suite(cfg)
    bad = [r for r in report.records if not r.passed]
    assert [(r.n, r.p) for r in bad] == [(4, 2)]
    assert "n = 2p" in bad[0].note


def test_human_lines_worst_follows_comparison_direction():
    # ratio records pass when >= tolerance, so their worst is the smallest
    cfg = SuiteConfig(n_min=4, n_max=4, seeds=1, trials=5,
                      identities=("weitzenboeck_injectivity", "tachibana", "closed_form"))
    report = run_suite(cfg)
    lines = {line.split()[0]: line for line in report.human_lines()}
    by_id = {name: [r for r in report.records if r.identity == name] for name in cfg.identities}
    ratio = min(r.residual for r in by_id["weitzenboeck_injectivity"])
    assert ratio < 1e-10
    assert f"worst={ratio:.3e}" in lines["weitzenboeck_injectivity"]
    largest = max(r.residual for r in by_id["closed_form"])
    assert f"worst={largest:.3e}  [" in lines["closed_form"]
    spread, witness = (r.residual for r in by_id["tachibana"])
    assert f"worst={spread:.3e}, {witness:.3e} (lower bound)" in lines["tachibana"]


def test_worst_text_follows_the_record_flag_not_its_note():
    # the comparison direction is data on the record; a note that happens to
    # say "(pass when >" does not make an at-or-below record a lower bound
    recs = [IdentityRecord("x", 4, 2, 0, 3e-11, 1e-10, True, "ratio (pass when > tolerance)"),
            IdentityRecord("x", 4, 2, 1, 5e-12, 1e-10, True, "plain")]
    assert worst_text(recs) == "worst=3.000e-11"
    recs.append(IdentityRecord("x", 4, 2, 2, 0.5, 0.0, True, "", lower_bound=True))
    assert worst_text(recs) == "worst=3.000e-11, 5.000e-01 (lower bound)"


@pytest.fixture(scope="module")
def default_report():
    return run_suite(SuiteConfig())


def test_lower_bound_flag_matches_the_note(default_report):
    # a record is a lower bound exactly when its note says it passes above its tolerance
    flagged = [r.lower_bound for r in default_report.records]
    assert flagged == ["(pass when >" in r.note for r in default_report.records]
    assert any(flagged) and not all(flagged)


def test_serialized_records_keep_their_eight_keys(default_report):
    keys = {"identity", "n", "p", "seed", "residual", "tolerance", "passed", "note"}
    records = json.loads(default_report.to_json())["records"]
    assert records and all(set(rec) == keys for rec in records)


def test_suite_determinism():
    cfg = SuiteConfig(**QUICK)
    a = run_suite(cfg).to_json()
    b = run_suite(cfg).to_json()
    assert a == b
    assert "timing" not in a


def test_different_seeds_differ():
    cfg1 = SuiteConfig(n_min=4, n_max=4, seeds=1, trials=5, base_seed=1,
                       identities=("closed_form",))
    cfg2 = SuiteConfig(n_min=4, n_max=4, seeds=1, trials=5, base_seed=2,
                       identities=("closed_form",))
    r1 = run_suite(cfg1).records[0].residual
    r2 = run_suite(cfg2).records[0].residual
    assert r1 != r2


def test_mutation_corrupted_coefficient_fails(monkeypatch):
    # a closed form with -2 drifted to -1.9 must trip the main comparison;
    # the suite runs the closed form on each cell's stack of tensors
    def corrupted(W, n, p):
        ctx = AlgebraContext(n)
        out = []
        for coeffs in W:
            w = DoubleForm(2, 2, coeffs, ctx)
            part = kn_product(metric(ctx), contract(w)) / (p - 1) - 1.9 * w
            out.append((kn_product(part, metric_power(p - 2, ctx)) / factorial(p - 2)).coeffs)
        return np.array(out)

    monkeypatch.setattr(wz, "_formula_stack", corrupted)
    cfg = SuiteConfig(n_min=4, n_max=4, seeds=2, trials=5, identities=("closed_form",))
    report = run_suite(cfg)
    assert not report.passed
    assert all(not r.passed for r in report.records)


def test_fitted_factor_diagnostic(monkeypatch):
    # a closed form off by a constant factor is reported with that factor
    # the suite runs the closed form on each cell's stack of tensors
    true_rhs = wz._contraction_rhs_stack

    def half_rhs(W, n, p, k):
        return 0.5 * true_rhs(W, n, p, k)

    monkeypatch.setattr(wz, "_contraction_rhs_stack", half_rhs)
    cfg = SuiteConfig(n_min=4, n_max=4, seeds=2, trials=5, identities=("contraction_orders",))
    report = run_suite(cfg)
    assert not report.passed
    diag = [r for r in report.records if "systematic mismatch" in r.note]
    assert diag, "expected a fitted-factor diagnostic record"
    assert diag[0].residual == pytest.approx(2.0, rel=1e-6)


def test_config_validation():
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(n_min=6, n_max=4))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(n_min=2, n_max=5))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(seeds=0))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(trials=0))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(tolerance=0.0))
    for tolerance in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=f"finite and positive, got {tolerance}"):
            run_suite(SuiteConfig(tolerance=tolerance))
    for base_seed in (-1, 2 ** 32, 4294967338, -4294967254):
        with pytest.raises(ValueError, match=rf"base seed must lie in \[0, 2\*\*32\), got {base_seed}"):
            run_suite(SuiteConfig(base_seed=base_seed))
    with pytest.raises(ValueError, match=r"within \[4, 10\]"):
        run_suite(SuiteConfig(n_min=4, n_max=11))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(identities=("no_such_identity",)))


def test_extended_keeps_a_larger_n_max():
    assert SuiteConfig(extended=True).dimensions() == [4, 5, 6, 7, 8]
    assert SuiteConfig(extended=True, n_max=10).dimensions() == list(range(4, 11))


@pytest.mark.parametrize("args, message", [
    (["--tol", "inf"], "tolerance must be finite and positive, got inf"),
    (["--tol", "nan"], "tolerance must be finite and positive, got nan"),
    (["--seed", "4294967338"], "base seed must lie in [0, 2**32), got 4294967338"),
    (["--seed", "-4294967254"], "base seed must lie in [0, 2**32), got -4294967254"),
    (["--n-max", "11"], "dimension range must lie within [4, 10], got [4, 11]"),
])
def test_cli_verify_rejects_values_out_of_range(capsys, args, message):
    # rejected before any identity runs, with or without --json
    for as_json in ([], ["--json"]):
        assert main(["verify", *args, *as_json]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


def test_repeated_identity_is_listed_once(capsys):
    once = _quick_cli(["--identity", "closed_form", "--json"])
    assert main(once) == 0
    want = capsys.readouterr().out
    assert main(once + ["--identity", "closed_form"]) == 0
    assert capsys.readouterr().out == want
    assert json.loads(want)["config"]["identities"] == ["closed_form"]


# -- sampled trials in blocks ------------------------------------------------


def test_trial_blocks_split_by_columns_are_the_per_trial_draws(monkeypatch):
    # the numbers of separate per-trial draws, whatever the block size
    cfg = SuiteConfig(n_min=4, n_max=5, trials=7)
    for budget in (1, 3 * (comb(5, 2) ** 2 + comb(5, 3) ** 2), verify._TRIAL_BLOCK_ENTRIES):
        monkeypatch.setattr(verify, "_TRIAL_BLOCK_ENTRIES", budget)
        seen = {}

        def residuals(n, p, W1, W2):
            seen.setdefault((n, p), []).extend(zip(W1, W2))
            yield from (0.0 for _ in W1)

        cells = list(verify._trials(cfg, "probe", lambda p: (p, p + 1), residuals))
        assert [(n, p) for n, p, _ in cells] == list(seen)
        for (n, p), pairs in seen.items():
            rng = verify._rng(cfg, "probe", n, p)
            assert len(pairs) == cfg.trials
            for w1, w2 in pairs:
                assert np.array_equal(w1, rng.standard_normal((comb(n, p), comb(n, p))))
                assert np.array_equal(w2, rng.standard_normal((comb(n, p + 1), comb(n, p + 1))))


@pytest.mark.parametrize("identity, degrees", [("contraction_adjoint", lambda n, p: (p, p + 1)),
                                               ("star_contraction", lambda n, p: (p,))])
def test_trial_block_size_never_shows_in_a_record(monkeypatch, identity, degrees):
    cfg = SuiteConfig(n_min=5, n_max=5, trials=7, identities=(identity,))
    default = run_suite(cfg).to_json()
    for p in range(5):
        # blocks of 3 at this cell: 3 + 3 + 1 trials
        budget = 3 * sum(comb(5, d) ** 2 for d in degrees(5, p))
        monkeypatch.setattr(verify, "_TRIAL_BLOCK_ENTRIES", budget)
        assert run_suite(cfg).to_json() == default, p


def test_trial_count_does_not_raise_peak_memory(tmp_path):
    peaks = {}
    for trials in (100, 1000):
        args = ["verify", "--identity", "star_contraction", "--trials", str(trials), "--json"]
        code, peaks[trials] = run_cli_measured(args, tmp_path / f"{trials}.json")
        assert code == 0
    assert peaks[1000] <= 1.05 * peaks[100], peaks


#: Budgets of the suite at n = 10: four times its wall time run on one CPU
#: of a 2 vCPU machine (13-15 s; 8 s on both), and twice the peak RSS of the
#: process or worker that peaks highest (55 MB on both CPUs, 59 MB on one)
_N10_WALL_S = 60.0
_N10_PEAK_MB = 120.0


def test_suite_runs_at_n10_within_its_budget(tmp_path):
    out = tmp_path / "n10.json"
    start = time.perf_counter()
    code, peak_mb = run_cli_with_workers(["verify", "--n-min", "10", "--n-max", "10", "--json"], out)
    wall_s = time.perf_counter() - start
    summary = json.loads(out.read_text())["summary"]
    assert code == 0 and summary["total"] == 479 and summary["failures"] == 0, summary
    assert wall_s <= _N10_WALL_S and peak_mb <= _N10_PEAK_MB, (wall_s, peak_mb)


# -- identities on the usable CPUs -------------------------------------------


def _with_cpus(monkeypatch, cpus):
    """Make run_suite see cpus usable CPUs; returns the list that collects
    what each of its _fork_pool calls gives, a pool or None."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    made, fork_pool = [], verify._fork_pool

    def spy(workers):
        made.append(fork_pool(workers))
        return made[-1]

    monkeypatch.setattr(verify, "_fork_pool", spy)
    return made


@pytest.mark.parametrize("cfg", [
    SuiteConfig(n_min=4, n_max=6, seeds=1, trials=5),
    SuiteConfig(n_min=4, n_max=5, seeds=2, trials=5, identities=("star_contraction", "closed_form")),
], ids=["all", "two"])
def test_report_bytes_do_not_depend_on_the_cpu_count(monkeypatch, cfg):
    reports = {}
    for cpus in (1, 2):
        made = _with_cpus(monkeypatch, cpus)
        reports[cpus] = run_suite(cfg)
        assert [pool is not None for pool in made] == [cpus == 2]
    assert reports[1].to_json() == reports[2].to_json()
    assert list(reports[1].timings) == list(reports[2].timings) == [
        name for name in IDENTITIES if name in (cfg.identities or IDENTITIES)]


def test_no_worker_outlives_the_suite(monkeypatch, capsys):
    made = _with_cpus(monkeypatch, 2)
    cfg = SuiteConfig(n_min=4, n_max=5, seeds=1, trials=5,
                      identities=("closed_form", "contraction_adjoint", "decomposition"))
    assert run_suite(cfg).passed
    assert made[-1] is not None
    assert multiprocessing.active_children() == []

    def broken(cfg):
        raise ValueError("closed_form broke")

    # the first task fails while the other worker still runs its own
    monkeypatch.setitem(verify.IDENTITIES, "closed_form", broken)
    with pytest.raises(ValueError, match="closed_form broke"):
        run_suite(cfg)
    assert made[-1] is not None
    assert multiprocessing.active_children() == []
    argv = ["verify", "--n-min", "4", "--n-max", "5", "--seeds", "1", "--trials", "5"]
    assert main([*argv, *(f"--identity={name}" for name in cfg.identities)]) == 2
    assert capsys.readouterr().err == "error: closed_form broke\n"
    assert multiprocessing.active_children() == []


# -- command line -----------------------------------------------------------


def _quick_cli(extra=()):
    return ["verify", "--n-min", "5", "--n-max", "5", "--seeds", "1",
            "--trials", "5", *extra]


def test_cli_verify_passes(capsys):
    assert main(_quick_cli()) == 0
    out = capsys.readouterr().out
    assert "suite: PASS" in out


def test_cli_verify_json(capsys):
    assert main(_quick_cli(["--json"])) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["passed"] is True
    assert doc["config"]["n_min"] == 5


def _verify_json_bytes(blas_threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=str(pathlib.Path(wz.__file__).parents[1]))
    cmd = [sys.executable, "-m", "doubleforms.cli", "verify", "--json",
           "--n-min", "7", "--n-max", "8", "--seeds", "2",
           "--identity", "mid_degree", "--identity", "closed_form",
           "--identity", "splitting", "--identity", "contraction_adjoint"]
    proc = subprocess.run(cmd, env=env, capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_verify_json_independent_of_blas_threads():
    # the n = 7, 8 cells are where dense BLAS products used to change the
    # last bits of residuals with the thread count
    assert _verify_json_bytes(1) == _verify_json_bytes(2)


def test_cli_verify_identity_failure_exit_code(capsys):
    # the n = 4 sweep includes the genuine half-dimension kernel cell
    code = main(["verify", "--n-min", "4", "--n-max", "4", "--seeds", "1",
                 "--trials", "5", "--identity", "weitzenboeck_injectivity"])
    assert code == 1


def test_verify_defaults_live_in_the_suite_config():
    # an option left out sets nothing, so SuiteConfig alone holds the defaults
    assert vars(cli.build_parser().parse_args(["verify"])) == {"command": "verify", "json": False}
    args = cli.build_parser().parse_args(["verify", "--tol", "1e-3", "--seed", "7", "--identity", "tachibana"])
    assert vars(args) == {"command": "verify", "json": False, "tolerance": 1e-3, "base_seed": 7,
                          "identities": ["tachibana"]}


def test_cli_usage_errors(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["weitzenboeck", "--p", "2"]) == 2  # missing --input
    assert main(["verify", "--n-min", "9"]) == 2
    capsys.readouterr()
    for command, samples in (("spectrum", "0"), ("spectrum", "-1"), ("sectional", "0")):
        assert main([command, "--input", "t.json", "--p", "2", "--samples", samples]) == 2
        assert "--samples: must be a positive integer" in capsys.readouterr().err
    for command in ("spectrum", "sectional"):
        assert main([command, "--input", "t.json", "--p", "2", "--seed", "-1"]) == 2
        assert "--seed: must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.fixture()
def tensor_file(tmp_path):
    path = tmp_path / "t.json"
    save_form(random_bianchi_22(3, AlgebraContext(5)), path)
    return str(path)


def test_cli_weitzenboeck_both_methods(tensor_file, tmp_path, capsys):
    out_path = str(tmp_path / "n2.json")
    assert main(["weitzenboeck", "--input", tensor_file, "--p", "2",
                 "--output", out_path, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["weitzenboeck", "--input", tensor_file, "--p", "2",
                 "--method", "definition", "--json"]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    a = np.asarray(doc["matrix"])
    b = np.asarray(doc2["matrix"])
    assert np.max(np.abs(a - b)) <= 1e-9 * max(np.linalg.norm(a), 1.0)
    saved = json.loads((tmp_path / "n2.json").read_text())
    assert saved["p"] == 2


def test_cli_weitzenboeck_formula_range(tensor_file, capsys):
    assert main(["weitzenboeck", "--input", tensor_file, "--p", "4"]) == 2
    err = capsys.readouterr().err
    assert "np_definition" in err


def test_cli_spectrum(tensor_file, capsys):
    assert main(["spectrum", "--input", tensor_file, "--p", "2",
                 "--samples", "20", "--seed", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["min_eigenvalue"] <= doc["min_sampled_sectional"] + 1e-10
    assert len(doc["eigenvalues"]) == 10


def test_cli_decompose(tensor_file, capsys):
    assert main(["decompose", "--input", tensor_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega2_norm"] > 0
    assert "scalar_curvature" in doc


def test_cli_sectional(tensor_file, capsys):
    assert main(["sectional", "--input", tensor_file, "--p", "3",
                 "--samples", "15", "--seed", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["values"]) == 15
    assert doc["min"] <= doc["mean"] <= doc["max"]


def test_cli_sectional_order_zero_reports_the_scalar(tensor_file, capsys):
    # the 0-plane is the empty frame; every sample reads N_0's scalar
    assert main(["sectional", "--input", tensor_file, "--p", "0", "--samples", "4", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    scalar = wz.np_definition(load_tensor(tensor_file), 0).scalar()
    assert doc["values"] == [scalar] * 4
    assert main(["spectrum", "--input", tensor_file, "--p", "0", "--samples", "4", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["min_sampled_sectional"] == scalar


def test_cli_sectional_values_are_the_spectrum_samples(tensor_file, capsys):
    # one plane evaluator: equal seeds and counts give equal bits
    args = ["--input", tensor_file, "--p", "2", "--samples", "60", "--seed", "4", "--json"]
    assert main(["sectional", *args]) == 0
    doc = json.loads(capsys.readouterr().out)
    op = wz.np_definition(load_tensor(tensor_file), 2)
    assert doc["values"] == wz.spectrum(op, sample_planes=60, seed=4).sampled_values.tolist()
    assert main(["spectrum", *args]) == 0
    assert json.loads(capsys.readouterr().out)["min_sampled_sectional"] == doc["min"]


def test_cli_pcurvature(tensor_file, capsys):
    assert main(["pcurvature", "--input", tensor_file, "--p", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["eigenvalues"]) == 10


def _stdlib_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=np.ndarray.tolist)


@pytest.mark.parametrize("argv", [
    ["weitzenboeck", "--p", "2"],
    ["weitzenboeck", "--p", "3", "--method", "definition"],
    ["spectrum", "--p", "2", "--samples", "5"],
    ["decompose"],
    ["sectional", "--p", "2", "--samples", "5"],
    ["pcurvature", "--p", "1"],
])
def test_cli_json_is_the_stdlib_encoding(tensor_file, monkeypatch, capsys, argv):
    docs = []
    emit = cli._emit

    def capture(doc, as_json, lines, *texts):
        docs.append(doc)
        emit(doc, as_json, lines, *texts)

    monkeypatch.setattr(cli, "_emit", capture)
    assert main([*argv, "--input", tensor_file, "--json"]) == 0
    assert capsys.readouterr().out == _stdlib_dumps(docs[0]) + "\n"


def test_dumps_matches_stdlib_on_edge_cases():
    scalars = [None, True, False, 0, -7, -0.0, 1e300, -1e-300, 1.7976931348623157e308, 5e-324]
    docs = [
        {},
        {f"k{i}": value for i, value in enumerate(scalars)},
        {"b": "x, y", "a, b": "", "c": -0.0},
        {"v": np.array([1.0, -0.0, 2.5e-300, 3.0]), "m": np.array([[1.0, 2.0], [3.0, -4.5e299]])},
        {"v": np.zeros(0), "rows": np.zeros((0, 3)), "columns": np.zeros((2, 0))},
    ]
    for doc in docs:
        assert "".join(cli._pieces(doc)) == _stdlib_dumps(doc), doc
    for doc, key in (({"a": float("nan")}, "a: "), ({"a": 1.0, "b": np.array([1.0, np.inf])}, "b[1]: "),
                     ({"m": np.array([[0.0, 1.0], [-np.inf, np.nan]])}, "m[1][0]: ")):
        with pytest.raises(ValueError, match=f"^{re.escape(key)}"):
            cli._pieces(doc)


@pytest.mark.parametrize("n, p", [(10, 5), (12, 4)])
def test_operator_json_is_the_stdlib_encoding(monkeypatch, n, p):
    # the texts are looked up a block of whole rows at a time: 260 and 132
    # rows per block by default, 3 and 2 rows at a block of 1000 entries
    form = wz.np_formula(random_bianchi_22(n, AlgebraContext(n)), p)
    doc = {"matrix": form.coeffs, "norm": form.norm(), "trace": np.diag(form.coeffs)}
    want = _stdlib_dumps(doc)
    assert "".join(cli._pieces(doc)) == want
    monkeypatch.setattr(cli, "_BLOCK", 1000)
    assert "".join(cli._pieces(doc)) == want


def test_text_output_looks_up_no_entry(monkeypatch, capsys):
    # text mode still encodes each array's distinct values, its check for
    # non-finite numbers, but never asks for an entry's text
    looked_up = []

    def float_texts(values):
        lookup = tensorio._float_texts(values)

        def counted(part):
            looked_up.append(part.size)
            return lookup(part)

        return counted

    monkeypatch.setattr(cli, "_float_texts", float_texts)
    doc = {"matrix": np.arange(6.0).reshape(2, 3), "values": np.ones(4)}
    cli._emit(doc, False, ["text"])
    assert capsys.readouterr().out == "text\n" and looked_up == []
    cli._emit(doc, True, [])
    assert capsys.readouterr().out == _stdlib_dumps(doc) + "\n" and looked_up == [6, 4]


def test_cli_strict_flag(tmp_path, capsys):
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({
        "n": 4,
        "entries": [{"ij": [1, 2], "kl": [3, 4], "value": 1.0}],
    }))
    assert main(["decompose", "--input", str(path), "--strict"]) == 2
    assert main(["decompose", "--input", str(path), "--project", "--json"]) == 0
    capsys.readouterr()
    assert main(["decompose", "--input", str(path), "--strict", "--project"]) == 2
    assert "error: argument --project: not allowed with argument --strict" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["Infinity", "NaN"])
def test_cli_rejects_non_finite_values(tmp_path, capsys, value):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": %s}]}' % value)
    assert main(["spectrum", "--input", str(path), "--p", "2", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "entries[0].value: non-finite" in captured.err


@pytest.mark.parametrize("text, message", [
    ('"n": 4, "entries": [{"ij": [1.7, 2], "kl": [1, 2], "value": 1}]', "entries[0].ij: indices must be integers"),
    ('"n": 4, "entries": [{"ij": [1, 2], "kl": [true, 2], "value": 1}]', "entries[0].kl: indices must be integers"),
    ('"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": true}]', "entries[0].value: expected a number"),
    ('"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": "2.5"}]', "entries[0].value: expected a number"),
    ('"n": true, "entries": []', "'n' must be an integer"),
])
def test_cli_rejects_booleans_and_non_numbers(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text("{%s}" % text)
    assert main(["decompose", "--input", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


#: The six diagonal slots of a (2,2) form at n = 4.
SIX_SLOTS = ([1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4])


def _diagonal_tensor(path, value, slots=SIX_SLOTS):
    """An n = 4 tensor file holding value on the given diagonal slots."""
    path.write_text(json.dumps({"n": 4, "entries": [{"ij": ij, "kl": ij, "value": value}
                                                    for ij in slots]}))
    return path


@pytest.mark.parametrize("value", [1e308, 4e307], ids=["1e308", "4e307"])
@pytest.mark.parametrize("argv", [["decompose"], ["weitzenboeck", "--p", "2"], ["pcurvature", "--p", "1"]],
                         ids=["decompose", "weitzenboeck", "pcurvature"])
def test_cli_overflow_is_an_error_not_invalid_json(tmp_path, capsys, argv, value):
    # at 4e307 the weitzenboeck and pcurvature matrices stay finite (largest
    # entries 1.6e308 and 1.2e308) while their norms lie past the float
    # range: the first non-finite number is the norm, which sorts after
    # "matrix", so a writer that checked numbers as it went would fail late
    path = _diagonal_tensor(tmp_path / "huge.json", value)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--input", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not JSON compliant" in captured.err


@pytest.mark.parametrize("argv, field", [
    (["decompose", "--json"], "omega0"),
    (["weitzenboeck", "--p", "2", "--json"], "matrix[0][0]"),
    (["pcurvature", "--p", "2"], "norm"),
], ids=["decompose", "weitzenboeck", "pcurvature"])
def test_cli_overflow_prints_one_error_line_and_no_warning(tmp_path, argv, field):
    # numpy warns on the way to the non-finite result; in a child process,
    # as a user runs it, so that the test runner's warning capture is not in
    # the way.  The line names the first non-finite field in key order.
    path = _diagonal_tensor(tmp_path / "huge.json", 1e308)
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(wz.__file__).parents[1]))
    cmd = [sys.executable, "-m", "doubleforms.cli", *argv, "--input", str(path)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {field}: Out of range float values are not JSON compliant\n"


@pytest.mark.parametrize("argv, norms", [
    (["decompose"], {"omega1_norm": "omega1", "omega2_norm": "omega2"}),
    (["weitzenboeck", "--p", "2"], {"norm": "matrix"}),
    (["pcurvature", "--p", "1"], {"norm": "matrix"}),
], ids=["decompose", "weitzenboeck", "pcurvature"])
def test_cli_huge_finite_results_exit_0(tmp_path, capsys, argv, norms):
    # the squares of entries past 1.4e154 overflow, but every result and
    # every norm is finite: the norm is taken at a scale where they fit
    path = _diagonal_tensor(tmp_path / "big.json", 1e200, SIX_SLOTS[:2])
    assert main([*argv, "--input", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for norm, matrix in norms.items():
        matrix = np.array(doc[matrix])
        assert np.isfinite(matrix).all() and 1e154 < doc[norm] < np.inf
        assert doc[norm] == pytest.approx(1e200 * np.linalg.norm(matrix / 1e200), rel=1e-14)


def test_cli_norm_of_a_subnormal_operator_is_not_zero(tmp_path, capsys):
    # the operator's entries are 4e-310, whose squares underflow to 0
    path = _diagonal_tensor(tmp_path / "tiny.json", 1e-310)
    assert main(["weitzenboeck", "--p", "2", "--input", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    matrix = np.array(doc["matrix"])
    assert matrix.any() and doc["norm"] == pytest.approx(1e-310 * np.linalg.norm(matrix / 1e-310),
                                                         rel=1e-12, abs=0)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_cli_spectrum_names_an_overflowing_operator(tmp_path, capsys, as_json):
    # the order-2 operator of two 1e308 diagonal entries holds inf and NaN;
    # LAPACK would report only that its eigenvalues did not converge
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 4, "entries": [{"ij": [1, 2], "kl": [1, 2], "value": 1e308},
                                                    {"ij": [1, 3], "kl": [1, 3], "value": 1e308}]}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["spectrum", "--input", str(path), "--p", "2"] + ["--json"] * as_json) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the order-2 operator has non-finite entries" in captured.err


@pytest.mark.parametrize("argv", [["weitzenboeck", "--p", "2"], ["pcurvature", "--p", "2"],
                                  ["sectional", "--p", "2"], ["decompose"]],
                         ids=["weitzenboeck", "pcurvature", "sectional", "decompose"])
def test_cli_text_output_never_prints_a_non_finite_number(tmp_path, capsys, argv):
    # each result holds inf or NaN, or has a norm past the float range
    path = _diagonal_tensor(tmp_path / "huge.json", 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        assert main([*argv, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not JSON compliant" in captured.err


@pytest.mark.parametrize("value, slots, argv, field", [
    (1.5e307, [list(ij) for ij in subsets(6, 2)], [], "norm"),
    (1.5e308, [[1, 2], [1, 3], [5, 6]], ["--method", "definition"], "matrix[0][0]"),
], ids=["norm", "matrix"])
def test_cli_output_file_is_not_written_when_the_run_fails(tmp_path, capsys, value, slots, argv, field):
    # at 1.5e307 the operator is finite but its norm is not; at 1.5e308 the
    # operator itself overflows.  Either way the run exits 2 and the error
    # names the field, with or without --output, and writes no file.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 6, "entries": [{"ij": ij, "kl": ij, "value": value} for ij in slots]}))
    out = tmp_path / "out.json"
    for extra in ([], ["--output", str(out)]):
        assert main(["weitzenboeck", "--input", str(path), "--p", "2", *argv, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {field}: Out of range float values are not JSON compliant\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [0.1, 0.7, 3.3, 0.3, 1.1, 1.7e308, -1.7e308])
def test_cli_project_takes_a_pure_four_form_to_zero(tmp_path, capsys, value):
    # the 4-form value e1234 read as a (2,2) form is orthogonal to every
    # curvature tensor: its projection is zero up to rounding, which is
    # judged against the input's norm, and it is taken at a scale where the
    # symmetrization of 1.7e308 entries does not overflow
    path = tmp_path / "four.json"
    path.write_text(json.dumps({"n": 4, "entries": [
        {"ij": [1, 2], "kl": [3, 4], "value": value}, {"ij": [1, 3], "kl": [2, 4], "value": -value},
        {"ij": [1, 4], "kl": [2, 3], "value": value}]}))
    assert main(["decompose", "--input", str(path), "--project", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["omega0"] == doc["omega1_norm"] == 0.0
    assert doc["omega2_norm"] <= 1e-15 * abs(value)


@pytest.mark.parametrize("as_json", [True, False], ids=["json", "text"])
def test_cli_pcurvature_keeps_a_non_finite_form_from_lapack(tmp_path, capsys, as_json):
    # every entry of this order-2 p-curvature form is zero, inf or NaN;
    # LAPACK would report only that its eigenvalues did not converge
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 6, "entries": [{"ij": ij, "kl": ij, "value": 1e308}
                                                    for ij in ([1, 2], [1, 3], [5, 6])]}))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["pcurvature", "--input", str(path), "--p", "2"] + ["--json"] * as_json) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not JSON compliant" in captured.err


def test_cli_small_tensor_uses_one_bianchi_rule(tmp_path, capsys):
    # norm 1e-3 and residual 1.5e-15: above 1e-12 times the norm, so the
    # load check and CurvatureTensor must both see a violation
    entries = [{"ij": [i, j], "kl": [i, j], "value": 4e-4} for i in range(1, 5) for j in range(i + 1, 5)]
    entries.append({"ij": [1, 2], "kl": [3, 4], "value": 1.5e-15})
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"n": 4, "entries": entries}))
    assert main(["decompose", "--input", str(path)]) == 0
    assert "warning" in capsys.readouterr().err
    assert main(["decompose", "--input", str(path), "--strict"]) == 2
    assert "first Bianchi identity violated" in capsys.readouterr().err


def test_cli_missing_file():
    assert main(["decompose", "--input", "/nonexistent/t.json"]) == 2
