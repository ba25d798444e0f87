"""The verification suite and the command-line interface."""

import contextlib
import ctypes
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time
from math import comb, factorial

import numpy as np
import pytest

from doubleforms import cli, exterior, tensorio, verify
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


@pytest.mark.parametrize("field, value, message", [
    ("trials", True, "trials must be an integer, got True"),
    ("base_seed", True, "base_seed must be an integer, got True"),
    ("seeds", 2.5, "seeds must be an integer, got 2.5"),
    ("n_max", 6.0, "n_max must be an integer, got 6.0"),
    ("n_min", "4", "n_min must be an integer, got '4'"),
    ("tolerance", True, "tolerance must be a real number, got True"),
    ("tolerance", "1e-9", "tolerance must be a real number, got '1e-9'"),
    ("identities", "closed_form", "identities must be a tuple or list of names, got 'closed_form'"),
    ("identities", ("closed_form", 1), "identities must be a tuple or list of names, got ('closed_form', 1)"),
    ("extended", 1, "extended must be True or False, got 1"),
    ("extended", "no", "extended must be True or False, got 'no'"),
    # None selects every identity; an empty selection is no suite at all
    ("identities", (), "identities must name at least one identity, got an empty selection"),
    ("identities", [], "identities must name at least one identity, got an empty selection"),
])
def test_config_rejects_parameters_of_the_wrong_type(field, value, message):
    # a boolean or a float never reaches the report or a table, an integer
    # or a string is not taken for extended, and a string of identities is
    # not read letter by letter
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(SuiteConfig(**{field: value}))


def test_config_takes_a_list_of_identities_and_an_integer_tolerance():
    cfg = SuiteConfig(n_max=4, seeds=1, identities=["closed_form"])
    assert run_suite(cfg).to_json() == run_suite(SuiteConfig(n_max=4, seeds=1, identities=("closed_form",))).to_json()
    assert json.loads(run_suite(SuiteConfig(n_max=4, seeds=1, tolerance=1,
                                            identities=("closed_form",))).to_json())["config"]["tolerance"] == 1


def test_config_stores_numpy_integers_as_int():
    # the integer rule of DoubleForm and AlgebraContext, checked when the config is built
    given = dict(n_min=np.int64(4), n_max=np.int32(4), seeds=np.int64(2), trials=np.uint8(3),
                 base_seed=np.int64(7), tolerance=np.int16(1))
    cfg = SuiteConfig(**given, identities=["closed_form", "contraction_adjoint"])
    assert all(type(getattr(cfg, name)) is int for name in given)
    want = SuiteConfig(n_min=4, n_max=4, seeds=2, trials=3, base_seed=7, tolerance=1,
                       identities=("closed_form", "contraction_adjoint"))
    assert run_suite(cfg).to_json() == run_suite(want).to_json()


def test_config_checks_itself_when_built():
    # a bad value never waits for run_suite
    with pytest.raises(ValueError, match="seeds must be an integer >= 1, got 0"):
        SuiteConfig(seeds=0)
    with pytest.raises(ValueError, match=r"dimension range must lie within \[4, 10\], got \[4, 11\]"):
        SuiteConfig(n_max=np.int64(11))


def test_extended_keeps_a_larger_n_max():
    assert SuiteConfig(extended=True).dimensions() == [4, 5, 6, 7, 8]
    assert SuiteConfig(extended=True, n_max=10).dimensions() == list(range(4, 11))


def test_empty_range_names_the_range_the_run_sweeps(capsys):
    # --extended sweeps up to max(8, n_max), so that is the range found empty
    with pytest.raises(ValueError, match=r"empty dimension range \[9, 8\]"):
        run_suite(SuiteConfig(n_min=9, extended=True))
    assert main(["verify", "--extended", "--n-min", "9"]) == 2
    assert capsys.readouterr().err == "error: empty dimension range [9, 8]\n"
    with pytest.raises(ValueError, match=r"empty dimension range \[9, 6\]"):
        run_suite(SuiteConfig(n_min=9))


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

    def terms(n, p):
        return n * comb(n - 1, p) ** 2

    for budget in (1, 3 * terms(5, 2), exterior._BLOCK_ENTRIES):
        monkeypatch.setattr(exterior, "_BLOCK_ENTRIES", budget)
        seen = {}

        def residuals(n, p, W1, W2):
            seen.setdefault((n, p), []).extend(zip(W1, W2))
            return np.zeros(len(W1))

        cells = list(verify._trials(cfg, "probe", lambda p: (p, p + 1), terms, residuals))
        assert [(n, p) for n, p, _ in cells] == list(seen)
        for (n, p), pairs in seen.items():
            rng = verify._rng(cfg, "probe", n, p)
            assert len(pairs) == cfg.trials
            for w1, w2 in pairs:
                assert np.array_equal(w1, rng.standard_normal((comb(n, p), comb(n, p))))
                assert np.array_equal(w2, rng.standard_normal((comb(n, p + 1), comb(n, p + 1))))


@pytest.mark.parametrize("identity, terms", [
    ("contraction_adjoint", lambda n, p: n * comb(n - 1, p) ** 2),
    ("star_contraction", lambda n, p: max(comb(n, p) ** 2, comb(n, p + 1) ** 2, n * comb(n - 1, p) ** 2))])
def test_trial_block_size_never_shows_in_a_record(monkeypatch, identity, terms):
    cfg = SuiteConfig(n_min=5, n_max=5, trials=7, identities=(identity,))
    default = run_suite(cfg).to_json()
    for p in range(5):
        # blocks of 3 at this cell: 3 + 3 + 1 trials
        monkeypatch.setattr(exterior, "_BLOCK_ENTRIES", 3 * terms(5, p))
        assert run_suite(cfg).to_json() == default, p


KERNEL_TERMS = {
    "_metric_stack": lambda k, W, n, p, q: comb(n, k) * comb(n - k, p) * comb(n - k, q),
    "_contract_stack": lambda W, n, p, q: n * comb(n - 1, p - 1) * comb(n - 1, q - 1),
    "_star_stack": lambda W, n, p, q: comb(n, p) * comb(n, q),
}


@pytest.mark.parametrize("identity", ["contraction_adjoint", "star_contraction"])
def test_trial_block_bounds_the_gathered_terms(monkeypatch, identity):
    # every kernel call of a block gathers at most _BLOCK_ENTRIES terms, or
    # holds one trial; and blocks do hold several trials
    calls = []
    for name, terms in KERNEL_TERMS.items():
        def counted(*args, kernel=getattr(verify, name), terms=terms):
            stack = args[1] if len(args) == 5 else args[0]
            calls.append((len(stack), terms(*args)))
            return kernel(*args)
        monkeypatch.setattr(verify, name, counted)
    verify._run_identity(identity, SuiteConfig(n_min=4, n_max=8))
    assert calls and all(members == 1 or members * terms <= exterior._BLOCK_ENTRIES for members, terms in calls)
    assert max(members for members, terms in calls if terms > 1000) > 1


def test_a_nan_residual_fails_its_record(monkeypatch, capsys):
    # one NaN entry in the product by g at (n, p) = (5, 2) reaches both
    # trial identities' residuals, and the worst-of reductions keep it
    metric_stack = verify._metric_stack

    def poisoned(k, W, n, p, q):
        out = metric_stack(k, W, n, p, q)
        if (n, p) == (5, 2):
            out[0, 0, 0] = np.nan
        return out

    monkeypatch.setattr(verify, "_metric_stack", poisoned)
    cfg = SuiteConfig(n_min=5, n_max=5, trials=10, identities=("contraction_adjoint", "star_contraction"))
    bad = [r for r in run_suite(cfg).records if not r.passed]
    assert [(r.identity, r.n, r.p) for r in bad] == [("contraction_adjoint", 5, 2), ("star_contraction", 5, 2)]
    assert all(np.isnan(r.residual) for r in bad)
    args = ["verify", "--n-min", "5", "--n-max", "5", "--trials", "10", "--identity", "star_contraction"]
    assert main(args + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: identity star_contraction has a non-finite residual nan at n=5, p=2, seed=0\n"
    assert main(args) == 1
    assert "FAIL n=5 p=2 seed=0 residual=nan" in capsys.readouterr().out


def test_a_nan_contraction_order_fails_every_record(monkeypatch):
    rhs_stack = wz._contraction_rhs_stack

    def poisoned(W, n, p, k):
        out = rhs_stack(W, n, p, k)
        if k == 1:
            out[:, 0, 0] = np.nan
        return out

    monkeypatch.setattr(wz, "_contraction_rhs_stack", poisoned)
    records = run_suite(SuiteConfig(n_min=5, n_max=5, seeds=2, identities=("contraction_orders",))).records
    assert len(records) == 4
    assert all(not r.passed and np.isnan(r.residual) and r.note == "worst at k=1" for r in records)


@pytest.mark.parametrize("values, want", [([1.0, np.nan, 2.0], "nan"), ([0.5, 2.0], "2.0")])
def test_worst_of_reductions_keep_a_nan(values, want):
    assert str(verify._largest(values)) == want
    assert str(verify._smallest([2.0] + values)) == ("nan" if want == "nan" else "0.5")


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
    """Make run_suite see cpus usable CPUs; returns the list that gets one
    dict per _in_workers call, from the pid of each worker it forks to its
    exit code once reaped (None before).  No call is the serial path."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    runs, in_workers, fork, waitpid = [], verify._in_workers, os.fork, os.waitpid

    def spy(run, tasks, workers):
        runs.append({})
        return in_workers(run, tasks, workers)

    def forked():
        pid = fork()
        if pid:
            runs[-1][pid] = None
        return pid

    def waited(pid, options):
        got = waitpid(pid, options)
        if got[0] and runs and pid in runs[-1]:
            runs[-1][pid] = os.waitstatus_to_exitcode(got[1])
        return got

    monkeypatch.setattr(verify, "_in_workers", spy)
    monkeypatch.setattr(os, "fork", forked)
    monkeypatch.setattr(os, "waitpid", waited)
    return runs


def _reaped(pids):
    """Whether no pid is a child of this process any more, running or zombie."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


@contextlib.contextmanager
def _alarm(seconds, error):
    """Raise error in this process after seconds, unless the block ends first."""
    def ring(signum, frame):
        raise error

    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _in_a_worker(act):
    """An identity that calls act() in a forked worker; in the test process
    it raises instead, so that act never runs there."""
    parent = os.getpid()

    def identity(cfg):
        if os.getpid() == parent:
            raise AssertionError("the identity ran in the test process")
        act()
        yield from ()

    return identity


#: Three identities on two workers: the first task fails, or its worker
#: dies, while the other worker still runs its own.
_POOLED = SuiteConfig(n_min=4, n_max=5, seeds=1, trials=5,
                      identities=("closed_form", "contraction_adjoint", "decomposition"))


@pytest.mark.parametrize("cfg", [
    SuiteConfig(n_min=4, n_max=6, seeds=1, trials=5),
    SuiteConfig(n_min=4, n_max=5, seeds=2, trials=5, identities=("star_contraction", "closed_form")),
], ids=["all", "two"])
def test_report_bytes_do_not_depend_on_the_cpu_count(monkeypatch, cfg):
    reports = {}
    for cpus in (1, 2):
        runs = _with_cpus(monkeypatch, cpus)
        reports[cpus] = run_suite(cfg)
        assert [len(workers) for workers in runs] == ([2] if cpus == 2 else [])
    assert reports[1].to_json() == reports[2].to_json()
    assert list(reports[1].timings) == list(reports[2].timings) == [
        name for name in IDENTITIES if name in (cfg.identities or IDENTITIES)]


@pytest.mark.parametrize("fallback", ["one CPU", "no fork", "other threads"])
def test_serial_fallbacks_run_in_the_calling_process(monkeypatch, fallback):
    want = run_suite(SuiteConfig(n_min=4, n_max=4, seeds=1, identities=("closed_form", "decomposition")))
    runs = _with_cpus(monkeypatch, 1 if fallback == "one CPU" else 2)
    if fallback == "no fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if fallback == "other threads":
        other.start()
    try:
        got = run_suite(SuiteConfig(n_min=4, n_max=4, seeds=1, identities=("closed_form", "decomposition")))
    finally:
        stop.set()
        if other.is_alive():
            other.join(timeout=10)
    assert runs == [] and not other.is_alive()
    assert got.to_json() == want.to_json()


def test_no_worker_outlives_the_suite(monkeypatch, capsys):
    runs = _with_cpus(monkeypatch, 2)
    assert run_suite(_POOLED).passed
    assert len(runs[-1]) == 2 and _reaped(runs[-1])

    def broken(cfg):
        raise ValueError("closed_form broke")

    monkeypatch.setitem(verify.IDENTITIES, "closed_form", broken)
    with pytest.raises(ValueError, match="closed_form broke"):
        run_suite(_POOLED)
    assert len(runs[-1]) == 2 and _reaped(runs[-1])
    argv = ["verify", "--n-min", "4", "--n-max", "5", "--seeds", "1", "--trials", "5"]
    assert main([*argv, *(f"--identity={name}" for name in _POOLED.identities)]) == 2
    assert capsys.readouterr().err == "error: closed_form broke\n"
    assert len(runs) == 3 and all(_reaped(workers) for workers in runs)


def test_every_worker_ends_by_itself(monkeypatch):
    # only an interrupted caller kills its workers: whether the run passes
    # or an identity raises, each worker runs the tasks left and exits 0
    runs = _with_cpus(monkeypatch, 2)
    assert run_suite(_POOLED).passed

    def broken(cfg):
        raise ValueError("closed_form broke")

    monkeypatch.setitem(verify.IDENTITIES, "closed_form", broken)
    with pytest.raises(ValueError, match="closed_form broke"):
        run_suite(_POOLED)
    assert [sorted(workers.values()) for workers in runs] == [[0, 0], [0, 0]]


def test_the_first_failing_identity_in_report_order_raises(monkeypatch):
    # contraction_adjoint fails first in time, closed_form first in order
    runs = _with_cpus(monkeypatch, 2)

    def broken(name, delay):
        def identity(cfg):
            time.sleep(delay)
            raise ValueError(f"{name} broke")
            yield  # a generator, as the identities are
        return identity

    monkeypatch.setitem(verify.IDENTITIES, "closed_form", broken("closed_form", 0.3))
    monkeypatch.setitem(verify.IDENTITIES, "contraction_adjoint", broken("contraction_adjoint", 0.0))
    with pytest.raises(ValueError, match="^closed_form broke$"):
        run_suite(_POOLED)
    assert sorted(runs[-1].values()) == [0, 0]


@pytest.mark.parametrize("act, code", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["exit", "sigkill"])
def test_a_worker_that_dies_is_an_error(monkeypatch, act, code):
    # the worker dies in its first task; the other worker runs the rest
    runs = _with_cpus(monkeypatch, 2)
    monkeypatch.setitem(verify.IDENTITIES, "closed_form", _in_a_worker(act))
    with _alarm(60, TimeoutError("run_suite hung after a worker died")):
        with pytest.raises(RuntimeError) as raised:
            run_suite(_POOLED)
    ending = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
    assert str(raised.value) == f"a suite worker ended ({ending}) before it returned the records of closed_form"
    assert len(runs[-1]) == 2 and _reaped(runs[-1])
    assert sorted(runs[-1].values()) == sorted([0, code])


def test_an_interrupted_suite_kills_and_reaps_its_workers(monkeypatch):
    # the caller's KeyboardInterrupt lands while a worker still runs
    runs = _with_cpus(monkeypatch, 2)
    monkeypatch.setitem(verify.IDENTITIES, "closed_form", _in_a_worker(lambda: time.sleep(60)))
    start = time.perf_counter()
    with _alarm(0.5, KeyboardInterrupt()):
        with pytest.raises(KeyboardInterrupt):
            run_suite(_POOLED)
    assert time.perf_counter() - start < 30
    assert len(runs[-1]) == 2 and _reaped(runs[-1])
    assert -signal.SIGKILL in runs[-1].values()


#: Run a pooled suite on two identities and write, at the start of each
#: task, the worker's pid and whether it had numpy.random loaded, and the
#: pid of each process that kept its freed heap.
_WARM_WORKERS = """
import os, sys
from doubleforms import verify

verify._usable_cpus = lambda: 2  # forked workers, as _with_cpus forces them
run, keep, seen = verify._run_identity, verify._keep_freed_heap, sys.argv[1]

def spy(name, cfg):
    with open(seen, "a") as out:
        out.write(f"{os.getpid()} {'numpy.random' in sys.modules}\\n")
    return run(name, cfg)

def kept():
    with open(seen + ".heap", "a") as out:
        out.write(f"{os.getpid()}\\n")
    keep()

verify._run_identity, verify._keep_freed_heap = spy, kept
cfg = verify.SuiteConfig(n_min=4, n_max=4, seeds=1, trials=5, identities=("closed_form", "decomposition"))
assert verify.run_suite(cfg).passed
print(os.getpid())
"""


def test_workers_start_with_numpy_random_loaded(tmp_path):
    # the parent loads numpy.random before it forks, so no worker imports it
    # in its first task; a fresh process, since this one has loaded it already
    seen = tmp_path / "seen.txt"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(verify.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _WARM_WORKERS, str(seen)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    tasks = [line.split() for line in seen.read_text().splitlines()]
    assert len(tasks) == 2 and proc.stdout.strip() not in [pid for pid, _ in tasks], (proc.stdout, tasks)
    assert [loaded for _, loaded in tasks] == ["True", "True"]
    # each worker, and only a worker, kept its freed heap before its tasks
    heaps = (tmp_path / "seen.txt.heap").read_text().split()
    assert len(heaps) == len(set(heaps)) == 2 and {pid for pid, _ in tasks} <= set(heaps), (heaps, tasks)
    assert proc.stdout.strip() not in heaps


class _Libc:
    """A C library whose mallopt records its calls."""

    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


def test_workers_keep_their_freed_heap(monkeypatch):
    # M_TRIM_THRESHOLD (-1) and M_MMAP_THRESHOLD (-3), both set
    libc = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    verify._keep_freed_heap()
    assert libc.calls == [(-1, 64 << 20), (-3, 4 << 20)]


def test_heap_initializer_does_nothing_without_mallopt(monkeypatch):
    def no_library(name):
        raise OSError("no C library")

    for cdll in (no_library, lambda name: object()):  # no library, and one without mallopt
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert verify._keep_freed_heap() is None


def test_serial_run_leaves_the_callers_allocator_alone(monkeypatch):
    def retune():
        raise AssertionError("the serial path retuned the allocator")

    monkeypatch.setattr(verify, "_keep_freed_heap", retune)
    runs = _with_cpus(monkeypatch, 1)
    assert run_suite(SuiteConfig(n_min=4, n_max=4, seeds=1, identities=("closed_form", "decomposition"))).passed
    assert runs == []


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


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_streams_the_report_bytes(monkeypatch, capsys, cpus):
    # verify --json writes json_pieces one at a time, never the whole text
    cfg = SuiteConfig(n_min=5, n_max=5, seeds=1, trials=5, identities=("closed_form", "decomposition"))
    want = run_suite(cfg).to_json()
    runs = _with_cpus(monkeypatch, cpus)

    def whole(report):
        raise AssertionError("the command built the whole report")

    monkeypatch.setattr(verify.VerificationReport, "to_json", whole)
    argv = [*_quick_cli(["--json"]), "--identity", "closed_form", "--identity", "decomposition"]
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    # a non-finite residual: one error line, and not a byte of the report
    def nan_residual(cfg):
        yield 5, 2, 0, float("nan"), "", verify.MAIN

    monkeypatch.setitem(verify.IDENTITIES, "closed_form", nan_residual)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: identity closed_form has a non-finite residual nan at n=5, p=2, seed=0\n"
    assert [len(workers) for workers in runs] == ([2, 2] if cpus == 2 else [])


def test_a_report_without_records_is_the_stdlib_encoding():
    # tachibana runs at even n only, so n = 5 gives an empty record list
    report = run_suite(SuiteConfig(n_min=5, n_max=5, identities=("tachibana",)))
    doc = {"config": report.config, "records": [], "summary": report.summary()}
    assert report.records == []
    assert report.to_json() == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


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
    # the message names the function and the option that reaches it
    for p in ("1", "4"):
        assert main(["weitzenboeck", "--input", tensor_file, "--p", p]) == 2
        err = capsys.readouterr().err
        assert "np_definition" in err and "--method definition" in err, p
        assert main(["weitzenboeck", "--input", tensor_file, "--p", p, "--method", "definition"]) == 0
        capsys.readouterr()


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


@pytest.mark.parametrize("command", ["sectional", "spectrum"])
def test_cli_allocation_failure_is_one_error_line(tensor_file, monkeypatch, capsys, command):
    # exit code 1 is verify's failed identity; an array too large for memory
    # (a huge --samples) is the user's input, so it exits 2 like bad input
    def too_large(*args):
        raise MemoryError("Unable to allocate 36.4 TiB for an array")

    monkeypatch.setattr(wz, "sample_frames", too_large)
    assert main([command, "--input", tensor_file, "--p", "2", "--samples", "100000000000"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: Unable to allocate 36.4 TiB for an array\n"


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
    monkeypatch.setattr(exterior, "_BLOCK_ENTRIES", 1000)
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
