"""Benchmark of the doubleforms command line, run from a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the checkout: the program is imported from
./src, and scratch files go to ./.bench_tmp, which is removed afterwards.

Workloads (see BENCHMARK.json for why each was chosen):

  suite-extended  ``doubleforms verify --extended --json --seed B``, B drawn
                  from N: one process, 1084 identity records; one operation
                  = one record.
  cli-n10         seven cold CLI processes on a seeded n = 10 tensor at p = 5;
                  one operation = one process.
  cli-n12         three cold CLI processes on a seeded n = 12 tensor.

A run first sets up SETUP_REPEATS times (writes the seeded input files and
imports the program once in a fresh interpreter, the fixed start cost every
process pays) and reports the median as setup_s.  With --trace 0 it then
runs whole batches of the workload, starting another batch only while the
time measured so far plus the last batch fits in --seconds (at least one),
and reports the median batch wall time and the largest peak RSS of any
process.  With --trace 1 it runs one untraced and one traced batch and
reports the per-layer metrics of the traced one.  Every process's output
is checked (see checks.py); the last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs
from tracing import ROOT, TABLES, TRACED

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # a run must end within 180 s
PERTURBATION = 1e-6  # relative size of the non-Bianchi perturbation
SAMPLES = 100  # sampled planes of spectrum / sectional (the CLI default)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CLI = "from doubleforms.cli import entry; entry()"
IMPORT_PROBE = "import doubleforms, doubleforms.cli; print(doubleforms.__file__)"

#: Commands left out of cli-n12 because they cannot run on an 8 GB, 2 vCPU
#: machine today (measured before this benchmark was written).
EXCLUDED = {
    "cli-n12": (
        ("weitzenboeck --method definition --p 6",
         "42 s and 5.8 GB peak RSS: the dense _ad_table is 924 x 66 x 4096 float64 "
         "(2.0 GB) plus a temporary of the same size"),
        ("spectrum --p 6, sectional --p 6", "build the same dense _ad_table"),
        ("pcurvature --p 6", "179 s, spent in pure-Python Jacobi on a 924 x 924 matrix"),
    ),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken set-up)."""


@dataclass
class Result:
    """One finished process."""

    op: str
    rc: int
    wall_s: float
    rss_mb: float
    out_path: str
    err_path: str
    summary_path: str | None = None
    status: str = "ok"  # "ok", "exit ...", or "wrong: ..."

    def doc(self):
        try:
            with open(self.out_path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def stderr_tail(self) -> str:
        with open(self.err_path) as fh:
            lines = [line.strip() for line in fh if line.strip()]
        return lines[-1] if lines else ""


@dataclass
class Batch:
    results: list[Result]
    wall_s: float
    attempted: int = 0
    failed: int = 0
    wrong: int = 0


@dataclass(frozen=True)
class Workload:
    """setup writes the seeded inputs and returns the context that ops and
    check read; check returns (attempted, failed, wrong answers)."""

    setup: Callable[[np.random.Generator, str], dict]
    ops: Callable[[dict], list[tuple[str, list[str]]]]
    check: Callable[[dict[str, Result], dict], tuple[int, int, int]]


# -- processes ----------------------------------------------------------------


class Runner:
    """Starts the program's processes from the checkout and reaps each one."""

    def __init__(self, root: str, work: str, deadline: float) -> None:
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_ENV)
        self.count = 0

    def _prefix(self, tag: str) -> str:
        self.count += 1
        return os.path.join(self.work, f"{self.count:03d}-{tag}")

    def run(self, argv: list[str], prefix: str) -> tuple[int, float, float]:
        """Run argv with output to prefix.out / prefix.err: (exit code, wall s, peak RSS MB)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        with open(prefix + ".out", "w") as out, open(prefix + ".err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, op: str, args: list[str], traced: bool) -> Result:
        """Run the doubleforms command line, or its traced counterpart."""
        prefix = self._prefix(op)
        if traced:
            argv = [sys.executable, os.path.join(BENCH_DIR, "tracing.py"), prefix + ".trace.json", *args]
        else:
            argv = [sys.executable, "-c", CLI, *args]
        rc, wall, rss = self.run(argv, prefix)
        return Result(op, rc, wall, rss, prefix + ".out", prefix + ".err",
                      prefix + ".trace.json" if traced else None)

    def import_probe(self) -> None:
        """Import the program in a fresh interpreter; it must come from ./src."""
        prefix = self._prefix("import")
        rc, _, _ = self.run([sys.executable, "-c", IMPORT_PROBE], prefix)
        with open(prefix + ".out") as fh:
            where = fh.read().strip()
        src = os.path.join(self.root, "src") + os.sep
        if rc != 0 or not os.path.abspath(where).startswith(src):
            with open(prefix + ".err") as fh:
                raise BenchError(f"cannot import doubleforms from {src}: {fh.read().strip()[-300:]}")


# -- workloads ----------------------------------------------------------------


def _suite_setup(rng: np.random.Generator, work: str) -> dict:
    return {"base_seed": int(rng.integers(0, 2 ** 31))}


def _suite_ops(ctx: dict) -> list[tuple[str, list[str]]]:
    return [("verify-extended", ["verify", "--extended", "--json", "--seed", str(ctx["base_seed"])])]


def _suite_check(results: dict[str, Result], ctx: dict) -> tuple[int, int, int]:
    res = results["verify-extended"]
    doc = res.doc()
    attempted, failed = checks.check_suite(res.rc, doc)
    exited_normally = doc is not None and res.rc in (0, 1)
    if failed:
        res.status = (f"wrong: {failed} records with an unexpected verdict or missing"
                      if exited_normally else f"exit {res.rc}: {res.stderr_tail()}")
    return attempted, failed, failed if exited_normally else 0


def _tensor_setup(n: int, perturbed: bool):
    def setup(rng: np.random.Generator, work: str) -> dict:
        W = inputs.random_curvature(rng, n)
        ctx = {"n": n, "W": W, "tensor": os.path.join(work, f"tensor-n{n}.json"),
               "sample_seed": str(int(rng.integers(0, 2 ** 31)))}
        inputs.write_tensor(ctx["tensor"], n, W)
        if perturbed:
            ctx["W_in"] = inputs.non_bianchi_perturbation(rng, W, PERTURBATION)
            ctx["perturbed"] = os.path.join(work, f"tensor-n{n}-perturbed.json")
            inputs.write_tensor(ctx["perturbed"], n, ctx["W_in"])
        return ctx
    return setup


def _n10_ops(ctx: dict) -> list[tuple[str, list[str]]]:
    t, s = ctx["tensor"], ctx["sample_seed"]
    return [
        ("decompose", ["decompose", "--input", t, "--json"]),
        ("weitzenboeck-p5", ["weitzenboeck", "--input", t, "--p", "5", "--json"]),
        ("weitzenboeck-definition-p5",
         ["weitzenboeck", "--input", t, "--p", "5", "--method", "definition", "--json"]),
        ("spectrum-p5", ["spectrum", "--input", t, "--p", "5", "--seed", s, "--json"]),
        ("sectional-p5", ["sectional", "--input", t, "--p", "5", "--seed", s, "--json"]),
        ("pcurvature-p5", ["pcurvature", "--input", t, "--p", "5", "--json"]),
        ("decompose-project", ["decompose", "--input", ctx["perturbed"], "--project", "--json"]),
    ]


def _n12_ops(ctx: dict) -> list[tuple[str, list[str]]]:
    t = ctx["tensor"]
    return [
        ("decompose", ["decompose", "--input", t, "--json"]),
        ("weitzenboeck-p4", ["weitzenboeck", "--input", t, "--p", "4", "--json"]),
        ("weitzenboeck-p6", ["weitzenboeck", "--input", t, "--p", "6", "--json"]),
    ]


def _checked(res: Result, check: Callable[[dict], object]):
    """Run check on res's output unless res already failed; returns its value."""
    if res.status != "ok":
        return None
    if res.rc != 0:
        res.status = f"exit {res.rc}: {res.stderr_tail()}"
        return None
    doc = res.doc()
    try:
        if doc is None:
            raise checks.WrongOutput("output is not JSON")
        return check(doc)
    except (checks.WrongOutput, KeyError, TypeError, ValueError) as exc:
        res.status = f"wrong: {exc}"
        return None


def _cli_check(results: dict[str, Result], ctx: dict) -> tuple[int, int, int]:
    n, W = ctx["n"], ctx["W"]
    matrices = {}
    for op, res in results.items():
        if op == "decompose":
            _checked(res, lambda d: checks.check_decompose(d, W, n))
        elif op == "decompose-project":
            _checked(res, lambda d: checks.check_decompose_projected(d, W, ctx["W_in"], n))
        elif op.startswith("weitzenboeck"):
            p = int(op.rsplit("-p", 1)[1])
            matrices[op] = _checked(res, lambda d: checks.check_operator(d, W, n, p))
    formula, definition = matrices.get("weitzenboeck-p5"), matrices.get("weitzenboeck-definition-p5")
    if formula is not None and definition is not None:
        try:
            checks.check_same_operator(formula, definition)
        except checks.WrongOutput as exc:
            for op in ("weitzenboeck-p5", "weitzenboeck-definition-p5"):
                results[op].status = f"wrong: {exc}"
            formula = definition = None
    reference = definition if definition is not None else formula
    for op, check in (("spectrum-p5", checks.check_spectrum), ("sectional-p5", checks.check_sectional)):
        if op in results:
            if reference is None:
                results[op].status = "wrong: no verified order-5 operator to compare with"
            else:
                _checked(results[op], lambda d: check(d, reference, SAMPLES))
    if "pcurvature-p5" in results:
        _checked(results["pcurvature-p5"], lambda d: checks.check_pcurvature(d, n, 5))
    failed = sum(res.status != "ok" for res in results.values())
    wrong = sum(res.status.startswith("wrong") for res in results.values())
    return len(results), failed, wrong


WORKLOADS = {
    "suite-extended": Workload(_suite_setup, _suite_ops, _suite_check),
    "cli-n10": Workload(_tensor_setup(10, perturbed=True), _n10_ops, _cli_check),
    "cli-n12": Workload(_tensor_setup(12, perturbed=False), _n12_ops, _cli_check),
}

#: Every CLI operation of any workload, for the per-operation metrics.
CLI_OPS = ("verify-extended", "decompose", "weitzenboeck-p5", "weitzenboeck-definition-p5",
           "spectrum-p5", "sectional-p5", "pcurvature-p5", "decompose-project",
           "weitzenboeck-p4", "weitzenboeck-p6")

#: The suite's identities, in report order (verify.IDENTITIES).
IDENTITIES = tuple(checks.SUITE_RECORDS)


# -- metrics ------------------------------------------------------------------


def end_to_end_metrics() -> dict[str, str]:
    return {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_metrics() -> dict[str, str]:
    """name -> unit of every per-layer metric, in BENCHMARK.json order."""
    out = {}
    for mod, names in TRACED.items():
        for fn in names:
            out[f"{mod}.{fn}.calls"] = "count"
            out[f"{mod}.{fn}.self_s"] = "s"
    out[f"{ROOT}.self_s"] = "s"
    for label in (f"{mod}.{fn}" for mod, fn in TABLES):
        out[f"{label}.builds"] = "count"
        out[f"{label}.hit_ratio"] = "ratio"
        out[f"{label}.built_mb"] = "MB_computed"
    for name in IDENTITIES:
        out[f"verify.{name}.s"] = "s"
    for op in CLI_OPS:
        out[f"cli.{op}.s"] = "s"
        out[f"cli.{op}.rss_mb"] = "MB"
    out.update({"trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
                "trace.overhead_s": "s", "trace.spans": "count"})
    return out


def _per_layer_values(untraced: Batch, traced: Batch) -> dict[str, float]:
    values = {name: 0 if unit == "count" else 0.0 for name, unit in per_layer_metrics().items()}
    tables: dict[str, list[float]] = {}
    for res in traced.results:
        with open(res.summary_path) as fh:
            summary = json.load(fh)
        for label, stats in summary["functions"].items():
            values[f"{label}.calls"] = values.get(f"{label}.calls", 0) + stats["calls"]
            values[f"{label}.self_s"] += stats["self_s"]
        for label, stats in summary["tables"].items():
            acc = tables.setdefault(label, [0, 0, 0])
            acc[0] += stats["builds"]
            acc[1] += stats["hits"]
            acc[2] += stats["built_bytes"]
        for name, seconds in summary["verify"].items():
            values[f"verify.{name}.s"] = seconds
        values["trace.spans"] += summary["spans"]
    values.pop(f"{ROOT}.calls", None)
    for label, (builds, hits, nbytes) in tables.items():
        values[f"{label}.builds"] = builds
        values[f"{label}.hit_ratio"] = hits / (hits + builds) if hits + builds else 0.0
        values[f"{label}.built_mb"] = nbytes / 2 ** 20
    for res in untraced.results:
        values[f"cli.{res.op}.s"] = res.wall_s
        values[f"cli.{res.op}.rss_mb"] = res.rss_mb
    values["trace.untraced_wall_s"] = untraced.wall_s
    values["trace.traced_wall_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return values


# -- a run --------------------------------------------------------------------


def run_batch(wl: Workload, ctx: dict, runner: Runner, traced: bool) -> Batch:
    results = []
    start = time.perf_counter()
    for op, args in wl.ops(ctx):
        results.append(runner.cli(op, args, traced))
    batch = Batch(results, time.perf_counter() - start)
    batch.attempted, batch.failed, batch.wrong = wl.check({r.op: r for r in results}, ctx)
    for res in results:
        print(f"  {'traced ' if traced else ''}{res.op:28s} exit {res.rc:2d}  {res.wall_s:8.3f} s  "
              f"{res.rss_mb:8.1f} MB  {res.status}")
    return batch


def run(workload: str, seed: int, seconds: int, trace: bool, root: str) -> dict:
    """One run of one workload; returns the result object printed last."""
    wl = WORKLOADS[workload]
    if not os.path.isfile(os.path.join(root, "src", "doubleforms", "cli.py")):
        raise BenchError(f"no program source at {os.path.join(root, 'src', 'doubleforms')}")
    work_root = os.path.join(root, ".bench_tmp")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    try:
        runner = Runner(root, work, time.perf_counter() + RUN_LIMIT_S)
        env = dict(inputs.environment(), blas_threads=THREAD_ENV["OPENBLAS_NUM_THREADS"])
        print("env " + json.dumps(env, sort_keys=True))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ctx = wl.setup(np.random.default_rng(seed), work)
            runner.import_probe()
            setup_times.append(time.perf_counter() - start)
        for cmd, why in EXCLUDED.get(workload, ()):
            print(f"excluded: {cmd}: {why}")
        if trace:
            batches = [run_batch(wl, ctx, runner, traced=False), run_batch(wl, ctx, runner, traced=True)]
            values = _per_layer_values(*batches)
            metrics = {name: (values[name], unit) for name, unit in per_layer_metrics().items()}
            for name, (value, unit) in metrics.items():
                print(f"  {name:48s} {value:14.6f} {unit}")
        else:
            batches = []
            start = time.perf_counter()
            while True:
                batches.append(run_batch(wl, ctx, runner, traced=False))
                if time.perf_counter() - start + batches[-1].wall_s > seconds:
                    break
            metrics = {
                "wall_s": (statistics.median(b.wall_s for b in batches), "s"),
                "peak_rss_mb": (max(r.rss_mb for b in batches for r in b.results), "MB"),
                "setup_s": (statistics.median(setup_times), "s"),
            }
        attempted = sum(b.attempted for b in batches)
        failed = sum(b.failed for b in batches)
        wrong = sum(b.wrong for b in batches)
        shown = "" if trace else "".join(f"{k}={v:.6g} {u}  " for k, (v, u) in metrics.items())
        print(f"{workload}: batches={len(batches)}  {shown}ops={attempted} count  "
              f"failed_ops={failed} count  fail_frac={failed / attempted:.6g}")
        return {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="'all' runs every workload and prints one summary line each")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run(name, args.seed, args.seconds, bool(args.trace), os.getcwd())
                   for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
