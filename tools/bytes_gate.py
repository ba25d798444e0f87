"""Byte gate: run the same commands on a parent commit and on the working
tree, and print every difference in stdout, stderr, exit code or written
file.

    python3 tools/bytes_gate.py PARENT_REF [--seed N]
    python3 tools/bytes_gate.py --threads [--seed N]

Run it from anywhere inside the checkout.  The parent's committed files
are extracted with ``git archive`` into a temporary directory, which
leaves nothing behind in the repository; the working tree is run as it
stands, uncommitted changes included.  Every command is a cold process
with ``OPENBLAS_NUM_THREADS=1`` (and the OpenMP and MKL equivalents), run
one at a time.  With ``--threads`` in place of a parent, the gate
compares the working tree with itself: each command at 1 thread against
the same command at 2 threads, which shows every output byte that depends
on the BLAS thread count.  The commands:

- the five ``verify`` configurations whose md5s the ROADMAP tracks;
- the 7 cli-n10 and 3 cli-n12 commands of ``bench/run.py``, on the
  tensors its set-up writes with ``bench/inputs.py`` for the seed;
- ``weitzenboeck --method definition``, ``spectrum``, ``sectional`` and
  ``pcurvature`` at n = 12, p = 6, on the same n = 12 tensor;
- ``weitzenboeck --output FILE --json`` at n = 12, p = 6, whose written
  file is compared as one more stream.

Both sides read the same input files and write to the same path.  Each
command prints ``same`` with the md5 of its stdout, or ``DIFF`` followed by
each stream that differs: its sizes, md5s and first differing lines.  When
the differing stdout is a ``verify --json`` report on both sides, each
identity whose records differ gets one more line: how many residuals
moved and the largest |change|, how many verdicts changed, and whether
its (identity, n, p, seed) keys differ.  The exit code is 0 when every command gave the same bytes, written files and
exit code on both sides, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402  (bench/run.py: the CLI workloads' set-up and commands)

CLI = "from doubleforms.cli import entry; entry()"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: The thread count --threads compares with 1.
THREADS = 2
VERIFY = [
    ["verify", "--json"],
    ["verify", "--extended", "--json"],
    ["verify", "--extended", "--seed", "7", "--json"],
    ["verify", "--n-min", "9", "--n-max", "10", "--json"],
    ["verify", "--n-min", "10", "--n-max", "10", "--json"],
]
#: Lines of a differing stream printed at most.
SHOWN = 3
#: Stands for the path of the file a command writes.
OUTPUT = "{output}"


def commands(seed: int, work: str) -> list[tuple[str, list[str]]]:
    """(label, CLI arguments) of every gated command, with the benchmark's
    tensors for seed written to work."""
    out = [(" ".join(args), args) for args in VERIFY]
    n10 = run._tensor_setup(10, perturbed=True)(np.random.default_rng(seed), work)
    out += [(f"cli-n10 {label}", args) for label, args in run._n10_ops(n10)]
    n12 = run._tensor_setup(12, perturbed=False)(np.random.default_rng(seed), work)
    out += [(f"cli-n12 {label}", args) for label, args in run._n12_ops(n12)]
    t, s = n12["tensor"], n12["sample_seed"]
    out += [
        ("n12 weitzenboeck-definition-p6", ["weitzenboeck", "--input", t, "--p", "6", "--method", "definition",
                                            "--json"]),
        ("n12 spectrum-p6", ["spectrum", "--input", t, "--p", "6", "--seed", s, "--json"]),
        ("n12 sectional-p6", ["sectional", "--input", t, "--p", "6", "--seed", s, "--json"]),
        ("n12 pcurvature-p6", ["pcurvature", "--input", t, "--p", "6", "--json"]),
        ("n12 weitzenboeck-p6-output", ["weitzenboeck", "--input", t, "--p", "6", "--output", OUTPUT,
                                        "--json"]),
    ]
    return out


def run_in(tree: str, args: list[str], written: str, threads: int = 1) -> tuple[bytes, bytes, int, bytes]:
    """stdout, stderr, exit code and written file of one cold CLI process on
    tree's src with BLAS on threads threads; OUTPUT in args is the path
    written, whose bytes are read and the file removed (b"" when the command
    writes no file)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.update(dict.fromkeys(THREAD_VARS, str(threads)))
    args = [written if arg == OUTPUT else arg for arg in args]
    proc = subprocess.run([sys.executable, "-c", CLI, *args], capture_output=True, env=env, cwd=tree)
    data = b""
    if os.path.exists(written):
        with open(written, "rb") as fh:
            data = fh.read()
        os.remove(written)
    return proc.stdout, proc.stderr, proc.returncode, data


def md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def differences(name: str, old: bytes, new: bytes) -> list[str]:
    """Lines describing how stream name differs between the trees."""
    if old == new:
        return []
    lines = [f"  {name}: {len(old)} -> {len(new)} bytes, md5 {md5(old)} -> {md5(new)}"]
    a, b = old.splitlines(), new.splitlines()
    shown = 0
    for i in range(max(len(a), len(b))):
        if i >= len(a) or i >= len(b) or a[i] != b[i]:
            lines.append(f"    line {i + 1}: {a[i][:200] if i < len(a) else b'<none>'!r}")
            lines.append(f"         -> {b[i][:200] if i < len(b) else b'<none>'!r}")
            shown += 1
            if shown == SHOWN:
                break
    return lines


def verify_changes(old: bytes, new: bytes) -> list[str]:
    """One line for each identity whose records differ between two verify
    --json reports; [] when either stream is no such report."""
    try:
        sides = [json.loads(data)["records"] for data in (old, new)]
    except (ValueError, KeyError, TypeError):
        return []
    groups: tuple[dict, dict] = ({}, {})
    for records, by_identity in zip(sides, groups):
        for record in records:
            by_identity.setdefault(record["identity"], []).append(record)
    lines = []
    for name in sorted(groups[0].keys() | groups[1].keys()):
        a, b = (by_identity.get(name, []) for by_identity in groups)
        if [(r["n"], r["p"], r["seed"]) for r in a] != [(r["n"], r["p"], r["seed"]) for r in b]:
            lines.append(f"    {name}: keys differ, {len(a)} -> {len(b)} records")
            continue
        moved = [abs(y["residual"] - x["residual"]) for x, y in zip(a, b) if x["residual"] != y["residual"]]
        verdicts = sum(x["passed"] != y["passed"] for x, y in zip(a, b))
        if moved or verdicts:
            lines.append(f"    {name}: {len(moved)} of {len(a)} residuals moved, largest |delta| "
                         f"{max(moved, default=0.0):.3g}, {verdicts} verdicts changed, keys same")
    return lines


def extract(ref: str, into: str) -> None:
    """The files of commit ref, as git archive gives them, under into."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", ref], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", help="the commit to compare the working tree with, e.g. HEAD")
    parser.add_argument("--threads", action="store_true", help=f"compare the working tree at 1 BLAS thread "
                                                               f"with itself at {THREADS}, in place of a parent")
    parser.add_argument("--seed", type=int, default=0, help="seed of the benchmark's input tensors")
    args = parser.parse_args(argv)
    if (args.parent is None) != args.threads:
        parser.error("give either a parent commit or --threads, not both")
    with tempfile.TemporaryDirectory(prefix="bytes_gate_") as tmp:
        work = os.path.join(tmp, "inputs")
        os.mkdir(work)
        if not args.threads:
            parent = os.path.join(tmp, "parent")
            try:
                extract(args.parent, parent)
            except subprocess.CalledProcessError as exc:
                parser.error(f"cannot archive {args.parent!r}: {exc.stderr.decode().strip()}")
            sides = [(parent, 1), (ROOT, 1)]
        else:
            sides = [(ROOT, 1), (ROOT, THREADS)]
        gated, diffs, written = commands(args.seed, work), 0, os.path.join(tmp, "written.json")
        for label, cli_args in gated:
            old, new = (run_in(tree, cli_args, written, threads) for tree, threads in sides)
            lines = differences("stdout", old[0], new[0])
            if lines:
                lines += verify_changes(old[0], new[0])
            lines += differences("stderr", old[1], new[1])
            lines += differences("written file", old[3], new[3])
            if old[2] != new[2]:
                lines.append(f"  exit code: {old[2]} -> {new[2]}")
            file_md5 = f", written md5 {md5(new[3])}" if new[3] else ""
            print(f"{'DIFF' if lines else 'same'}  {label}  (exit {new[2]}, stdout md5 {md5(new[0])}{file_md5})")
            for line in lines:
                print(line)
            sys.stdout.flush()
            diffs += bool(lines)
        print(f"{diffs} of {len(gated)} commands differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
