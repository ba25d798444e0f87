"""Run the command line in a child process and read what the child itself
reports at exit: its peak RSS, the largest peak RSS among the processes it
waited for (the suite's forked workers) and the modules it loaded.

The child writes the high-water mark of its own address space at exit.  The
ru_maxrss of wait4 would also count the calling test process: Linux carries
the parent's peak RSS into the child's across fork and exec.  The child
reads the peak of its workers from its own RUSAGE_CHILDREN, which counts
only the processes it waited for.
"""

import json
import os
import pathlib
import subprocess
import sys

import doubleforms

_REPORT_AT_EXIT = """
import atexit, sys
report_path = sys.argv.pop(1)
def report():
    with open("/proc/self/status") as status:
        peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    import json, resource
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(report_path, "w") as out:
        json.dump({"peak_kb": int(peak_kb), "workers_kb": workers_kb, "modules": sorted(sys.modules)}, out)
atexit.register(report)
"""

_CLI = 'import runpy; runpy.run_module("doubleforms.cli", run_name="__main__", alter_sys=True)'


def _run_reported(source, args, out_path):
    """Run source in a child process with args as its arguments and its
    stdout written to out_path; return its exit code and its report."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(doubleforms.__file__).parents[1]))
    report_path = pathlib.Path(out_path).with_suffix(".report")
    cmd = [sys.executable, "-c", _REPORT_AT_EXIT + source, str(report_path), *args]
    with open(out_path, "w") as out:
        code = subprocess.run(cmd, stdout=out, stderr=subprocess.DEVNULL, env=env).returncode
    return code, json.loads(report_path.read_text())


def run_measured(source, args, out_path):
    """Run source in a child process with args as its arguments and its
    stdout written to out_path; return (exit code, its peak RSS in MB, the
    names of the modules it had loaded at exit)."""
    code, report = _run_reported(source, args, out_path)
    return code, report["peak_kb"] / 1024, set(report["modules"])  # VmHWM is in kilobytes


def run_cli_with_workers(args, out_path):
    """Run the CLI in a child process; return (exit code, the largest peak
    RSS in MB of the child and of each process it waited for)."""
    code, report = _run_reported(_CLI, args, out_path)
    return code, max(report["peak_kb"], report["workers_kb"]) / 1024  # ru_maxrss is in kilobytes too


def run_cli_measured(args, out_path):
    """Run the CLI in a child process; return (exit code, its peak RSS in MB)."""
    code, peak_mb, _ = run_measured(_CLI, args, out_path)
    return code, peak_mb


def run_cli_modules(args, out_path):
    """Run the CLI in a child process; return (exit code, the modules it loaded)."""
    code, _, modules = run_measured(_CLI, args, out_path)
    return code, modules
