"""Run the command line in a child process and read the child's own peak RSS.

The child writes the high-water mark of its own address space at exit.  The
ru_maxrss of wait4 would also count the calling test process: Linux carries
the parent's peak RSS into the child's across fork and exec.
"""

import os
import pathlib
import subprocess
import sys

import doubleforms

_CLI_WITH_PEAK = """
import atexit, runpy, sys
peak_path = sys.argv.pop(1)
def report():
    with open("/proc/self/status") as status, open(peak_path, "w") as out:
        out.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
atexit.register(report)
runpy.run_module("doubleforms.cli", run_name="__main__", alter_sys=True)
"""


def run_cli_measured(args, out_path):
    """Run the CLI in a child process; return (exit code, its peak RSS in MB)."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(doubleforms.__file__).parents[1]))
    peak_path = pathlib.Path(out_path).with_suffix(".peak")
    cmd = [sys.executable, "-c", _CLI_WITH_PEAK, str(peak_path), *args]
    with open(out_path, "w") as out:
        code = subprocess.run(cmd, stdout=out, stderr=subprocess.DEVNULL, env=env).returncode
    return code, int(peak_path.read_text()) / 1024  # VmHWM is in kilobytes
