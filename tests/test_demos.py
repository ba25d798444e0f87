"""Every narrative script in demos/ and every python block of README.md
runs to completion."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)


def _run(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=path),
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script):
    _run([str(script)])


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("code", [pytest.param(code, id=f"block{i}")
                                  for i, code in enumerate(README_BLOCKS, 1)])
def test_readme_python_block_exits_cleanly(code):
    _run(["-c", code])
