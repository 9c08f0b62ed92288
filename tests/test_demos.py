"""Every narrative script in demos/ runs to completion, and README's library
example prints what its comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"

# runs the code on stdin with a NUL written after each print call, so that
# stdout splits into one chunk per call
PRINT_CALLS = """\
import builtins, sys
_print = builtins.print
def _marked(*args, **kwargs):
    _print(*args, **kwargs)
    sys.stdout.write("\\0")
builtins.print = _marked
exec(compile(sys.stdin.read(), "README.md", "exec"), {"__name__": "__main__"})
"""


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_library_example_prints_what_its_comments_say(tmp_path):
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", PRINT_CALLS], input=block, cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    outputs = proc.stdout.split("\0")[:-1]
    assert len(outputs) == len(prints)
    # "print(x)  # value: why" or "# value; why": x prints value, without its quotes
    expected = [re.match(r"print\(.*\)\s+# (.*)$", line) for line in prints]
    checked = [(re.split(r"[:;] ", m[1], maxsplit=1)[0].strip('"'), out.rstrip("\n"))
               for m, out in zip(expected, outputs) if m]
    assert len(checked) >= 5
    for value, out in checked:
        assert out == value
