"""The demos print exactly the pinned text in tests/demo_outputs, and the
README's Library example runs and prints the values its comments show."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["slope_roundtrip", "two_bridge_catalog", "torus_knots"]
# The values that the Library example's print comments show, in order; its
# other comment on a print describes the line instead of showing it.
README_VALUES = ("[ 21/25 ], 341/60, -13, -13", "[ 1/3 ], 15/7, 9/5", "True")


def _stdout(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


def _pinned(name):
    return (ROOT / "tests" / "demo_outputs" / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_pinned(name):
    assert _stdout(f"demos/{name}.py") == _pinned(name)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_pinned_under_python_optimize(name):
    # python -O strips assert statements, and the package keeps some
    # invariants in them; no answer may depend on one running
    assert _stdout("-O", f"demos/{name}.py") == _pinned(name)


def test_readme_library_example_prints_its_commented_values():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    printed = _stdout("-c", block).decode().splitlines()
    assert len(printed) == len(prints)
    comments = [line.partition("# ")[2] for line in prints]
    assert [c for c in comments if c in README_VALUES] == list(README_VALUES)
    assert [out for c, out in zip(comments, printed) if c in README_VALUES] == list(README_VALUES)
