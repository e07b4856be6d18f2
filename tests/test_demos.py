"""The demos print exactly the pinned text in tests/demo_outputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["slope_roundtrip", "two_bridge_catalog", "torus_knots"]


def _demo_stdout(name, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, f"demos/{name}.py"],
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
    assert _demo_stdout(name) == _pinned(name)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_is_pinned_under_python_optimize(name):
    # python -O strips assert statements, and the package keeps some
    # invariants in them; no answer may depend on one running
    assert _demo_stdout(name, "-O") == _pinned(name)
