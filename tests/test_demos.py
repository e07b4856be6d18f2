"""The demos print exactly the pinned text in tests/demo_outputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["slope_roundtrip", "two_bridge_catalog", "torus_knots"])
def test_demo_output_is_pinned(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, f"demos/{name}.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (ROOT / "tests" / "demo_outputs" / f"{name}.txt").read_bytes()
