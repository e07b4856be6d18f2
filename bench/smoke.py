"""Smoke check of the benchmark itself: every workload at a tiny size.

Usage, from the root of a checkout:

    python3 bench/smoke.py

Runs each workload untraced and traced with tiny inputs, and asserts that
the result line names every metric BENCHMARK.json lists for that mode, with
its unit, and that no operation failed (failed_ratio 0).  It has no timing
bound.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads


def check(workload: str, trace: int, expected: list[dict]) -> list[str]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = run.main(
            ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
            sizes=workloads.Sizes.tiny(),
        )
    lines = printed.getvalue().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
    if not trace and not any(line.split()[:2] == ["failed_ratio", "0"] for line in lines):
        problems.append("failed_ratio is not reported as 0")
    names = {m["name"]: m["unit"] for m in expected}
    if set(result["metrics"]) != set(names):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(result['metrics']) ^ set(names))}")
    for name, unit in names.items():
        got = result["metrics"].get(name)
        if got is not None and (got["unit"] != unit or not isinstance(got["value"], (int, float))):
            problems.append(f"{name}: {got}")
    return problems


def main() -> int:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for entry in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(entry["name"], trace, spec[key])
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{entry['name']} --trace {trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
