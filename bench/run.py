"""Benchmark of tunnel-slopes, measured from outside the package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: engine-roundtrip, two-bridge-catalog, cli-oneshot (see
bench/README.md).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.  Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  The code under test is the checkout's own ``src/``, imported in
this process and in every child interpreter; nothing needs installing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import sys
from pathlib import Path

import traced
import workloads

# End-to-end metrics in the JSON line.  failed_ratio is printed with them
# but left out of the line: it is 0 on a correct run, and the result's
# ``failed`` and ``attempted`` carry the same information.
END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb")


def load_package():
    """Import tunnel_slopes from the checkout's src, compiled as installed."""
    package = workloads.SRC / "tunnel_slopes"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {package}; run from the root of a checkout")
    # Byte-compile up front, as installing the package would, so that
    # child interpreters never pay for compiling.
    if not compileall.compile_dir(str(package), quiet=1):
        raise SystemExit("error: the package source does not compile")
    sys.path.insert(0, str(workloads.SRC))
    import tunnel_slopes
    import tunnel_slopes.cli

    if workloads.SRC not in Path(tunnel_slopes.__file__).resolve().parents:
        raise SystemExit(f"error: imported tunnel_slopes from {tunnel_slopes.__file__}, not {workloads.SRC}")
    return tunnel_slopes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None, sizes: workloads.Sizes = workloads.Sizes()) -> int:
    args = parse_args(argv)
    lib = load_package()
    if args.trace:
        result = traced.run(args.workload, lib, args.seed, args.seconds, sizes)
        reported = list(result["metrics"])
    else:
        result = workloads.run(args.workload, lib, args.seed, args.seconds, sizes)
        reported = list(END_TO_END)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print("  notes " + json.dumps(result["notes"], default=str))
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name][0], "unit": result["metrics"][name][1]}
            for name in reported
        },
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
