"""Run the tunnel-slopes CLI once with the benchmark's tracer installed.

Usage: PYTHONPATH=src:bench python3 -m cli_traced SPANS_FILE COMMAND [ARGS...]

Behaves like ``python -m tunnel_slopes COMMAND [ARGS...]`` (same stdout,
stderr and exit code) and, when the command ends, appends one JSON line
with the spans it recorded to SPANS_FILE.  The traced run launches it to
measure what tracing costs a one-shot CLI process.  The package and the
tracer are found through PYTHONPATH.
"""

import json
import sys

import tunnel_slopes.cli
from tracer import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer.installed():
            code = tunnel_slopes.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage this way
        code = exc.code
    with open(spans_file, "a", encoding="utf-8") as out:
        out.write(json.dumps({"argv": argv, "spans": tracer.spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
