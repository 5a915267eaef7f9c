"""Traced stand-in for ``python -m tailbound``, used by cli-oneshot's traced run.

    python bench/launch.py SPANS_FILE ARGV...

Imports tailbound, wraps its layer functions with the benchmark's tracer,
runs ``cli.main(ARGV)`` and writes the spans to SPANS_FILE as JSON before
exiting with main's exit code.  The package import itself is the first
span, ``import.tailbound``.
"""

import json
import sys
import time

import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    t0 = time.perf_counter_ns()
    import tailbound.cli
    tr.spans.append(("import.tailbound", t0, time.perf_counter_ns(), -1, 0, 0, -1))
    tr.install()
    tr.op = 0
    try:
        return tailbound.cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tr.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
