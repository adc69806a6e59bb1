"""Traced CLI child: install the tracer, run `tiebreak.cli.main(argv)`, save spans.

Usage: cli_child.py SPANS_JSON CLI_ARG... with TIEBREAK_BENCH_SPAWN set to
the parent's `time.monotonic()` just before it started this process.
"""

import json
import os
import sys
import time

from tracer import Tracer

import tiebreak.cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading applies.
    startup_s = time.monotonic() - float(os.environ["TIEBREAK_BENCH_SPAWN"])
    try:
        return tiebreak.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"startup_s": startup_s, "spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
