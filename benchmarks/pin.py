"""Regenerate pins.json, the answers every benchmark item is checked against.

    python3 benchmarks/pin.py [WORKLOAD...]

With workload names, only those workloads' pins are regenerated.

The pinned answers are ones no planned optimisation may change: optimal cost
and leaf depths per campaign vector and policy, the oracle sweep's `dp`,
`brute` and `optima`, partition values, and the CLI's `cost =` line, tree
and exit codes. Recording still applies every check that does not need a
pin (campaign verdicts, dp = brute, verify-trace PASS), so a broken program
cannot be pinned. Record counts and report bytes are not pinned.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    run_dir = workloads.BENCH_DIR.parent / ".bench_out" / "pin"
    run_dir.mkdir(parents=True, exist_ok=True)
    chosen = sys.argv[1:] or list(workloads.WORKLOADS)
    unknown = set(chosen) - set(workloads.WORKLOADS)
    if unknown:
        print(f"unknown workloads: {sorted(unknown)}", file=sys.stderr)
        return 2
    table = {}
    if workloads.PINS_PATH.exists():
        table = json.loads(workloads.PINS_PATH.read_text(encoding="utf-8"))
    try:
        for workload in chosen:
            pins = workloads.Pins(None)
            workloads.fill_caches(workload)
            for pool_index in range(workloads.POOL):
                inputs = workloads.make_inputs(workload, pool_index, False, run_dir)
                result = workloads.run_pass(inputs, pins)
                if result.failed:
                    for error in result.errors[:20]:
                        print(error, file=sys.stderr)
                    print(f"{workload}: {result.failed} items failed; nothing written",
                          file=sys.stderr)
                    return 1
                print(f"{workload} set {pool_index}: {result.attempted} items", flush=True)
            table[workload] = dict(sorted(pins.table.items()))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    text = json.dumps(table, indent=1, sort_keys=True)
    workloads.PINS_PATH.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
