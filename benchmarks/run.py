"""tiebreak benchmark: one workload run, printed as metrics with units.

Usage, from the repository root:

    python3 benchmarks/run.py --workload campaign-ties --seed 1 --seconds 35 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run; `--smoke` keeps only inputs with n <= 20. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. See README.md in this directory.

Each run happens in a fresh interpreter (worker.py), so set-up time covers
interpreter start, import, input generation and cache fills, and the peak
RSS is that of the workload alone. The measuring worker repeats set-up in
SETUP_SAMPLES - 1 set-up-only copies of itself, spread between its passes so
the samples span the run; the median of all set-ups is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("campaign-ties", "campaign-generic", "trace-cli", "oracle-sweep")
SETUP_SAMPLES = 11


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics a run must report, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="inputs with n <= 20 only")
    return parser.parse_args(argv)


def run_worker(args, run_dir: Path):
    """Run worker.py to the end; (set-up seconds, summary)."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if not args.trace:
        cmd += ["--setup-samples", str(SETUP_SAMPLES - 1)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    lines = [json.loads(line) for line in out.decode("utf-8").splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "ready" not in lines[0]:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    if "metrics" not in lines[-1]:
        raise RuntimeError("worker printed no summary")
    return lines[0]["ready"] - spawned, lines[-1]


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "tiebreak" / "__init__.py").is_file():
        print(f"error: no tiebreak sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, summary = run_worker(args, run_dir)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = summary["metrics"]
    notes = summary.get("notes", [])
    if not args.trace:
        setups = [setup_s, *summary["setups"]]
        metrics["setup_s"] = statistics.median(setups)
        metrics["pass_share"] = 1 - summary["failed"] / summary["attempted"]
        notes.append(
            f"setup_s is the median of {len(setups)} set-ups: "
            + ", ".join(f"{s:.3f}" for s in setups)
        )
    units = metric_units(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    for error in summary["errors"]:
        print(error, file=sys.stderr)
    for name in sorted(metrics):
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    for note in notes:
        print(f"{args.workload} note: {note}")
    correct = summary["failed"] == 0 and not summary["errors"]
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
