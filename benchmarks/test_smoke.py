"""The benchmark's own tests, in smoke mode (inputs with n <= 20).

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=BENCH_DIR.parent,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counters_repeat_across_runs(workload):
    first, second = run(workload, 1), run(workload, 1)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {
        name: metric["value"]
        for name, metric in first["metrics"].items()
        if metric["unit"] in ("count", "bytes")
    }
    assert counts == {name: second["metrics"][name]["value"] for name in counts}
