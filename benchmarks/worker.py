"""One workload run in a fresh interpreter: set up, measure, report.

run.py starts this once per run. It prints `{"ready": <time.monotonic()>}`
when set-up ends and the run's JSON summary as its last line. A copy started
with `--setup-only` exits after the ready line.

Untraced (`--trace 0`): passes over the input set repeat until `--seconds`
have gone by and at least MIN_PASSES ran. Between passes the worker starts
`--setup-samples` set-up-only copies of itself, one at a time and spread
over the run, and reports their set-up times. Traced (`--trace 1`): each
pass runs twice, untraced and with the tracer installed, so the difference
of the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

#: Passes an untraced run makes at least; the tail percentile is chosen so
#: that it has at least ten samples beyond it in this many passes.
MIN_PASSES = 3
#: Traced pass pairs at least, so counters can be compared pass to pass.
MIN_TRACED_PAIRS = 2
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)

CHECK_FAILURES = (
    "feasibility",
    "optimality",
    "oracle-agreement",
    "policy",
    "equivalence",
    "stability",
    "family-departure",
)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--setup-samples", type=int, default=0)
    parser.add_argument("--run-dir", required=True)
    return parser.parse_args(argv)


def tail_percentile(items_per_pass: int, min_passes: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if items_per_pass * min_passes * (100 - p) / 100 >= 10:
            best = p
    return best


def quantile(values: list[float], p: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def fingerprint(bench_dir: Path) -> str:
    """Hash of the package sources and the benchmark files."""
    h = hashlib.sha256()
    paths = sorted((bench_dir.parent / "src" / "tiebreak").glob("*.py"))
    paths += sorted(bench_dir.glob("*.py")) + [bench_dir / "pins.json"]
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_counters_across_runs(out_dir: Path, key: str, counters: dict) -> list[str]:
    """Compare with the counters an earlier run of the same code and seed saved."""
    path = out_dir / "counters" / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        return [
            f"counter {name} was {earlier.get(name)} in an earlier run, now {counters.get(name)}"
            for name in sorted(set(earlier) | set(counters))
            if earlier.get(name) != counters.get(name)
        ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True), encoding="utf-8")
    return []


def end_to_end(workload: str, passes, min_passes: int) -> tuple[dict, list[str]]:
    latencies = [s for p in passes for s in p.latencies_s]
    percentile = tail_percentile(passes[0].attempted, min_passes)
    metrics = {
        # Total over total, so a machine slowdown during part of a run is
        # averaged in rather than voted in or out.
        "items_per_s": len(latencies) / sum(p.wall_s for p in passes),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * quantile(latencies, percentile),
    }
    notes = [
        f"latency_tail_ms is p{percentile:g} of {len(latencies)} samples",
        f"{len(passes)} passes of {passes[0].attempted} items",
    ]
    if workload == "trace-cli":
        metrics["peak_rss_mb"] = max(c["rss_mb"] for p in passes for c in p.children)
        notes.append("peak_rss_mb is the largest CLI child's, from os.wait4")
    else:
        # RUSAGE_SELF: the set-up samples this worker waited for stay out.
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, notes


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics, per pass over the input set, from the traced passes.

    Times are self times summed over a pass; counts are those of one pass.
    """
    from tracer import self_times

    count = len(traced)
    spans = [span for _, tracer in traced for span in tracer.spans]
    own = {name: seconds / count for name, seconds in self_times(spans).items()}
    c = traced[0][1].counts

    def layer_self(prefix: str) -> float:
        return sum(s for name, s in own.items() if name.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    children = [child for result, _ in traced for child in result.children]

    def child_sum(side: str, key: str) -> float:
        return sum(ch[key] for ch in children if ch["side"] == side) / count

    def child_max_rss(side: str) -> float:
        return max((ch["rss_mb"] for ch in children if ch["side"] == side), default=0.0)

    untraced_wall = statistics.median(p.wall_s for p in untraced)
    traced_wall = statistics.median(p.wall_s for p, _ in traced)
    metrics = {
        "alphabetic.phase1_s": own.get("alphabetic.phase1", 0.0),
        "alphabetic.replay_s": own.get("alphabetic.replay", 0.0),
        "alphabetic.explicit_s": own.get("alphabetic.explicit", 0.0),
        "alphabetic.records": c["alphabetic.records"],
        "alphabetic.ties": c["alphabetic.ties"],
        "alphabetic.support": c["alphabetic.support"],
        "alphabetic.records_per_merge": ratio(c["alphabetic.records"], c["alphabetic.merges"]),
        "alphabetic.dp_s": own.get("alphabetic.dp", 0.0),
        "alphabetic.dp_calls": c["alphabetic.dp_calls"],
        "alphabetic.brute_s": own.get("alphabetic.brute", 0.0),
        "alphabetic.brute_trees": c["alphabetic.brute_trees"],
        "alphabetic.reconstruct_s": own.get("alphabetic.reconstruct", 0.0),
        "alphabetic.self_s": layer_self("alphabetic."),
        "trace.verify_s": own.get("trace.verify", 0.0),
        "trace.witness_s": own.get("trace.witness", 0.0),
        "trace.verify_records": c["trace.verify_records"],
        "trace.dump_s": own.get("trace.dump", 0.0),
        "trace.dump_bytes": c["trace.dump_bytes"],
        "trace.load_s": own.get("trace.load", 0.0),
        "trace.load_records": c["trace.load_records"],
        "trace.self_s": layer_self("trace."),
        "perturb.shadow_calls": c["perturb.shadow_calls"],
        "perturb.max_step_s": own.get("perturb.max_step", 0.0),
        "perturb.tie_share": ratio(c["alphabetic.ties"], c["alphabetic.records"]),
        "core.parse_calls": c["core.parse_calls"],
        "partition.greedy_s": own.get("partition.greedy", 0.0),
        "partition.records": c["partition.records"],
        "partition.brute_s": own.get("partition.brute", 0.0),
        "partition.self_s": layer_self("partition."),
        "harness.check_self_s": own.get("harness.check", 0.0),
        "harness.generate_s": own.get("harness.generate", 0.0),
        "harness.binding_s": own.get("harness.binding", 0.0),
        "harness.lipschitz_s": own.get("harness.lipschitz", 0.0),
        "harness.render_s": own.get("harness.render", 0.0),
        "harness.report_bytes": c["harness.report_bytes"],
        "harness.replay_witness_ratio": ratio(
            c["harness.replays_at_witness"], c["harness.replays"]
        ),
        "harness.self_s": layer_self("harness."),
        "cli.startup_s": sum(ch.get("startup_s", 0.0) for ch in children) / count,
        "cli.solve_s": child_sum("solve", "seconds"),
        "cli.verify_s": child_sum("verify", "seconds"),
        "cli.solve_rss_mb": child_max_rss("solve"),
        "cli.verify_rss_mb": child_max_rss("verify"),
        "cli.nonzero_exits": sum(1 for ch in children if ch["exit"] != 0) / count,
        "cli.self_s": layer_self("cli."),
        "tracer.self_s": own.get("tracer", 0.0),
        "tracer.spans": len(traced[0][1].spans),
        "tracer.overhead_s": traced_wall - untraced_wall,
        "tracer.overhead_share": ratio(traced_wall - untraced_wall, untraced_wall),
    }
    for name in CHECK_FAILURES:
        metrics[f"harness.failures.{name}"] = c[f"harness.failures.{name}"]
    return metrics


def time_setup(run_dir: Path) -> float:
    """Start a set-up-only copy of this worker; seconds from spawn to ready."""
    cmd = [sys.executable, sys.argv[0], *sys.argv[1:], "--setup-only",
           "--run-dir", str(run_dir / "setup")]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out, _ = proc.communicate()
    lines = [json.loads(line) for line in out.decode("utf-8").splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines or "ready" not in lines[0]:
        raise RuntimeError(f"set-up worker exited with status {proc.returncode}")
    return lines[0]["ready"] - spawned


def measure(inputs, pins, seconds: float, traced: bool, min_passes: int, setup_samples: int):
    """Repeat passes until `seconds` are up; traced runs pair each pass.

    Returns (untraced passes, traced pairs, set-up sample seconds). The
    set-up samples are taken between passes, as many so far as the share
    of `seconds` gone by, and topped up at the end.
    """
    from tracer import Tracer
    import workloads

    def traced_pass() -> None:
        tracer = Tracer()
        tracer.install()
        try:
            pairs.append((workloads.run_pass(inputs, pins, tracer), tracer))
        finally:
            tracer.uninstall()

    def sample_setups(share: float) -> None:
        while len(setups) < min(setup_samples, math.ceil(setup_samples * share)):
            setups.append(time_setup(inputs.run_dir))

    # Each pass (with its traced twin and the set-up samples after it) runs
    # on the next CPU in turn. On a shared host, other tenants slow one CPU
    # at a time; taking turns averages that in, instead of leaving it to
    # wherever the scheduler keeps this single busy process.
    cpus = sorted(os.sched_getaffinity(0))
    untraced, pairs, setups = [], [], []
    start = perf_counter()
    deadline = start + seconds
    while True:
        os.sched_setaffinity(0, {cpus[len(untraced) % len(cpus)]})
        # Alternate which side of a pair goes first, so warm-up and drift
        # do not all land on one side of the overhead.
        if traced and len(pairs) % 2:
            traced_pass()
        untraced.append(workloads.run_pass(inputs, pins))
        if traced and len(pairs) < len(untraced):
            traced_pass()
        sample_setups((perf_counter() - start) / seconds)
        if perf_counter() >= deadline and len(untraced) >= min_passes:
            sample_setups(1.0)
            return untraced, pairs, setups


def determinism_errors(every_pass, traced) -> tuple[list[str], dict]:
    """Passes over equal inputs must agree; returns (errors, counters of one pass)."""
    errors = []
    first = every_pass[0]
    for index, p in enumerate(every_pass):
        if (p.attempted, p.failed, p.outputs) != (first.attempted, first.failed, first.outputs):
            errors.append(f"benchmark error: pass {index} output differs from pass 0")
    counters = {"items": first.attempted, "outputs": first.outputs}
    if traced:
        base = traced[0][1].counts
        for index, (_, tracer) in enumerate(traced):
            for name in sorted(set(base) | set(tracer.counts)):
                if tracer.counts[name] != base[name]:
                    errors.append(
                        f"benchmark error: counter {name} is {tracer.counts[name]} in"
                        f" traced pass {index}, {base[name]} in traced pass 0"
                    )
        counters.update(base)
        counters["tracer.spans"] = len(traced[0][1].spans)
    return errors, counters


def main(argv=None) -> int:
    args = _args(argv)
    bench_dir = Path(__file__).resolve().parent
    import workloads

    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    pool_index = args.seed % workloads.POOL
    inputs = workloads.make_inputs(args.workload, pool_index, args.smoke, run_dir)
    workloads.fill_caches(args.workload)
    pins = workloads.load_pins(args.workload)
    print(json.dumps({"ready": time.monotonic()}), flush=True)
    if args.setup_only:
        return 0

    min_passes = 2 if args.smoke else MIN_TRACED_PAIRS if args.trace else MIN_PASSES
    untraced, traced, setups = measure(
        inputs, pins, args.seconds, bool(args.trace), min_passes, args.setup_samples
    )
    every_pass = untraced + [result for result, _ in traced]
    errors = sorted({e for p in every_pass for e in p.errors})[:20]
    more_errors, counters = determinism_errors(every_pass, traced)
    errors += more_errors
    key = "-".join(
        [args.workload, f"set{pool_index}", "smoke" if args.smoke else "full",
         "traced" if args.trace else "untraced", fingerprint(bench_dir)]
    )
    errors += [
        f"benchmark error: {message}"
        for message in check_counters_across_runs(run_dir.parent, key, counters)
    ]

    attempted = sum(p.attempted for p in every_pass)
    failed = sum(p.failed for p in every_pass)
    summary = {"attempted": attempted, "failed": failed, "errors": errors, "setups": setups}
    if args.trace:
        summary["metrics"] = per_layer(untraced, traced)
        summary["metrics"]["failed_share"] = failed / attempted
        spans_path = run_dir.parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for index, (_, tracer) in enumerate(traced):
                for span in tracer.spans:
                    fh.write(json.dumps([index, *span]) + "\n")
        summary["notes"] = [f"{len(traced)} traced passes; spans in {spans_path.name}"]
    else:
        summary["metrics"], summary["notes"] = end_to_end(args.workload, untraced, min_passes)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
