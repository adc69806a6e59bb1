"""The four workloads: inputs from a seed, one pass over them, answer checks.

Every workload is a closed loop with one client: one item at a time, and for
`trace-cli` one CLI child process at a time. A seed selects one of `POOL`
input sets, so that every answer the benchmark can meet is pinned in
`pins.json`. Inputs are generated with the package's public `generate`, and
the program is driven only through its public functions and its CLI.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tiebreak as tb

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
PINS_PATH = BENCH_DIR / "pins.json"

WORKLOADS = ("campaign-ties", "campaign-generic", "trace-cli", "oracle-sweep")

#: Distinct input sets per workload; seed s runs input set s mod POOL.
POOL = 10

#: The smoke mode keeps only items with n at or below this.
SMOKE_N_MAX = 20

#: Sizes up to this use the brute-force oracle, whose table set-up fills.
BRUTE_N_MAX = 11

TIE_FAMILIES = ("all-equal", "equal-blocks:3", "pair-sum-ties")
GENERIC_FAMILIES = ("palindrome", "uniform-random", "zero-sprinkled")

#: (n, weight vectors per family). A fixed size ladder, small sizes common,
#: in place of the campaign's size sampler: the sampler draws the few large
#: sizes at random, and that alone moved the work per campaign by 15% (tie
#: families) to 38% (generic) between seeds. The top size has four vectors
#: per family so that the tail percentile falls among items of one size.
CAMPAIGN_LADDER = (
    (2, 3), (3, 3), (4, 3), (5, 3), (6, 3), (8, 3), (11, 3),
    (13, 2), (16, 2), (20, 2), (24, 2), (32, 2), (40, 4),
)
CAMPAIGN_SEED = 20260822
LIPSCHITZ_PAIRS = 16
LIPSCHITZ_N_MAX = 40

#: (family, n, policy) of each weights file; each is solved with
#: `--emit-trace` and the trace is then checked with `verify-trace`.
CLI_FILES = (
    ("all-equal", 80, "leftmost"),
    ("uniform-random", 64, "rightmost"),
    ("zero-sprinkled", 48, "leftmost"),
    ("equal-blocks:3", 40, "rightmost"),
    ("pair-sum-ties", 32, "leftmost"),
    ("palindrome", 24, "rightmost"),
    ("all-equal", 16, "rightmost"),
    ("zero-sprinkled", 5, "leftmost"),
    ("all-equal", 1, "rightmost"),
)
ORIENTATION_FLAG = {"leftmost": "neg", "rightmost": "pos"}

ORACLE_FAMILIES = (
    "uniform-random", "all-equal", "zero-sprinkled",
    "pair-sum-ties", "palindrome", "equal-blocks:3",
)
ORACLE_PER_SIZE = 10  # dp against brute force, n = 2..11
PARTITION_PER_SIZE = 4  # greedy against brute force, n = 1..16
DP_LARGE_SIZES = (160, 240, 320)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def weights_key(w) -> str:
    return digest(" ".join(tb.format_rational(x) for x in w))


class Pins:
    """Pinned answers by item key; with `table=None` it records them instead."""

    def __init__(self, table: dict[str, str] | None):
        self.recording = table is None
        self.table = {} if table is None else table

    def check(self, key: str, answer: str) -> bool:
        if self.recording:
            return self.table.setdefault(key, answer) == answer
        return self.table.get(key) == answer


def load_pins(workload: str) -> Pins:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return Pins(json.load(fh)[workload])


@dataclass
class PassResult:
    """One pass over a workload's input set."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    # Digest of every output the pass produced; equal inputs give equal bytes.
    outputs: str = ""
    errors: list[str] = field(default_factory=list)
    # trace-cli only: per-command child measurements.
    children: list[dict] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Inputs


@dataclass
class Inputs:
    workload: str
    items: list  # workload-specific item descriptions
    run_dir: Path


def make_inputs(workload: str, pool_index: int, smoke: bool, run_dir: Path) -> Inputs:
    if workload in ("campaign-ties", "campaign-generic"):
        items = _campaign_configs(workload, pool_index, smoke)
    elif workload == "trace-cli":
        items = _cli_files(pool_index, smoke, run_dir)
    else:
        items = _oracle_items(pool_index, smoke)
    return Inputs(workload, items, run_dir)


def fill_caches(workload: str) -> None:
    """Lazy set-up the timed loop would otherwise pay on first use."""
    if workload != "trace-cli":
        for n in range(1, BRUTE_N_MAX + 1):
            tb.brute_force_optimal((1,) * n)


def _campaign_configs(workload: str, pool_index: int, smoke: bool) -> list:
    generic = workload == "campaign-generic"
    families = GENERIC_FAMILIES if generic else TIE_FAMILIES
    ladder = [(n, c) for n, c in CAMPAIGN_LADDER if not smoke or n <= SMOKE_N_MAX]
    configs = []
    for position, (n, count) in enumerate(ladder):
        configs.append(
            tb.CampaignConfig(
                seed=CAMPAIGN_SEED + pool_index,
                counts=tuple((tb.Family.parse(token), count) for token in families),
                n_min=n,
                n_max=n,
                lipschitz_pairs=LIPSCHITZ_PAIRS if generic and position == 0 else 0,
                lipschitz_n_max=SMOKE_N_MAX if smoke else LIPSCHITZ_N_MAX,
            )
        )
    return configs


def _cli_files(pool_index: int, smoke: bool, run_dir: Path) -> list:
    files = []
    for index, (token, n, policy) in enumerate(CLI_FILES):
        if smoke and n > SMOKE_N_MAX:
            continue
        w = tb.generate(tb.Family.parse(token), n, f"cli-{pool_index}-{index}")
        weights_path = run_dir / f"weights-{index}.txt"
        weights_path.write_text(
            " ".join(tb.format_rational(x) for x in w) + "\n", encoding="utf-8"
        )
        files.append((policy, w, weights_path, run_dir / f"trace-{index}.txt"))
    return files


def _oracle_items(pool_index: int, smoke: bool) -> list:
    items = []

    def add(kind: str, family: str, n: int, tag: str) -> None:
        if not smoke or n <= SMOKE_N_MAX:
            w = tb.generate(tb.Family.parse(family), n, f"oracle-{pool_index}-{tag}")
            items.append((kind, w))

    for n in range(2, BRUTE_N_MAX + 1):
        for k in range(ORACLE_PER_SIZE):
            add("brute", ORACLE_FAMILIES[k % len(ORACLE_FAMILIES)], n, f"b{n}.{k}")
    for n in range(1, 17):
        for k in range(PARTITION_PER_SIZE):
            add("partition", ORACLE_FAMILIES[(n + k) % len(ORACLE_FAMILIES)], n, f"p{n}.{k}")
    for n in DP_LARGE_SIZES:
        add("dp", "uniform-random", n, f"d{n}")
    return items


# ---------------------------------------------------------------------------
# Passes


def run_pass(inputs: Inputs, pins: Pins, tracer=None) -> PassResult:
    """One pass over the input set; `tracer` is the installed Tracer in a traced pass."""
    result = PassResult()
    start = perf_counter()
    if inputs.workload == "trace-cli":
        _cli_pass(inputs, pins, result, tracer)
    elif inputs.workload == "oracle-sweep":
        _oracle_pass(inputs, pins, result)
    else:
        _campaign_pass(inputs, pins, result)
    result.wall_s = perf_counter() - start
    return result


def _campaign_pass(inputs: Inputs, pins: Pins, result: PassResult) -> None:
    """`run_campaign` plus `render()` per ladder size; an item is one `check_instance`."""
    harness = tb.harness
    check_instance = harness.check_instance
    reconstruct = harness.reconstruct_from_depths
    solved: list = []

    # Leaf depths are not part of a verdict; this captures the one depth
    # sequence `check_instance` rebuilds, so the pin can cover them.
    def capture_depths(depths):
        solved.append(depths)
        return reconstruct(depths)

    def timed_check(*args, **kwargs):
        solved.clear()
        start = perf_counter()
        verdict = check_instance(*args, **kwargs)
        result.latencies_s.append(perf_counter() - start)
        answer = "|".join(
            [
                "FAIL" if verdict.cost is None else tb.format_rational(verdict.cost),
                digest(",".join(map(str, solved[0]))) if len(solved) == 1 else "no-depths",
            ]
        )
        key = f"campaign|{verdict.policy}|{weights_key(verdict.weights)}"
        if not pins.check(key, answer) or not verdict.passed:
            result.failed += 1
            result.errors.append(f"{key}: verdict {verdict.failure or 'PASS'}")
        return verdict

    rendered = hashlib.sha256()
    harness.check_instance = timed_check
    harness.reconstruct_from_depths = capture_depths
    try:
        for config in inputs.items:
            planned = sum(count for _, count in config.counts) * len(config.policies)
            done_before = len(result.latencies_s)
            try:
                report = tb.run_campaign(config)
                text = report.render()
            except Exception as exc:  # one broken campaign must not end the run
                result.errors.append(f"campaign n={config.n_max}: {exc!r}")
            else:
                rendered.update(text.encode("utf-8"))
                if not report.passed and report.aggregate["failing_runs"] == 0:
                    result.failed += 1
                    result.errors.append(f"campaign n={config.n_max}: verdict FAIL")
            result.attempted += planned
            result.failed += planned - (len(result.latencies_s) - done_before)
    finally:
        harness.check_instance = check_instance
        harness.reconstruct_from_depths = reconstruct
    result.outputs = rendered.hexdigest()


def _oracle_pass(inputs: Inputs, pins: Pins, result: PassResult) -> None:
    """Oracles only, no phase 1; an item is one instance."""
    answers = hashlib.sha256()
    for kind, w in inputs.items:
        result.attempted += 1
        try:
            start = perf_counter()
            if kind == "brute":
                dp = tb.dp_optimal_cost(w)
                brute, optima = tb.brute_force_optimal(w)
                elapsed = perf_counter() - start
                sound = dp == brute
                answer = f"dp = {dp}, brute = {brute}, optima = {optima}"
            elif kind == "partition":
                assignment, trace = tb.greedy_partition(w)
                shadow = tb.dyadic_shadow(len(w))
                verified = tb.verify_policy(trace, w, shadow).passed
                witness = tb.stability_witness(trace, w, shadow, verified=True) if verified else 0
                brute = tb.brute_force_partition(w)
                value = tb.partition_value(assignment, w)
                elapsed = perf_counter() - start
                sound = verified and witness > 0 and value >= brute
                answer = f"value = {value}, brute = {brute}"
            else:
                dp = tb.dp_optimal_cost(w)
                elapsed = perf_counter() - start
                sound = True
                answer = f"dp = {dp}"
        except Exception as exc:  # counted as a failed item; the pass goes on
            result.failed += 1
            result.errors.append(f"{kind} n={len(w)}: {exc!r}")
            continue
        result.latencies_s.append(elapsed)
        answers.update(answer.encode("utf-8"))
        key = f"{kind}|{weights_key(w)}"
        if not pins.check(key, answer) or not sound:
            result.failed += 1
            result.errors.append(f"{key}: {answer}")
    result.outputs = answers.hexdigest()


def _child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH", "")) if p
    )
    env.update(extra or {})
    return env


def run_child(cmd: list[str], env: dict[str, str], stderr_path: Path):
    """Start one child, wait for it; (seconds, peak RSS in MB, exit code, stdout).

    `os.wait4` gives this child's own peak RSS; RUSAGE_CHILDREN could not
    attribute memory to a single child.
    """
    start = perf_counter()
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return perf_counter() - start, usage.ru_maxrss / 1024, proc.returncode, out.decode("utf-8")


def _cli_pass(inputs: Inputs, pins: Pins, result: PassResult, tracer) -> None:
    """`solve --emit-trace` then `verify-trace` per file; each is one item."""
    outputs = hashlib.sha256()
    stderr_path = inputs.run_dir / "child.err"
    spans_path = inputs.run_dir / "child-spans.json"
    for policy, w, weights_path, trace_path in inputs.items:
        commands = (
            ("solve", ["solve", "--weights", str(weights_path), "--policy", policy,
                       "--emit-trace", str(trace_path)]),
            ("verify", ["verify-trace", "--trace", str(trace_path), "--weights",
                        str(weights_path), "--orientation", ORIENTATION_FLAG[policy]]),
        )
        for side, argv in commands:
            result.attempted += 1
            if tracer is None:
                cmd = [sys.executable, "-m", "tiebreak.cli", *argv]
                env = _child_env()
            else:
                spans_path.unlink(missing_ok=True)
                cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path), *argv]
                env = _child_env({"TIEBREAK_BENCH_SPAWN": repr(time.monotonic())})
            seconds, rss_mb, code, out = run_child(cmd, env, stderr_path)
            result.latencies_s.append(seconds)
            child = {"side": side, "seconds": seconds, "rss_mb": rss_mb, "exit": code}
            if tracer is not None and spans_path.exists():
                child["startup_s"] = tracer.merge_child(spans_path)
            result.children.append(child)
            lines = out.splitlines() or [""]
            if side == "solve":
                answer = f"exit {code}; {lines[-1]}; tree {digest(lines[0])}"
                key = f"cli-solve|{policy}|{weights_key(w)}"
                ok = pins.check(key, answer) and code == 0
                size = trace_path.stat().st_size if trace_path.exists() else -1
                outputs.update(f"{answer} {size}".encode())
            else:
                answer = f"exit {code}; {lines[-1]}"
                key = f"cli-verify|{policy}|{weights_key(w)}"
                ok = code == 0 and answer == "exit 0; result = PASS"
                outputs.update(answer.encode())
            if not ok:
                result.failed += 1
                stderr = stderr_path.read_text(encoding="utf-8", errors="replace").strip()
                result.errors.append(f"{key}: {answer} {stderr[-200:]}")
    result.outputs = outputs.hexdigest()
