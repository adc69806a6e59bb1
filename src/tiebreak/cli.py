"""Command-line front-end: solvers, oracles, verification, campaigns.

Exit status contract: 0 for success or an overall PASS, 1 for FAIL or an
infeasible answer, 2 for usage and format problems. Output is deterministic
for identical inputs and flags.

Each command loads only the modules it needs: `fuzz` and `partition` import
the campaign harness and the partition demo in their own bodies, so `solve`,
`oracle`, `reconstruct` and `verify-trace` never load them, nor the
`dataclasses` module the harness uses. Of these four, only `verify-trace`
loads `json`, in `load_trace`. The solver, trace and perturbation modules
stay module-level imports, because the benchmark tracer
(`benchmarks/tracer.py`) patches the bindings it finds in the modules loaded
by `import tiebreak.cli`.

Output files (`solve --emit-trace`, `fuzz --out`) are written by one
writer, `_write_over`, which writes over an existing file in place instead
of truncating it first: a truncated file whose blocks are already on disk
makes the write wait for them to be freed.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .alphabetic import format_tree, hu_tucker, reconstruct_from_depths, tree_cost
from .alphabetic import brute_force_optimal, dp_optimal_cost
from .core import _parse_int, format_rational, parse_rational
from .errors import CorruptTraceError, FormatError, TiebreakError
from .perturb import NEGATIVE, POSITIVE, dyadic_shadow
from .trace import dump_trace, load_trace, verify_policy

_ORIENTATION_FLAG = {"pos": POSITIVE, "neg": NEGATIVE}


def parse_weights_text(text: str) -> tuple[Fraction, ...]:
    """Whitespace-separated rational tokens; `#` comments; blank lines skipped."""
    values: list[Fraction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            end = pos
            while end < len(line) and not line[end].isspace():
                end += 1
            try:
                values.append(parse_rational(line[pos:end]))
            except FormatError as exc:
                raise FormatError(str(exc), line=lineno, column=pos + 1) from None
            pos = end
    if not values:
        raise FormatError("weights file contains no values")
    return tuple(values)


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write_over(path: str, text: str) -> None:
    """Write `text` to `path` from offset 0, then cut off a longer old tail.

    The file is created if absent and otherwise keeps its mode. Only a
    regular file is truncated: `/dev/null`, a pipe or a FIFO refuse it.
    A regular file that standard output also writes to (`--emit-trace
    /dev/stdout > FILE`) is refused with OSError before anything is
    written: both writers would start at offset 0 and overwrite each other.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        old = os.fstat(fh.fileno())
        if stat.S_ISREG(old.st_mode) and _is_stdout(old):
            raise OSError(f"refusing to write {path}: standard output goes to the same file")
        fh.write(data)
        if stat.S_ISREG(old.st_mode) and old.st_size > len(data):
            fh.truncate(len(data))


def _is_stdout(st: os.stat_result) -> bool:
    """Is `st` the file behind standard output? False when stdout has no descriptor."""
    try:
        out = os.fstat(sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        return False
    return (out.st_dev, out.st_ino) == (st.st_dev, st.st_ino)


def _load_weights(path: str) -> tuple[Fraction, ...]:
    return parse_weights_text(_read(path))


def _parse_depths(text: str) -> tuple[int, ...]:
    """Depths separated by commas, whitespace or both; no field may be empty."""
    fields = [field.split() for field in text.split(",")]
    if not all(fields):
        raise FormatError(f"depth sequence {text!r} is empty or has an empty field")
    return tuple(_parse_int(token) for field in fields for token in field)


def _cmd_solve(args: argparse.Namespace) -> int:
    weights = _load_weights(args.weights)
    tree, trace = hu_tucker(weights, args.policy)
    # Format everything first, so that a FormatError leaves no partial output.
    trace_text = None if args.emit_trace is None else dump_trace(trace)
    if tree is None:
        lines = ["INFEASIBLE"]
    else:
        lines = [format_tree(tree), f"cost = {format_rational(tree_cost(tree, weights))}"]
    if trace_text is not None:
        _write_over(args.emit_trace, trace_text)
    print("\n".join(lines))
    return 0 if tree is not None else 1


def _cmd_oracle(args: argparse.Namespace) -> int:
    weights = _load_weights(args.weights)
    lines = [f"dp = {format_rational(dp_optimal_cost(weights))}"]
    if args.brute_force:
        cost, count = brute_force_optimal(weights)
        lines += [f"brute = {format_rational(cost)}", f"optima = {count}"]
    print("\n".join(lines))
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    tree = reconstruct_from_depths(_parse_depths(args.depths))
    if tree is None:
        print("INFEASIBLE")
        return 1
    print(format_tree(tree))
    return 0


def _cmd_verify_trace(args: argparse.Namespace) -> int:
    weights = _load_weights(args.weights)
    trace = load_trace(_read(args.trace), len(weights))
    shadow = dyadic_shadow(len(weights), _ORIENTATION_FLAG[args.orientation])
    report = verify_policy(trace, weights, shadow)
    lines = [f"step {step}: {'PASS' if ok else 'FAIL'}" for step, _, ok in report.checks]
    lines.append(f"result = {'PASS' if report.passed else 'FAIL'}")
    print("\n".join(lines))
    return 0 if report.passed else 1


def _cmd_partition(args: argparse.Namespace) -> int:
    from .partition import format_assignment, greedy_partition, partition_value

    weights = _load_weights(args.weights)
    # Only the assignment is printed, so the records are dropped as they come.
    assignment, _ = greedy_partition(weights, on_record=lambda record: None)
    value = format_rational(partition_value(assignment, weights))
    print(f"{format_assignment(assignment)}\nvalue = {value}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .harness import parse_config, run_campaign

    config = parse_config(_read(args.config))
    report = run_campaign(config)
    rendered = report.render()
    _write_over(args.out, rendered)
    for line in rendered.splitlines():
        if line.startswith("#"):
            print(line)
    return 0 if report.passed else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiebreak",
        description="Tie-robust ordered-tree solver, oracles, and certification campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance under a tie policy")
    solve.add_argument("--weights", required=True, help="weights file")
    solve.add_argument("--policy", required=True, choices=("leftmost", "rightmost"))
    solve.add_argument("--emit-trace", help="write the decision trace here")
    solve.set_defaults(run=_cmd_solve)

    oracle = sub.add_parser("oracle", help="optimal cost via the DP oracle")
    oracle.add_argument("--weights", required=True, help="weights file")
    oracle.add_argument(
        "--brute-force", action="store_true", help="also enumerate every tree"
    )
    oracle.set_defaults(run=_cmd_oracle)

    reconstruct = sub.add_parser("reconstruct", help="rebuild a tree from leaf depths")
    reconstruct.add_argument("--depths", required=True, help='e.g. "3,2,2,3,2"')
    reconstruct.set_defaults(run=_cmd_reconstruct)

    verify = sub.add_parser("verify-trace", help="audit a trace against an instance")
    verify.add_argument("--trace", required=True, help="trace file")
    verify.add_argument("--weights", required=True, help="weights file")
    verify.add_argument("--orientation", required=True, choices=("pos", "neg"))
    verify.set_defaults(run=_cmd_verify_trace)

    partition = sub.add_parser("partition", help="greedy two-way partition demo")
    partition.add_argument("--weights", required=True, help="weights file")
    partition.set_defaults(run=_cmd_partition)

    fuzz = sub.add_parser("fuzz", help="run a certification campaign")
    fuzz.add_argument("--config", required=True, help="campaign config file")
    fuzz.add_argument("--out", required=True, help="report file to write")
    fuzz.set_defaults(run=_cmd_fuzz)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.run(args)
    except CorruptTraceError as exc:
        print(f"error: corrupt trace: {exc}", file=sys.stderr)
        return 2
    except TiebreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
