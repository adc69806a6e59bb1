"""End-to-end command behavior through ``main(argv)``."""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import tiebreak
from tiebreak.alphabetic import hu_tucker
from tiebreak.cli import main, parse_weights_text
from tiebreak.trace import dump_trace


@pytest.fixture()
def weights_file(tmp_path: Path):
    def write(text: str, name: str = "w.txt") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def test_solve_prints_tree_and_cost(weights_file, capsys) -> None:
    code = main(["solve", "--weights", weights_file("1 2 3"), "--policy", "leftmost"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "((b1 b2) b3)\ncost = 9\n"


def test_solve_accepts_multiline_rationals(weights_file, capsys) -> None:
    code = main(["solve", "--weights", weights_file("1/2\n1/2 1\n"), "--policy", "rightmost"])
    assert code == 0
    assert "cost = 3" in capsys.readouterr().out


def test_emitted_trace_verifies_under_matching_orientation(
    weights_file, tmp_path, capsys
) -> None:
    wfile = weights_file("1 1 1 1 1")
    trace = tmp_path / "trace.txt"
    assert main(["solve", "--weights", wfile, "--policy", "leftmost", "--emit-trace", str(trace)]) == 0
    capsys.readouterr()

    code = main(["verify-trace", "--trace", str(trace), "--weights", wfile, "--orientation", "neg"])
    out = capsys.readouterr().out
    assert code == 0
    steps = len(trace.read_text(encoding="utf-8").splitlines())
    assert steps > 1
    assert out == "".join(f"step {k}: PASS\n" for k in range(1, steps + 1)) + "result = PASS\n"


def test_verify_trace_flags_wrong_orientation_on_ties(
    weights_file, tmp_path, capsys
) -> None:
    wfile = weights_file("1 1 1")
    trace = tmp_path / "trace.txt"
    assert main(["solve", "--weights", wfile, "--policy", "leftmost", "--emit-trace", str(trace)]) == 0
    capsys.readouterr()

    code = main(["verify-trace", "--trace", str(trace), "--weights", wfile, "--orientation", "pos"])
    out = capsys.readouterr().out
    assert code == 1
    assert "step 1: FAIL" in out
    assert out.endswith("result = FAIL\n")


def test_verify_trace_reports_corruption(weights_file, tmp_path, capsys) -> None:
    wfile = weights_file("1 2 3")
    trace = tmp_path / "trace.txt"
    assert main(["solve", "--weights", wfile, "--policy", "leftmost", "--emit-trace", str(trace)]) == 0
    capsys.readouterr()

    # Same sign, wrong magnitude: the record stays well formed but no longer
    # matches a re-evaluation on the instance.
    text = trace.read_text(encoding="utf-8")
    assert '"value": "2"' in text
    trace.write_text(text.replace('"value": "2"', '"value": "3"'), encoding="utf-8")

    code = main(["verify-trace", "--trace", str(trace), "--weights", wfile, "--orientation", "neg"])
    captured = capsys.readouterr()
    assert code == 2
    assert "corrupt trace" in captured.err
    assert "step 1" in captured.err


def test_oracle_with_and_without_enumeration(weights_file, capsys) -> None:
    wfile = weights_file("1 2 3")
    assert main(["oracle", "--weights", wfile]) == 0
    assert capsys.readouterr().out == "dp = 9\n"

    assert main(["oracle", "--weights", wfile, "--brute-force"]) == 0
    assert capsys.readouterr().out == "dp = 9\nbrute = 9\noptima = 1\n"


def test_reconstruct_round_trip_and_infeasible(capsys) -> None:
    assert main(["reconstruct", "--depths", "2,2,1"]) == 0
    assert capsys.readouterr().out == "((b1 b2) b3)\n"

    assert main(["reconstruct", "--depths", "3,2,2,3,2"]) == 1
    assert capsys.readouterr().out == "INFEASIBLE\n"

    assert main(["reconstruct", "--depths", "x"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("depths", ["2, 2, 1", "2 2 1", " 2 ,2\t1 "])
def test_reconstruct_separates_depths_by_commas_or_whitespace(depths, capsys) -> None:
    assert main(["reconstruct", "--depths", depths]) == 0
    assert capsys.readouterr().out == "((b1 b2) b3)\n"


@pytest.mark.parametrize(
    "depths",
    ["\u0661,\u0661", "1_0,1", "\uff12,\uff12", "1,,1", ",1 1,", "2,2,1,", "1, ,1"],
)
def test_reconstruct_takes_only_ascii_decimal_depths(depths, capsys) -> None:
    assert main(["reconstruct", "--depths", depths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


def test_tokens_past_the_digit_limit_exit_two(weights_file, tmp_path, capsys) -> None:
    # int() raises a bare ValueError past sys.get_int_max_str_digits() digits.
    huge = "1" * 5000
    trace = tmp_path / "t.jsonl"
    trace.write_text(
        '{"step": ' + huge + ', "coeffs": {"1": "1"}, "value": "1", "tie": false, "branch": "R"}\n',
        encoding="utf-8",
    )
    for argv in (
        ["solve", "--weights", weights_file(f"1 {huge}"), "--policy", "leftmost"],
        ["reconstruct", "--depths", f"1,{huge}"],
        ["verify-trace", "--trace", str(trace), "--weights", weights_file("1 2 3", "w3.txt"), "--orientation", "neg"],
    ):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too many digits" in captured.err


def test_results_past_the_digit_limit_exit_two_with_no_output(
    weights_file, tmp_path, capsys
) -> None:
    # Every token is legal (3,002 digits), but the cost, the partition value
    # and the trace values have denominators past 4,300 digits.
    zeros = "0" * 2999
    wfile = weights_file(f"1/1{zeros}1 1/1{zeros}3 1")
    trace = tmp_path / "trace.txt"
    for argv in (
        ["solve", "--weights", wfile, "--policy", "leftmost", "--emit-trace", str(trace)],
        ["solve", "--weights", wfile, "--policy", "rightmost"],
        ["partition", "--weights", wfile],
        ["oracle", "--weights", wfile],
    ):
        assert main(argv) == 2, argv[0]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too many digits" in captured.err
    assert not trace.exists()


def solve_onto(wfile: str, target: str) -> int:
    return main(["solve", "--weights", wfile, "--policy", "leftmost", "--emit-trace", target])


def test_emit_trace_to_dev_null_succeeds(weights_file, capsys) -> None:
    # /dev/null refuses truncation, so the writer must not ask for it.
    assert solve_onto(weights_file("1 1 1 1"), os.devnull) == 0
    assert capsys.readouterr().out.endswith("cost = 8\n")


def test_emit_trace_into_a_fifo_delivers_the_dumped_text(weights_file, tmp_path, capsys) -> None:
    wfile = weights_file("1 1 1 1 2")
    fifo = tmp_path / "trace.fifo"
    os.mkfifo(fifo)
    received: list[bytes] = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert solve_onto(wfile, str(fifo)) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    _, trace = hu_tucker(parse_weights_text("1 1 1 1 2"), "leftmost")
    assert received == [dump_trace(trace).encode("utf-8")]
    capsys.readouterr()


@pytest.mark.parametrize("old_size", ["longer", "shorter", "equal"])
def test_emit_trace_over_an_existing_file_equals_a_fresh_write(
    weights_file, tmp_path, capsys, old_size
) -> None:
    wfile = weights_file("1 1 1 1 1 1")
    fresh = tmp_path / "fresh.txt"
    assert solve_onto(wfile, str(fresh)) == 0
    expected = fresh.read_bytes()
    old = {
        "longer": b"x" * (2 * len(expected)),
        "shorter": expected[: len(expected) // 2],
        "equal": b"y" * len(expected),
    }[old_size]
    target = tmp_path / "trace.txt"
    target.write_bytes(old)
    assert solve_onto(wfile, str(target)) == 0
    assert target.read_bytes() == expected
    capsys.readouterr()


def test_output_files_keep_their_mode(weights_file, tmp_path, capsys) -> None:
    trace = tmp_path / "trace.txt"
    trace.write_text("old\n" * 1000, encoding="utf-8")
    trace.chmod(0o640)
    report = tmp_path / "report.jsonl"
    report.write_text("old\n", encoding="utf-8")
    report.chmod(0o604)
    config = weights_file("seed = 5\nn_max = 3\ncount.all-equal = 1\n", name="campaign.cfg")
    assert solve_onto(weights_file("1 1 1"), str(trace)) == 0
    assert main(["fuzz", "--config", config, "--out", str(report)]) == 0
    assert stat.S_IMODE(trace.stat().st_mode) == 0o640
    assert stat.S_IMODE(report.stat().st_mode) == 0o604
    assert trace.read_text(encoding="utf-8").startswith('{"step": 1,')
    assert report.read_bytes().startswith(b'{"')
    capsys.readouterr()


def test_digit_limit_error_leaves_an_existing_trace_untouched(
    weights_file, tmp_path, capsys
) -> None:
    zeros = "0" * 2999
    wfile = weights_file(f"1/1{zeros}1 1/1{zeros}3 1")
    trace = tmp_path / "trace.txt"
    old = b'{"step": 1, "coeffs": {}, "value": "1", "tie": false, "branch": "R"}\n'
    trace.write_bytes(old)
    assert solve_onto(wfile, str(trace)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "too many digits" in captured.err
    assert trace.read_bytes() == old


def run_cli(args: list[str], stdout) -> subprocess.CompletedProcess:
    """Run the CLI in a child process with the given standard output."""
    src = str(Path(tiebreak.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    return subprocess.run(
        [sys.executable, "-m", "tiebreak.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
    )


def output_args(command: str, weights_file, target: str) -> list[str]:
    if command == "solve":
        wfile = weights_file("1 1 1 1 1 1")
        return ["solve", "--weights", wfile, "--policy", "leftmost", "--emit-trace", target]
    config = weights_file("seed = 5\nn_max = 3\ncount.all-equal = 1\n", name="campaign.cfg")
    return ["fuzz", "--config", config, "--out", target]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("command", ["solve", "fuzz"])
@pytest.mark.parametrize("via", ["/dev/stdout", "path"])
def test_output_file_that_is_also_stdout_is_refused(
    weights_file, tmp_path, command, via
) -> None:
    # `solve --emit-trace /dev/stdout > FILE` used to write the trace through
    # a second descriptor at offset 0, then print over its first bytes.
    out_file = tmp_path / "out.txt"
    target = "/dev/stdout" if via == "/dev/stdout" else str(out_file)
    with open(out_file, "wb") as stdout:
        proc = run_cli(output_args(command, weights_file, target), stdout)
    assert proc.returncode == 2
    assert b"standard output goes to the same file" in proc.stderr
    assert out_file.read_bytes() == b""


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("command", ["solve", "fuzz"])
def test_output_file_on_a_stdout_pipe_is_written(weights_file, tmp_path, command) -> None:
    fresh = tmp_path / "fresh.txt"
    with open(os.devnull, "wb") as devnull:
        assert run_cli(output_args(command, weights_file, str(fresh)), devnull).returncode == 0
    proc = run_cli(output_args(command, weights_file, "/dev/stdout"), subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    expected = fresh.read_bytes()
    assert proc.stdout.startswith(expected)
    assert len(proc.stdout) > len(expected)


def test_partition_command(weights_file, capsys) -> None:
    code = main(["partition", "--weights", weights_file("3 1 1 2 2 1")])
    assert code == 0
    assert capsys.readouterr().out == "112221\nvalue = 0\n"


def test_malformed_weights_report_position(weights_file, capsys) -> None:
    code = main(["solve", "--weights", weights_file("1\n2 x 3"), "--policy", "leftmost"])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2" in captured.err
    assert "column 3" in captured.err


def test_empty_weights_file_is_an_error(weights_file, capsys) -> None:
    code = main(["oracle", "--weights", weights_file("  \n")])
    captured = capsys.readouterr()
    assert code == 2
    assert "no values" in captured.err


def test_missing_weights_file_is_an_error(tmp_path, capsys) -> None:
    code = main(["oracle", "--weights", str(tmp_path / "absent.txt")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_negative_weight_is_a_domain_error(weights_file, capsys) -> None:
    code = main(["solve", "--weights", weights_file("1 -2"), "--policy", "leftmost"])
    captured = capsys.readouterr()
    assert code == 2
    assert "negative" in captured.err


def test_fuzz_writes_deterministic_report(weights_file, tmp_path, capsys) -> None:
    config = weights_file("seed = 5\nn_max = 4\ncount.all-equal = 1\n", name="campaign.cfg")
    out_path = tmp_path / "report.jsonl"

    code = main(["fuzz", "--config", config, "--out", str(out_path)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout
    assert all(line.startswith("#") for line in stdout.splitlines())
    first = out_path.read_bytes()
    assert first.startswith(b'{"')

    assert main(["fuzz", "--config", config, "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == first


def test_usage_errors_exit_two(capsys) -> None:
    assert main([]) == 2
    capsys.readouterr()
    assert main(["frobnicate"]) == 2
    capsys.readouterr()
    assert main(["solve", "--weights"]) == 2
    capsys.readouterr()
