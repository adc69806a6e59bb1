"""Properties of the package source itself."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import tiebreak

SUBMODULES = sorted(
    path.stem for path in Path(tiebreak.__file__).parent.glob("*.py") if path.stem != "__init__"
)

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def run_fresh(code: str, *args: str) -> list:
    """Run `code` in a new interpreter; it prints one JSON value per line."""
    src = str(Path(tiebreak.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def _package_nodes() -> list[tuple[str, ast.AST]]:
    """(module file name, node) for every AST node of every package module."""
    modules = sorted(Path(tiebreak.__file__).parent.glob("*.py"))
    assert "alphabetic.py" in {path.name for path in modules}
    return [
        (path.name, node)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]


def test_no_assert_statements_in_the_package() -> None:
    # `python -O` strips assert statements, so no check may live in one.
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_float_or_complex_literals_or_float_calls_in_the_package() -> None:
    # The package is exact: every number is an int or a Fraction.
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
        or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float")
    ]
    assert found == []


def test_every_exported_name_resolves_once() -> None:
    # A name left in __all__ after its definition is gone breaks
    # `from tiebreak import *`.
    exported = tiebreak.__all__
    assert sorted(name for name in set(exported) if exported.count(name) > 1) == []
    assert [name for name in exported if not hasattr(tiebreak, name)] == []


def test_name_table_and_all_agree() -> None:
    # The package resolves names lazily from its table; a name in one but not
    # the other is either unreachable or missing from `import *`.
    table = tiebreak._EXPORTS
    assert sum(len(names) for names in table.values()) == len(tiebreak._HOME)
    assert set(table) <= set(SUBMODULES)


def test_benchmark_tracer_finds_every_name_it_patches(monkeypatch) -> None:
    # The traced benchmark run reads these names with getattr; the smoke
    # tests that exercise it run outside this suite. Building the wrapper
    # list reads every one of them without patching anything.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    try:
        tracer = import_module("tracer")
        wrappers = tracer.Tracer()._wrappers(tiebreak)
    finally:
        sys.modules.pop("tracer", None)
    assert wrappers
    assert [attr for owner, attr, _ in wrappers if not hasattr(owner, attr)] == []
    # The tracer counts each record's support through this method.
    assert callable(tiebreak.LinearFunctional.items)


def test_benchmark_tracer_counts_ties_and_support_from_records(monkeypatch) -> None:
    # The tracer reads `rec.tie` and `rec.functional.items()` on every
    # record, whether it counts a finished trace or a streamed one.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    try:
        tracer = import_module("tracer")
    finally:
        sys.modules.pop("tracer", None)
    w = tiebreak.generate(tiebreak.Family.parse("equal-blocks:3"), 40, "tracer")
    s = tiebreak.dyadic_shadow(40, tiebreak.NEGATIVE)
    _, trace = tiebreak.hu_tucker_phase1(w, s)
    ties = sum(1 for rec in trace.records if rec.primary_value == 0)
    support = sum(len(rec.functional) for rec in trace.records)
    assert 0 < ties < len(trace.records)

    counted = tracer.Tracer()
    counted._count_records(trace.records)
    streamed = tracer.Tracer()
    seen: list = []
    tiebreak.hu_tucker_phase1(w, s, streamed._counting_sink(seen.append))
    assert tuple(seen) == trace.records
    for run in (counted, streamed):
        assert run.counts["alphabetic.records"] == len(trace.records)
        assert run.counts["alphabetic.ties"] == ties
        assert run.counts["alphabetic.support"] == support


def test_benchmark_campaign_hooks_see_every_check_and_its_one_rebuild(monkeypatch) -> None:
    # The campaign workload times each check by rebinding
    # `harness.check_instance`, and pins each run's leaf depths by rebinding
    # `harness.reconstruct_from_depths`, reading the depths only when a check
    # rebuilds exactly once. Both hooks act only through the module globals.
    harness = tiebreak.harness
    check_instance = harness.check_instance
    reconstruct = harness.reconstruct_from_depths
    checks: list[tuple[tuple, str, list]] = []

    def counting_check(w, policy, **kwargs):
        checks.append((tuple(w), policy, []))
        return check_instance(w, policy, **kwargs)

    def capturing_reconstruct(depths):
        checks[-1][2].append(depths)
        return reconstruct(depths)

    monkeypatch.setattr(harness, "check_instance", counting_check)
    monkeypatch.setattr(harness, "reconstruct_from_depths", capturing_reconstruct)
    families = [tiebreak.Family.parse(token) for token in ("all-equal", "pair-sum-ties", "zero-sprinkled")]
    config = tiebreak.CampaignConfig(seed=5, counts=tuple((f, 3) for f in families), n_max=12)
    report = tiebreak.run_campaign(config)

    assert len(checks) == 9 * len(config.policies) == len(report.instances)
    assert sorted((v.weights, v.policy) for v in report.instances) == sorted(
        (w, policy) for w, policy, _ in checks
    )
    for w, policy, rebuilt in checks:
        shadow = tiebreak.dyadic_shadow(len(w), tiebreak.POLICY_ORIENTATION[policy])
        assert rebuilt == [tiebreak.hu_tucker_phase1(w, shadow)[0]]


def test_every_exported_name_is_its_home_modules_object() -> None:
    for name in tiebreak.__all__:
        home = import_module(f"tiebreak.{tiebreak._HOME[name]}")
        assert getattr(tiebreak, name) is getattr(home, name), name
        assert tiebreak.__dict__[name] is getattr(home, name), name


def test_dir_lists_every_exported_name() -> None:
    listed = dir(tiebreak)
    assert [name for name in tiebreak.__all__ if name not in listed] == []
    assert [name for name in SUBMODULES if name not in listed] == []


def test_star_import_binds_every_exported_name() -> None:
    namespace: dict = {}
    exec("from tiebreak import *", namespace)
    assert [name for name in tiebreak.__all__ if name not in namespace] == []
    assert all(namespace[name] is getattr(tiebreak, name) for name in tiebreak.__all__)


def test_unknown_name_raises_attribute_error_naming_the_module() -> None:
    with pytest.raises(AttributeError, match="module 'tiebreak' has no attribute 'no_such_name'"):
        tiebreak.no_such_name  # noqa: B018


def test_submodule_names_resolve_lazily_in_a_fresh_interpreter() -> None:
    code = """
import json, sys
import tiebreak
print(json.dumps(sorted(m for m in sys.modules if m.startswith("tiebreak"))))
for name in sys.argv[1:]:
    module = getattr(tiebreak, name)
    print(json.dumps([module.__name__, sys.modules[module.__name__] is module]))
"""
    lines = run_fresh(code, *SUBMODULES)
    assert lines[0] == ["tiebreak"]
    assert lines[1:] == [[f"tiebreak.{name}", True] for name in SUBMODULES]


def test_trace_commands_never_load_the_harness_or_the_partition_demo(tmp_path: Path) -> None:
    weights = tmp_path / "w.txt"
    weights.write_text("1 1 1 1 2\n", encoding="utf-8")
    trace = tmp_path / "trace.txt"
    code = """
import contextlib, io, json, sys
def loaded():
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("tiebreak"))))
import tiebreak
loaded()
import tiebreak.cli
loaded()
weights, trace = sys.argv[1:]
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(tiebreak.cli.main(
        ["solve", "--weights", weights, "--policy", "leftmost", "--emit-trace", trace]))
    codes.append(tiebreak.cli.main(
        ["verify-trace", "--trace", trace, "--weights", weights, "--orientation", "neg"]))
    codes.append(tiebreak.cli.main(["reconstruct", "--depths", "2,2,2,2"]))
print(json.dumps(codes))
loaded()
"""
    package, after_cli, codes, after_commands = run_fresh(code, str(weights), str(trace))
    assert package == ["tiebreak"]
    assert codes == [0, 0, 0]
    for loaded in (after_cli, after_commands):
        assert "tiebreak.cli" in loaded and "tiebreak.trace" in loaded
        assert "tiebreak.harness" not in loaded
        assert "tiebreak.partition" not in loaded


#: All that `solve` may load beyond the baseline below; `dataclasses` alone
#: would also load `inspect`, `ast`, `dis` and `tokenize`.
SOLVE_MODULES = {
    "__future__", "_decimal", "_locale", "argparse", "decimal", "fractions", "gettext", "locale", "numbers",
    *(f"tiebreak{name}" for name in ("", ".alphabetic", ".cli", ".core", ".errors", ".perturb", ".trace")),
}
#: `verify-trace` adds only `json`, which `load_trace` imports.
VERIFY_TRACE_MODULES = SOLVE_MODULES | {"json", "_json", "json.decoder", "json.encoder", "json.scanner"}


def test_trace_commands_never_load_dataclasses_and_solve_never_loads_json(tmp_path: Path) -> None:
    # Every CLI child pays for each module it loads, so the two commands may
    # load nothing beyond the allow-lists above. The baseline is a fresh
    # interpreter that has imported the general-purpose modules a site hook
    # often preloads, so the lists hold with or without one.
    weights = tmp_path / "w.txt"
    weights.write_text("1 1 1 1 2\n", encoding="utf-8")
    trace = tmp_path / "trace.txt"
    (bare,) = run_fresh(
        "import contextlib, importlib, io, math, os, pathlib, re, shutil, sys, typing\n"
        "names = sorted(sys.modules); import json; print(json.dumps(names))"
    )
    # json is imported only after both commands, to print the results.
    code = """
import contextlib, io, sys
import tiebreak.cli
weights, trace = sys.argv[1:]
loaded, codes = [], []
with contextlib.redirect_stdout(io.StringIO()):
    codes.append(tiebreak.cli.main(
        ["solve", "--weights", weights, "--policy", "leftmost", "--emit-trace", trace]))
    loaded.append(sorted(sys.modules))
    codes.append(tiebreak.cli.main(
        ["verify-trace", "--trace", trace, "--weights", weights, "--orientation", "neg"]))
    loaded.append(sorted(sys.modules))
import json
print(json.dumps(codes))
for names in loaded:
    print(json.dumps(names))
"""
    codes, after_solve, after_verify = run_fresh(code, str(weights), str(trace))
    assert codes == [0, 0]
    assert set(after_solve) - set(bare) - SOLVE_MODULES == set()
    assert set(after_verify) - set(bare) - VERIFY_TRACE_MODULES == set()


def _names_used(code) -> set[str]:
    """Global and attribute names a code object and its nested code objects load."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _names_used(const)
    return names


def _names_used_with_helpers(func) -> set[str]:
    """`_names_used` of `func` and of every private function of its module
    that it, or a helper so found, loads."""
    module = sys.modules[func.__module__]
    used: set[str] = set()
    todo = [func]
    while todo:
        names = _names_used(todo.pop().__code__) - used
        used |= names
        todo += [
            getattr(module, name)
            for name in names
            if name.startswith("_") and callable(getattr(module, name, None))
        ]
    return used


@pytest.mark.parametrize(
    "oracle", [tiebreak.alphabetic.brute_force_optimal, tiebreak.partition.brute_force_partition]
)
def test_exhaustive_oracles_share_no_step_with_what_they_check(oracle) -> None:
    # An oracle that called the DP, the greedy or the combine loop, itself or
    # through a helper such as the tree oracle's cost bound, would agree with
    # them by construction.
    used = _names_used_with_helpers(oracle)
    assert "clear_denominators" in used
    assert oracle is not tiebreak.alphabetic.brute_force_optimal or "_balanced_split_cost" in used
    assert used.isdisjoint({"dp_optimal_cost", "greedy_partition", "phase1_depths", "hu_tucker"})


def _file_writes(source: str) -> list[int]:
    """Lines outside `_write_over` that write a file or open one for writing."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        if isinstance(node, ast.FunctionDef) and node.name == "_write_over":
            inside = True
        if isinstance(node, ast.Call) and not inside:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("write_text", "write_bytes"):
                found.append(node.lineno)
            elif name == "open":
                # `os.open` takes flags, so it counts wherever it appears. The
                # mode is builtin `open`'s second argument, `Path.open`'s first.
                is_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
                at = 1 if isinstance(func, ast.Name) else 0
                modes = node.args[at : at + 1] + [kw.value for kw in node.keywords if kw.arg == "mode"]
                if is_os or any(
                    not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                    or set(m.value) & set("wax+")
                    for m in modes
                ):
                    found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def test_cli_writes_files_only_through_its_one_writer() -> None:
    # Truncating a file whose blocks are on disk waits for them to be freed;
    # `_write_over` writes in place instead, and every output goes through it.
    source = Path(tiebreak.cli.__file__).read_text(encoding="utf-8")
    assert "def _write_over(" in source
    assert _file_writes(source) == []


@pytest.mark.parametrize(
    "line, writes",
    [
        ('Path(p).write_text(t, encoding="utf-8")', True),
        ("Path(p).write_bytes(b)", True),
        ('open(p, "w")', True),
        ('open(p, mode="a")', True),
        ("open(p, mode)", True),
        ('Path(p).open("r+")', True),
        ("os.open(p, os.O_WRONLY)", True),
        ("open(p)", False),
        ('open(p, "rb")', False),
        ("Path(p).read_text()", False),
    ],
)
def test_the_writer_guard_sees_each_way_to_write(line: str, writes: bool) -> None:
    source = f"def _cmd(p, t, b, mode):\n    {line}\n\n\ndef _write_over(p, t):\n    {line}\n"
    assert _file_writes(source) == ([2] if writes else [])
