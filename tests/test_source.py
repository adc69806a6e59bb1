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


def test_no_assert_statements_in_the_package() -> None:
    # `python -O` strips assert statements, so no check may live in one.
    modules = sorted(Path(tiebreak.__file__).parent.glob("*.py"))
    assert "alphabetic.py" in {path.name for path in modules}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
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
    assert sorted(tiebreak._HOME) == sorted(tiebreak.__all__)
    assert set(table) <= set(SUBMODULES)


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
