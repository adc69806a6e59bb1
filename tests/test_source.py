"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import tiebreak


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
