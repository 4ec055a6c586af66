"""Source checks that keep every certificate checked under ``python -O``."""

from __future__ import annotations

import ast
from pathlib import Path

import lsakit

SRC = Path(lsakit.__file__).resolve().parent


def _raises_assertion_error(node: ast.Raise) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert():
    """``assert`` is stripped under ``-O`` and ``AssertionError`` escapes the
    CLI's exit codes; a failed check raises ``InternalInconsistencyError``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and _raises_assertion_error(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
