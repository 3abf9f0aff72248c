"""Library modules report through return values and exceptions; only the
command-line front end (``cli.py``) prints."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "latflow"
LIBRARY = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_library_code_never_prints(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "print"]
    assert not lines, f"{path.name} calls print at lines {lines}"
