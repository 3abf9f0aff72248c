"""The runtime imports exactly the third-party packages that pyproject.toml
declares: an undeclared import fails here, and so does a declared dependency
that no module of ``src/latflow`` imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> set:
    names = set()
    for path in (ROOT / "src" / "latflow").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"latflow"}


def test_runtime_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        dependencies = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[\w.-]+", d).group(0).lower().replace("-", "_")
                for d in dependencies}
    assert _third_party_imports() == declared
