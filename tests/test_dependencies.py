"""The runtime imports exactly the third-party packages that pyproject.toml
declares: an undeclared import fails here, and so does a declared dependency
that no module of ``src/latflow`` imports.  Nor does ``import latflow.cli``
load the standard-library modules that each CLI process would pay for before
any lattice work without using them."""

import ast
import os
import re
import subprocess
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


def test_cli_import_leaves_out_the_unused_standard_library():
    # -S: no ``site``, whose hooks may load these modules first
    code = ("import sys; before = set(sys.modules); import latflow.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    added = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "latflow.cli" in added
    unused = {"dataclasses", "inspect", "ast", "dis", "tokenize", "pathlib", "typing"}
    assert unused.isdisjoint(added), sorted(unused.intersection(added))
