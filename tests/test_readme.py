"""The README's module table names only what its modules define."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
_ROW = re.compile(r"^\| `(latflow\.\w+)` *\|(.*)\|\s*$")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _module_rows():
    """(module, contents cell) of each `latflow.X` row of "What's inside"."""
    section = README.read_text().split("## What's inside", 1)[1].split("\n## ", 1)[0]
    return [m.groups() for m in map(_ROW.match, section.splitlines()) if m]


def test_module_table_is_found():
    assert {name for name, _ in _module_rows()} >= {"latflow.diophantine", "latflow.lattice"}


@pytest.mark.parametrize("name, contents",
                         [pytest.param(*row, id=row[0]) for row in _module_rows()])
def test_module_table_names_resolve(name, contents):
    # tokens that are not dotted identifiers, like `lll_reduce(cols)` or
    # a CLI line, name no attribute
    module = importlib.import_module(name)
    for token in re.findall(r"`([^`]+)`", contents):
        if not _DOTTED.fullmatch(token):
            continue
        obj = module
        for part in token.split("."):
            assert hasattr(obj, part), f"{name} has no {token}"
            obj = getattr(obj, part)
