"""The README's module table names only what its modules define, and its
exit-code sentence names each error class."""

import importlib
import re
from pathlib import Path

import pytest

from latflow.errors import LatflowError

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


def _error_classes(cls=LatflowError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _error_classes(sub)


def test_exit_codes_sentence_names_each_error_class():
    # the sentence pairs each backquoted code with the backquoted labels
    # after it: every LatflowError subclass's exit code and label, and no
    # other code or label (0 is success)
    text = " ".join(README.read_text().split())
    sentence = text.split("Exit codes: ", 1)[1].split(". ", 1)[0]
    named, codes, code = set(), {0}, None
    for token in re.findall(r"`([^`]+)`", sentence):
        if token.isdigit():
            code = int(token)
            codes.add(code)
        else:
            named.add((code, token))
    classes = list(_error_classes())
    assert named == {(cls.exit_code, cls.label) for cls in classes}
    assert codes == {0} | {cls.exit_code for cls in classes}
