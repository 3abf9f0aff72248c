"""The verification tools in ``tools/``: ``report_diff.differences`` decides
which operations of two source trees differ, and ``line_trace.executable_lines``
which lines a trace must reach; each is loaded from its file, as the tools
run."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def report_diff(monkeypatch):
    # no bytecode cache in tools/; the caller's setting returns after the
    # test, also when importing line_trace has set it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return _load("report_diff")


@pytest.fixture
def line_trace(report_diff, monkeypatch):
    monkeypatch.setitem(sys.modules, "report_diff", report_diff)  # imported by name
    return _load("line_trace")


def _op(**changes):
    return dict({"stem": "op0", "argv": [], "rc": 0, "stdout": "out\n", "stderr": ""},
                **changes)


def test_report_diff_differences(report_diff, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for d in (old, new):
        d.mkdir()
        (d / "op0.json").write_text('{"a": 1}\n')
        (d / "op0.csv").write_text("a\n1\n")
    differences = report_diff.differences
    assert differences(_op(), _op(), str(old), str(new)) == []
    assert differences(_op(), _op(rc=3), str(old), str(new)) == ["rc"]
    assert differences(_op(), _op(stdout="out"), str(old), str(new)) == ["stdout"]
    assert differences(_op(), _op(stderr="x"), str(old), str(new)) == ["stderr"]
    (new / "op0.json").write_text('{"a": 2}\n')
    assert differences(_op(), _op(), str(old), str(new)) == ["op0.json"]
    (new / "op0.csv").unlink()
    assert differences(_op(), _op(rc=3), str(old), str(new)) == ["rc", "op0.json", "op0.csv"]
    # a file missing on both sides is no difference
    (old / "op0.csv").unlink()
    assert differences(_op(), _op(), str(old), str(new)) == ["op0.json"]


def test_line_trace_counts_nested_code(line_trace, tmp_path):
    path = tmp_path / "nested.py"
    path.write_text("x = 1\n"
                    "\n"
                    "\n"
                    "def f():\n"
                    "    def g():\n"
                    "        return 2\n"
                    "    return g\n"
                    "\n"
                    "\n"
                    "class C:\n"
                    "    def m(self):\n"
                    "        # a comment\n"
                    "        return [i for i in range(3)]\n")
    lines = line_trace.executable_lines(str(path))
    # the bodies of f, g, C and C.m, and the comprehension, are code objects
    # nested in the module's; blank and comment lines hold no code
    assert lines - {0} == {1, 4, 5, 6, 7, 10, 11, 13}
