"""The benchmark's trace hooks (``perfbench/tracing.py``) wrap latflow
functions by module attribute; a refactor that renames or moves one of them
would silently drop its spans from ``perfbench --trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from latflow.flow import FlowTime, LineSegmentSpec
from latflow.scalars import F64, named_scalar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    # no bytecode cache in perfbench/; the caller's setting returns after the
    # test
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_exists(tracing):
    assert tracing.WRAP_POINTS
    for mod_name, attr, _ in tracing.WRAP_POINTS:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr} is gone"


def test_traced_translates_reduce_once_per_sample(tracing):
    names = {mod_name for mod_name, _, _ in tracing.WRAP_POINTS}
    modules = {name: importlib.import_module(name) for name in names}
    exp = modules["latflow.experiments"]
    line = LineSegmentSpec(named_scalar("sqrt2", F64), named_scalar("sqrt3", F64),
                           0.0, 1.0, F64)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        exp.sample_translate(line, FlowTime.of(5.0), 6, seed=2, radii=(1.0, 1.5))
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["experiments.sample_translate.samples"] == 6
    assert summary["lattice.lll_reduce.calls"] == 6
    assert summary["lattice.count_points.calls"] == 12


def test_traced_cli_runs_count_every_search(tracing, capsys):
    # the counters bind q_max, T_list and results by signature, as
    # ``perfbench --trace 1`` does around the child's cli.main calls
    modules = {name: importlib.import_module(name)
               for name in {mod_name for mod_name, _, _ in tracing.WRAP_POINTS}}
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        for argv in (["classify", "sqrt2", "sqrt3", "--q-max", "1000"],
                     ["density", "sqrt2", "sqrt3", "--q-max", "1000", "--T", "5"],
                     ["orbit", "sqrt2", "sqrt3", "--t-grid", "0,2", "--N", "3"],
                     ["dirichlet", "sqrt2", "sqrt3", "--t-max", "1"],
                     ["equidist", "sqrt2", "sqrt3", "--t-list", "3,4", "--N", "3"]):
            assert modules["latflow.cli"].main(argv) == 0, argv
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for mod_name, _, span in tracing.WRAP_POINTS:
        # segment_minimum takes its value from the exact minimum, so no
        # subcommand calls segment_sup through experiments any more
        if mod_name in ("latflow.diophantine", "latflow.experiments") \
                and span != "flow.segment_sup":
            assert summary[f"{span}.calls"] > 0, span
    assert summary["flow.segment_sup.calls"] == 0
    assert summary["cli.main.calls"] == 5
    assert summary["diophantine.q_scanned"] == 4 * 1000
    assert summary["diophantine.witnesses"] > 0
    assert summary["diophantine.ir_density.intervals"] > 0
    assert summary["diophantine.dirichlet_direct.pairs"] > 0
    assert summary["experiments.segment_minimum.found"] > 0
    # equidist samples through sample_translate; orbit's escape fractions
    # reduce their 2 x 3 translates under their own span
    assert summary["experiments.sample_translate.samples"] == 2 * 3
    assert summary["experiments.escape_mass_fraction.calls"] == 2
    names = [span[0] for span in tracer.spans]
    assert sum(parent >= 0 and names[parent] == "experiments.escape_mass_fraction"
               for name, parent, _, _ in tracer.spans
               if name == "lattice.translate_basis") == 2 * 3
