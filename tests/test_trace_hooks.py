"""The benchmark's trace hooks (``perfbench/tracing.py``) wrap latflow
functions by module attribute; a refactor that renames or moves one of them
would silently drop its spans from ``perfbench --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

from latflow.flow import FlowTime, LineSegmentSpec
from latflow.scalars import F64, named_scalar

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_point_exists():
    tracing = _tracing()
    assert tracing.WRAP_POINTS
    for mod_name, attr, _ in tracing.WRAP_POINTS:
        fn = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(fn), f"{mod_name}.{attr} is gone"


def test_traced_translates_reduce_once_per_sample():
    tracing = _tracing()
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
