"""In-memory spans around the public functions of each latflow module.

Wrappers are installed on the name where the caller looks it up:
``experiments`` binds ``shortest_vector``, ``count_points``,
``translate_basis`` and ``segment_sup`` by ``from ... import``, so those are
wrapped in ``latflow.experiments``; ``lll_reduce`` is a global of
``latflow.lattice`` and is wrapped there, so it nests under
``shortest_vector`` and ``count_points``; ``cli`` reaches the diophantine and
experiments functions through module attributes, so those are wrapped on
their own modules.  A span's self time is its duration minus the durations
of its direct child spans.
"""

from __future__ import annotations

import inspect
import math
from collections import Counter
from time import perf_counter

# (module holding the binding, attribute, span name)
WRAP_POINTS = [
    ("latflow.cli", "main", "cli.main"),
    ("latflow.cli", "named_scalar", "scalars.named_scalar"),
    ("latflow.flow", "named_scalar", "scalars.named_scalar"),
    ("latflow.diophantine", "rational_certificate", "diophantine.rational_certificate"),
    ("latflow.diophantine", "w2_witness_search", "diophantine.w2_witness_search"),
    ("latflow.diophantine", "w2eps_witness_search", "diophantine.w2eps_witness_search"),
    ("latflow.diophantine", "w2inf_profile", "diophantine.w2inf_profile"),
    ("latflow.diophantine", "ir_density", "diophantine.ir_density"),
    ("latflow.diophantine", "dirichlet_direct", "diophantine.dirichlet_direct"),
    ("latflow.experiments", "sample_translate", "experiments.sample_translate"),
    ("latflow.experiments", "escape_mass_fraction", "experiments.escape_mass_fraction"),
    ("latflow.experiments", "segment_minimum", "experiments.segment_minimum"),
    ("latflow.experiments", "trajectory_probe", "experiments.trajectory_probe"),
    ("latflow.experiments", "ks_distance", "experiments.ks_distance"),
    ("latflow.experiments", "shortest_vector", "lattice.shortest_vector"),
    ("latflow.experiments", "count_points", "lattice.count_points"),
    ("latflow.experiments", "translate_basis", "lattice.translate_basis"),
    ("latflow.experiments", "segment_sup", "flow.segment_sup"),
    ("latflow.lattice", "lll_reduce", "lattice.lll_reduce"),
]

LAYERS = ("scalars", "flow", "lattice", "diophantine", "experiments", "cli")


def _count_q_scan(tr, args, result, dur):
    tr.counters["diophantine.q_scanned"] += args["q_max"]


def _count_list_witnesses(tr, args, result, dur):
    _count_q_scan(tr, args, result, dur)
    tr.counters["diophantine.witnesses"] += len(result)


def _count_profile(tr, args, result, dur):
    _count_q_scan(tr, args, result, dur)
    tr.counters["diophantine.witnesses"] += sum(e.witness is not None for e in result)


def _count_density(tr, args, result, dur):
    _count_q_scan(tr, args, result, dur)
    tr.counters["diophantine.ir_density.intervals"] += len(result.intervals)


def _count_dirichlet(tr, args, result, dur):
    tr.counters["diophantine.dirichlet_direct.pairs"] += sum(
        (2 * math.floor(float(T)) + 1) ** 2 - 1 for T in args["T_list"])


def _count_shortest(tr, args, result, dur):
    if result.escalated:
        tr.counters["lattice.shortest_vector.escalated"] += 1
        tr.escalated_s += dur


def _count_points(tr, args, result, dur):
    tr.counters["lattice.count_points.points"] += result


def _count_segment_minimum(tr, args, result, dur):
    tr.counters["experiments.segment_minimum.found"] += result is not None


def _count_samples(tr, args, result, dur):
    tr.counters["experiments.sample_translate.samples"] += len(result)


COUNTERS = {
    "diophantine.w2_witness_search": _count_list_witnesses,
    "diophantine.w2eps_witness_search": _count_list_witnesses,
    "diophantine.w2inf_profile": _count_profile,
    "diophantine.ir_density": _count_density,
    "diophantine.dirichlet_direct": _count_dirichlet,
    "lattice.shortest_vector": _count_shortest,
    "lattice.count_points": _count_points,
    "experiments.segment_minimum": _count_segment_minimum,
    "experiments.sample_translate": _count_samples,
}

# Counters that must repeat exactly for the same seed.
COUNT_NAMES = (
    "diophantine.q_scanned", "diophantine.witnesses",
    "diophantine.ir_density.intervals", "diophantine.dirichlet_direct.pairs",
    "lattice.shortest_vector.escalated", "lattice.count_points.points",
    "experiments.segment_minimum.found", "experiments.sample_translate.samples",
)


class Tracer:
    """Records spans as [name, parent index, start, end] in call order."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.escalated_s = 0.0
        self._open = []
        self._saved = []

    def install(self, modules):
        for mod_name, attr, span in WRAP_POINTS:
            mod = modules[mod_name]
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, span))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        sig = inspect.signature(fn) if count else None
        spans = self.spans
        stack = self._open

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, bound.arguments, result, span[3] - span[2])
            return result

        return traced

    def summary(self) -> dict:
        """Per-span-name calls and self time, per-layer self time, counters."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        out = {}
        for name in {s for _, _, s in WRAP_POINTS}:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self_s.items() if k.split(".")[0] == layer)
        for key in COUNT_NAMES:
            out[key] = self.counters[key]
        out["lattice.shortest_vector.escalated_s"] = self.escalated_s
        out["spans"] = len(self.spans)
        return out
