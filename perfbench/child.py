"""One measured process: imports latflow.cli, runs a workload's operations
through ``latflow.cli.main(argv)`` in passes, checks every report, and writes
a JSON result file.

    python3 perfbench/child.py RESULT_JSON WORKLOAD SEED PLAN ORDER

PLAN is a comma list of passes over the operations, each ``plain`` or
``traced``.  ORDER is ``sequential`` (each pass over all operations before
the next starts) or ``interleaved`` (every pass runs operation i before any
pass runs operation i + 1).  The caller sets PYTHONPATH to the checkout's
``src`` and pins every thread pool to one thread; this process is the single
closed-loop caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import speed  # noqa: E402
import workloads  # noqa: E402
from checks import Checker, compare, fingerprint  # noqa: E402
from tracing import Tracer  # noqa: E402

DEFAULT_SEED = 1
REFERENCE_DIR = os.path.join(HERE, "reference")


def run_op(cli, argv, stem):
    """Run one operation; returns (latency_s, exit code, parsed report)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        rc = cli.main(argv + ["--out", stem])
        latency = perf_counter() - start
    doc = None
    if os.path.exists(stem + ".json"):
        with open(stem + ".json", encoding="utf-8") as f:
            doc = json.load(f)
    return latency, rc, doc


def main(argv):
    result_path, workload, seed = argv[1], argv[2], int(argv[3])
    plan, order = argv[4].split(","), argv[5]
    import latflow.cli as cli

    from latflow.scalars import mode_from_spec, named_scalar
    checker = Checker(lambda text, mode: named_scalar(text, mode_from_spec(mode)))
    ops = workloads.operations(workload, seed)
    reference = None
    if seed == DEFAULT_SEED:
        with open(os.path.join(REFERENCE_DIR, workload + ".json"), encoding="utf-8") as f:
            reference = json.load(f)
        if [r["argv"] for r in reference] != ops:
            raise SystemExit("reference operations differ from the generated ones")

    out_dir = os.path.join(os.path.dirname(result_path), f"ops-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    for i, op in enumerate(workloads.WARMUP_OPS[workload]):
        run_op(cli, op, os.path.join(out_dir, f"warmup{i}"))

    # Interleaved passes see the same machine speed at each operation, which
    # a traced-versus-untraced comparison needs.  Sequential passes put a
    # whole pass between two runs of an operation, so a change of machine
    # speed lasting a few seconds touches only one of them, and a
    # per-operation median over passes drops it.  Each operation is
    # bracketed by speed calibrations (speed.py), whose mean is kept beside
    # its latency.
    passes = [{"kind": kind, "latencies": [], "kernel_s": [], "failures": []}
              for kind in plan]
    tracers = [Tracer() if kind == "traced" else None for kind in plan]
    if order == "interleaved":
        schedule = [(i, k) for i in range(len(ops)) for k in range(len(plan))]
    elif order == "sequential":
        schedule = [(i, k) for k in range(len(plan)) for i in range(len(ops))]
    else:
        raise SystemExit(f"unknown pass order {order!r}")
    for i, k in schedule:
        op, entry, tracer = ops[i], passes[k], tracers[k]
        kernel_s = speed.calibrate()
        if tracer is not None:
            tracer.install(sys.modules)
        try:
            latency, rc, doc = run_op(cli, op, os.path.join(out_dir, f"op{i}"))
        finally:
            if tracer is not None:
                tracer.uninstall()
        entry["latencies"].append(latency)
        entry["kernel_s"].append((kernel_s + speed.calibrate()) / 2)
        problems = checker.check_report(op, rc, doc)
        if reference is not None:
            problems += compare(fingerprint(rc, doc), reference[i]["fingerprint"])
        if problems:
            entry["failures"].append({"op": i, "argv": op, "problems": problems[:5]})
    for entry, tracer in zip(passes, tracers):
        if tracer is not None:
            entry["trace"] = tracer.summary()

    shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv)
