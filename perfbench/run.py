"""latflow benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {arith,translates,orbit} --seed N \
        --seconds S --trace {0,1}

Run from the root of a latflow checkout.  The operations of the workload
(see workloads.py) run in-process through ``latflow.cli.main(argv)`` in a
fresh child interpreter with every thread pool pinned to one thread: one
closed-loop caller on one core.  Every report is checked (checks.py); for
the default seed it is also compared with the reference recorded in
perfbench/reference/.

--trace 0 prints the end-to-end metrics: set-up (import) time, the summed
wall time of the operations (each operation's median over passes that run
one after another), the median and tail operation latency, and the child's
peak RSS.  Times are in reference seconds: each measured interval is
rescaled by a speed calibration taken around it (speed.py), so that drift in
the speed of a shared machine does not read as a change in the program.
The raw wall times are printed beside them.

--trace 1 runs the same operations once untraced and twice traced, in two
processes, and prints per-layer self times (raw seconds), call counts and
work counters (tracing.py), the import time of each package, and the
tracing overhead; the two traced runs must give identical counts.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PASS_SECONDS = 11  # nominal duration of one pass over a workload's operations
SETUP_IMPORTS = 5  # fresh interpreters that time `import latflow.cli`
IMPORTTIME_RUNS = 2
DEADLINE_S = 170
TAIL_BEYOND = 10  # the tail percentile keeps this many operations above it
IMPORT_PACKAGES = ("latflow", "scipy", "numpy", "mpmath", "jsonschema")
# argv[1] is this directory, for speed.py; prints the import seconds and the
# kernel seconds of a calibration right after the import (a calibration
# before it would import numpy first).
TIMED_IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); import speed; "
                "t = time.perf_counter(); import latflow.cli; "
                "d = time.perf_counter() - t; print(d, speed.calibrate())")


class BenchError(Exception):
    """The benchmark could not produce a trustworthy result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("LATFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_python(args, deadline) -> subprocess.CompletedProcess:
    remaining = deadline - monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a measurement process")
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"measurement process timed out: {args[:3]}") from e
    if proc.returncode != 0:
        raise BenchError(f"{args[:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def run_child(tmp, workload, seed, plan, order, deadline) -> dict:
    path = os.path.join(tmp, f"child-{'-'.join(plan)}.json")
    run_python([os.path.join(HERE, "child.py"), path, workload, str(seed),
                ",".join(plan), order], deadline)
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def tail_rank(n: int) -> int:
    """1-based rank of the highest order statistic with TAIL_BEYOND above it."""
    return max(1, n - TAIL_BEYOND)


def import_breakdown(deadline) -> dict:
    """Median over runs of each package's own import time, from -X importtime."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        err = run_python(["-X", "importtime", "-c", "import latflow.cli"], deadline).stderr
        own = dict.fromkeys(IMPORT_PACKAGES, 0.0)
        for line in err.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = (part.strip() for part in line[12:].split("|"))
            top = name.split(".")[0]
            if top in own:
                own[top] += int(self_us) / 1e6
        runs.append(own)
    return {f"setup.import.{p}_s": statistics.median(r[p] for r in runs)
            for p in IMPORT_PACKAGES}


def failures_of(passes) -> tuple[int, list]:
    """Operations attempted, and the failed ones, over the given passes."""
    return (sum(len(p["latencies"]) for p in passes),
            [f for p in passes for f in p["failures"]])


def timed_imports(deadline) -> list:
    """(import seconds, kernel seconds) of SETUP_IMPORTS fresh interpreters."""
    runs = []
    for _ in range(SETUP_IMPORTS):
        out = run_python(["-c", TIMED_IMPORT, HERE], deadline).stdout.split()
        runs.append((float(out[0]), float(out[1])))
    return runs


def time_figures(passes, key):
    """wall (sum over operations of the median over passes), pooled median
    and tail of the per-operation times ``key(latency, kernel_s)``."""
    per_pass = [[key(lat, k) for lat, k in zip(p["latencies"], p["kernel_s"])]
                for p in passes]
    pooled = sorted(x for times in per_pass for x in times)
    rank = tail_rank(len(pooled))
    wall = sum(statistics.median(times) for times in zip(*per_pass))
    return wall, statistics.median(pooled), pooled[rank - 1], rank, len(pooled)


def end_to_end(workload, seed, seconds, tmp, deadline):
    imports = timed_imports(deadline)
    n_passes = max(1, round(seconds / PASS_SECONDS))
    res = run_child(tmp, workload, seed, ["plain"] * n_passes, "sequential", deadline)
    passes = res["passes"]
    wall, p50, tail, rank, n = time_figures(passes, speed.rescale)
    raw_wall, raw_p50, raw_tail, _, _ = time_figures(passes, lambda lat, k: lat)
    attempted, failures = failures_of(passes)
    metrics = {
        "setup_s": (statistics.median(speed.rescale(*r) for r in imports), "s"),
        "wall_s": (wall, "s"),
        "op_p50_s": (p50, "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    kernels = [k for p in passes for k in p["kernel_s"]]
    notes = [f"{len(passes)} passes x {len(passes[0]['latencies'])} operations; "
             f"op_tail_s is p{100 * rank / n:.1f} of {n} latencies",
             f"raw wall seconds: wall {raw_wall:.4f}, op p50 {raw_p50:.4f}, "
             f"op tail {raw_tail:.4f}, setup {statistics.median(r[0] for r in imports):.4f}",
             f"calibration kernel {1e3 * statistics.median(kernels):.4f} ms median, "
             f"{1e3 * min(kernels):.4f}-{1e3 * max(kernels):.4f} ms range; "
             f"reference {1e3 * speed.REF_CALIBRATION_S:g} ms"]
    return metrics, attempted, failures, notes


def per_layer(workload, seed, tmp, deadline):
    imports = import_breakdown(deadline)
    first = run_child(tmp, workload, seed, ["plain", "traced"], "interleaved", deadline)
    second = run_child(tmp, workload, seed, ["traced"], "interleaved", deadline)
    plain, traced_a = first["passes"]
    traced_b = second["passes"][0]
    ta, tb = traced_a["trace"], traced_b["trace"]
    counts = [k for k in ta if k.endswith(".calls") or k in tracing.COUNT_NAMES]
    differ = [f"{k}: {ta[k]} vs {tb[k]}" for k in counts if ta[k] != tb[k]]
    if differ:
        raise BenchError("counters differ between two traced runs of the same seed:\n  "
                         + "\n  ".join(differ))
    metrics = {}
    for key, value in ta.items():
        if key == "spans":
            continue
        if key.endswith("_s"):
            metrics[key] = ((value + tb[key]) / 2, "s")
        else:
            metrics[key] = (value, "count")
    q = ta["diophantine.q_scanned"]
    metrics["diophantine.witness_ratio"] = (ta["diophantine.witnesses"] / q if q else 0.0,
                                            "ratio")
    for key, value in imports.items():
        metrics[key] = (value, "s")
    plain_wall = sum(plain["latencies"])
    traced_wall = (sum(traced_a["latencies"]) + sum(traced_b["latencies"])) / 2
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (sum(traced_a["latencies"]) - plain_wall, "s")
    self_sum = sum(v for k, (v, _) in metrics.items() if k.startswith("layer."))
    attempted, failures = failures_of([plain, traced_a, traced_b])
    notes = [f"traced spans per pass: {ta['spans']}; layer self times sum to "
             f"{self_sum:.3f} s of {traced_wall:.3f} s traced wall"]
    return metrics, attempted, failures, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=33)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "latflow", "cli.py")):
        print(f"perfbench: no latflow sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            if args.trace:
                result = per_layer(args.workload, args.seed, tmp, deadline)
            else:
                result = end_to_end(args.workload, args.seed, args.seconds, tmp, deadline)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    metrics, attempted, failures, notes = result

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    notes.append(f"failed_frac {len(failures) / attempted:.4f} "
                 f"({len(failures)}/{attempted} operations)")
    for note in notes:
        print("  " + note)
    for f in failures[:10]:
        print(f"  FAILED op {f['op']} {' '.join(f['argv'])[:80]}: {f['problems']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
