"""Compare the reports of two latflow source trees on the benchmark workloads.

    python3 tools/report_diff.py OLD_SRC NEW_SRC [--seeds 1,2,3]

OLD_SRC and NEW_SRC are the ``src`` directories of two checkouts.  For each
tree, one fresh interpreter imports ``latflow.cli`` from it and runs every
operation of ``perfbench/workloads.operations(w, seed)`` (the three
workloads, README commands included) through ``latflow.cli.main``, in
order, as the benchmark child does, and then the fixed ``EXTRA_OPS``, which
reach the paths no workload runs.  Each operation writes its report with
the same relative ``--out`` under that tree's own temporary directory.

The JSON and CSV files, stdout, stderr and exit code of every operation are
then compared byte for byte.  The first differing operations are named, and
the exit status is 1 on any difference, else 0.  Only the standard library
is used; ``perfbench/`` is imported, never written to.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
SHOWN = 10  # differing operations named in full

# Run once, after the workload operations: bigfloat, escalated f64 (t > 9.2)
# and rational translates, f64 translates on I = [-50, 50], whose columns at
# t = 9 and 9.1 are too long for the f64 entry test, the bigfloat
# and rational orbit and dirichlet paths, f64 dirichlet past t = 7, f64
# orbit minima where an f64 evaluation of the segment supremum would cancel,
# three integral-LLL searches: the fullest blocks (every q a witness), a
# certificate inside the search whose multiples fill the blocks, and the
# widest integers (a 720-digit denominator); and the report writers' paths
# no workload takes: three count columns, JSON alone (rows past one 64-row
# chunk) and CSV alone; bigfloat inputs wider than B bits, whose B-bit
# roundings and exact arithmetic after them every report shows; last, the
# translates of the line (1/2, 1/4) in f64, bigfloat (integer rows) and
# rational mode: at t = 0 two coordinates of each lattice point are
# integers, so many points lie exactly on the faces of the count boxes;
# and the box searches whose blocks reduce wide integers, each block from
# the basis of the block before: the 16,745-bit rows of liouville:7, the
# W2inf witness q = 10^24 of liouville:5 at q_max = 10^25, and
# a bigfloat:256 density whose window search passes 20 blocks; then the f64
# translates that leave the f64 reduction: a Gram-Schmidt length past the
# f64 range (1e200), and columns whose length overflows f64 (a slope near
# 10^289); the leaf-by-leaf f64 count of a radius below 2^-400; a slope of
# 10^8, whose columns are too long for the f64 entry test at t = 5; an f64
# dirichlet whose t = 18 verdict at the exact a s + b differs from the one
# at fl(fl(a s) + b); the bare bigfloat mode with a --budget; an f64 input
# past the f64 range (exit 4); f64 translates at t = 9.2 whose columns are
# no longer than e^{2t} (|s|, |a s + b| <= 1), just under GSO_RANGE_CAP,
# where the f64 LLL swap chains are longest; rational translates whose
# entries are past the f64 range, which reduce exactly; f64 translates of
# the line (0, 1e-130), whose reduced rows hold an entry below 2^-400 at
# t = 0 (in r2) and at t = 3 (in r0), so every leaf of their counts takes
# the leaf test; and f64 translates of (0, 0) on [0, 1e-100] at t = 0,
# nearly Z^3, whose count boxes end within a rounding margin of integer
# x0 on both sides of a line; last, f64 translates at t = -190, whose
# squared Gram-Schmidt length n0 underflows (``lll_reduce`` refuses it),
# whose exact Gram-Schmidt ratios overflow f64 (``_clamped_ratio``) and
# whose count's squared walk radius is past the f64 range (exit 3), and at
# t = -400, where e^{2t} is 0 in f64 (exit 4); last, the translates whose
# exact reduction starts from an f64 one or not: bigfloat translates at
# t <= 8, whose f64 pass resolves the columns but only starts the exact
# reduction, f64 translates at t = 12.5 and 13, whose spread is past
# 2^53 = 1/u, so that they reduce exactly and cold, and a rational line
# at t = 10, whose f64 pass leaves the columns unresolved; last, f64
# translates of (0, 0) at t = 0 (Gram-Schmidt lengths 1) at a radius r whose
# walk bound fl(3 r^2) (1 + 1e-9)^2 falls just below 25 while its square
# root rounds to 5, so that both ``continue`` guards of the walk skip a
# line; f64 translates with s near 10^300 at t = 8, where s e^{4t}
# overflows and ``lll_reduce`` refuses the columns at their second
# Gram-Schmidt length; and a rational W2eps test whose 2 + eps is log2(50)
# to 36 digits, so that at q = 2, r = 1/50 ``_pow_bound_check`` doubles
# its digits; last, escape fractions within delta = 0.5 on integer rows:
# f64 translates at t = 9.5 and 12, and rational ones at t = 10 whose
# integer rows have denominators that are not powers of 2; last, the two
# scans of ``dirichlet``'s probe: a rational orbit whose tail is outside K
# from t = 0.92 to t_max = 8 on a grid of 0.01, so that the backward scan
# probes 709 times, and a --direct-step of 0.3 on a grid of 0.04, which is
# no multiple of it, so that the check times are the multiples of 0.6;
# last, a direct Dirichlet check at delta = 0.05 every 0.25 in t, where the
# start from the horizon before shows five horizons unsolvable without a
# reduction (no workload operation has such a horizon); last, segment
# minima and return windows off I = [0, 1], in rational, bigfloat:256 and
# f64 lines, so that the exact point (s, b + a s) of ``LineSegmentSpec.point``
# is taken at ends other than 0 and 1 (every workload operation and every
# extra above that reaches it runs on [0, 1]).
#
# No operation reaches these lines, error paths aside, for these reasons:
# - ``cli._fmt`` of a bool: every bool column of a report is all bool, which
#   ``_csv_cells`` maps without ``_fmt``; ``_fmt`` is the tests' reference;
# - ``cli._write_outputs`` without --out: these tools give every operation
#   an --out, to compare its files;
# - the doubling of ``ScalarMode.rounded``: it needs a square root or an
#   e^{kt} within about 2^-(33 + B/10) ulp of a B-bit rounding boundary
#   (a test builds one);
# - the iteration cap of ``lll_reduce``: at a spread of at most 2^53 the
#   loop ends within about 44,000 steps in exact arithmetic (each swap
#   cuts d1 d2 by 0.99, and it can fall by a factor of at most
#   (4/3) spread^6), under the cap of 100,000;
# - the in-loop refusals of ``lll_reduce``: a zero Gram-Schmidt length
#   after a step needs columns dependent to within rounding, a spread
#   within a small factor of 2^53, which no translate of the operations
#   meets (tests build such columns);
# - the non-finite refusal of ``lll_reduce`` after its loop: past the entry
#   tests every squared column length is finite and the spread at most
#   2^53, so no step leaves the f64 range.
# - the tie of ``escape_mass_fraction``'s test, a first minimum at the
#   midpoint of delta and the float below it: it needs a translate whose
#   exact lambda_1 is that midpoint, which the tests plant.
# - ``flow.segment_sup``: ``segment_minimum`` takes its value from the exact
#   minimum, so no subcommand calls it; it stays as a library function, the
#   tests' check of every segment minimum, and a name that perfbench's trace
#   hooks wrap in ``latflow.experiments``.
EXTRA_OPS = [
    ["equidist", "sqrt2", "sqrt3", "--mode", "bigfloat:256", "--t-list", "5,9.5,11",
     "--N", "20", "--radii", "1.5"],
    ["equidist", "sqrt2", "sqrt3", "--t-list", "9.5,11,12", "--N", "50", "--radii", "1.5"],
    ["equidist", "sqrt2", "sqrt3", "--interval=-50,50", "--t-list", "0,9,9.1", "--N", "50",
     "--radii", "1.5"],
    ["equidist", "1/2", "1/3", "--mode", "rational", "--t-list", "3,6", "--N", "50",
     "--radii", "1.5"],
    ["orbit", "sqrt2", "sqrt3", "--mode", "bigfloat:256", "--t-grid", "0:12:3", "--N", "5"],
    ["orbit", "1/2", "1/3", "--mode", "rational", "--t-grid", "0:12:3", "--N", "5"],
    ["dirichlet", "sqrt2", "sqrt3", "--mode", "bigfloat:256", "--t-max", "10"],
    ["dirichlet", "1/2", "1/3", "--mode", "rational", "--t-max", "11"],
    ["dirichlet", "sqrt2", "sqrt3", "--t-max", "10"],
    ["dirichlet", "0.3", "0.7", "--t-max", "11"],
    ["orbit", "0.123456789012345", "0.987654321098765", "--t-grid", "8", "--N", "5"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "0:12:1", "--N", "10"],
    ["classify", "0", "0", "--mode", "rational", "--q-max", "2000"],
    ["density", "1/2", "1/3", "--mode", "rational", "--q-max", "20000", "--T", "8"],
    ["classify", "liouville:6", "1/3", "--mode", "rational", "--q-max", "1000"],
    ["equidist", "golden", "sqrt2", "--t-list", "2,4.5", "--N", "100",
     "--radii", "0.75,1.5,3"],
    ["equidist", "sqrt2", "sqrt3", "--t-list", "3,5", "--N", "70", "--format", "json"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "0:6:1", "--N", "5", "--format", "csv"],
    ["classify", "liouville:7", "1/3", "--mode", "bigfloat:256", "--q-max", "1000"],
    ["equidist", "0.404796669725102734646869589694", "sqrt3", "--mode", "bigfloat:53",
     "--t-list", "3,6", "--N", "20"],
    ["orbit", "sqrt2", "sqrt3", "--mode", "bigfloat:64", "--t-grid", "0:10:2.5", "--N", "5"],
    ["equidist", "1/2", "1/4", "--interval=0,1", "--t-list", "0,0.5", "--N", "60",
     "--radii", "1,2"],
    ["equidist", "1/2", "1/4", "--mode", "bigfloat:64", "--interval=0,1", "--t-list", "0,1",
     "--N", "40", "--radii", "1,2"],
    ["equidist", "1/2", "1/4", "--mode", "rational", "--interval=0,1", "--t-list", "0",
     "--N", "40", "--radii", "1,2"],
    ["classify", "liouville:7", "1/3", "--mode", "rational", "--q-max", "10"],
    ["classify", "liouville:5", "1/3", "--mode", "rational", "--q-max", str(10 ** 25)],
    ["density", "sqrt2", "sqrt3", "--mode", "bigfloat:256", "--R", "1", "--T", "13.2",
     "--q-max", "1000000"],
    ["equidist", "1e200", "1", "--t-list", "1", "--N", "3"],
    ["equidist", "-2e219", "-2e289", "--t-list", "1", "--N", "200"],
    ["equidist", "sqrt2", "sqrt3", "--t-list", "3", "--N", "5", "--radii", "1e-125,1.5"],
    ["equidist", "123456789.5", "0.25", "--t-list", "5", "--N", "200", "--radii", "1.5"],
    ["dirichlet", "sqrt2", "sqrt3", "--s", "0.45", "--delta", "0.6", "--t-max", "18"],
    ["classify", "sqrt2", "sqrt3", "--mode", "bigfloat", "--q-max", "1000",
     "--budget", "1000000"],
    ["classify", "1e400", "1", "--q-max", "10"],
    ["equidist", "sqrt2", "0.123456789012345", "--interval=-1/2,1/2", "--t-list", "9.2",
     "--N", "50", "--radii", "1.5"],
    ["equidist", "1e400", "1", "--mode", "rational", "--t-list", "1", "--N", "3"],
    ["equidist", "0", "1e-130", "--t-list", "0,3", "--N", "5", "--radii", "1.5"],
    ["equidist", "0", "0", "--interval=0,1e-100", "--t-list", "0", "--N", "3", "--radii", "1"],
    ["equidist", "sqrt2", "sqrt3", "--t-list", "-190", "--N", "3"],
    ["equidist", "sqrt2", "sqrt3", "--t-list", "-400", "--N", "3"],
    ["equidist", "sqrt2", "sqrt3", "--mode", "bigfloat:256", "--t-list", "2,8", "--N", "20",
     "--radii", "1.5"],
    ["equidist", "sqrt2", "sqrt3", "--t-list", "12.5,13", "--N", "20"],
    ["equidist", "1/2", "1/3", "--mode", "rational", "--t-list", "10", "--N", "20",
     "--radii", "1.5"],
    ["equidist", "0", "0", "--interval=0,1e-100", "--t-list", "0", "--N", "3",
     "--radii", "2.886751343061377"],
    ["equidist", "sqrt2", "sqrt3", "--interval=0,1e300", "--t-list", "8", "--N", "3",
     "--radii", "0.001"],
    ["classify", "0", "1/100", "--mode", "rational", "--q-max", "10",
     "--eps", "3.643856189774724695740638858978780352"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "9.5,12", "--N", "40", "--delta", "0.5"],
    ["orbit", "1/7", "2/9", "--mode", "rational", "--t-grid", "10", "--N", "20",
     "--delta", "0.5"],
    ["dirichlet", "1/2", "1/3", "--mode", "rational", "--s", "1/3", "--delta", "0.5",
     "--t-max", "8", "--dt", "0.01"],
    ["dirichlet", "sqrt2", "sqrt3", "--s", "0.45", "--delta", "0.6", "--t-max", "7",
     "--dt", "0.04", "--direct-step", "0.3"],
    ["dirichlet", "sqrt2", "sqrt3", "--s", "0.3", "--delta", "0.05", "--t-max", "6",
     "--direct-step", "0.25"],
    ["orbit", "1/7", "2/9", "--mode", "rational", "--interval=-1/3,5/11",
     "--t-grid", "0:10:2.5", "--N", "5"],
    ["density", "1/7", "2/9", "--mode", "rational", "--interval=-1/3,5/11",
     "--q-max", "20000", "--T", "8"],
    ["orbit", "sqrt2", "sqrt3", "--mode", "bigfloat:256", "--interval=-0.37,0.61",
     "--t-grid", "0:12:4", "--N", "5"],
    ["density", "golden", "0.123456789", "--mode", "bigfloat:256", "--interval=-0.37,0.61",
     "--q-max", "100000", "--T", "10"],
    ["orbit", "0.123456789012345", "0.987654321098765", "--interval=-0.37,0.61",
     "--t-grid", "3,9.5", "--N", "5"],
]

# Runs in the child, with cwd the tree's temporary directory:
# argv = [perfbench dir, seeds, EXTRA_OPS as JSON].  The result goes to
# ops.json there.
CHILD = """
import contextlib, io, json, sys, traceback
sys.path.insert(0, sys.argv[1])
import workloads
import latflow.cli as cli

ops = [(f"{workload}-s{seed}-op{i}", op)
       for seed in map(int, sys.argv[2].split(","))
       for workload in workloads.WORKLOADS
       for i, op in enumerate(workloads.operations(workload, seed))]
ops += [(f"extra-op{i}", op) for i, op in enumerate(json.loads(sys.argv[3]))]
results = []
for stem, op in ops:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(op + ["--out", stem])
        except Exception:
            rc = "uncaught: " + traceback.format_exc()
    results.append({"stem": stem, "argv": op, "rc": rc,
                    "stdout": out.getvalue(), "stderr": err.getvalue()})
with open("ops.json", "w", encoding="utf-8") as f:
    json.dump(results, f)
"""


def run_tree(src: str, work: str, seeds: str) -> list[dict]:
    """Run every operation of ``src`` in one interpreter under ``work``."""
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    # -B: no bytecode caches, so nothing is written under perfbench/
    subprocess.run([sys.executable, "-B", "-c", CHILD, PERFBENCH, seeds,
                    json.dumps(EXTRA_OPS)],
                   cwd=work, env=env, check=True)
    with open(os.path.join(work, "ops.json"), encoding="utf-8") as f:
        return json.load(f)


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


def differences(old: dict, new: dict, old_dir: str, new_dir: str) -> list[str]:
    """What differs between the two runs of one operation."""
    found = [key for key in ("rc", "stdout", "stderr") if old[key] != new[key]]
    for ext in (".json", ".csv"):
        name = old["stem"] + ext
        if _read(os.path.join(old_dir, name)) != _read(os.path.join(new_dir, name)):
            found.append(name)
    return found


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--seeds", default="1", help="comma list of workload seeds")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report_diff-") as tmp:
        old_dir, new_dir = os.path.join(tmp, "old"), os.path.join(tmp, "new")
        old_ops = run_tree(args.old_src, old_dir, args.seeds)
        new_ops = run_tree(args.new_src, new_dir, args.seeds)
        differing = []
        for old, new in zip(old_ops, new_ops, strict=True):
            found = differences(old, new, old_dir, new_dir)
            if found:
                differing.append((old, found))
        files = sum(os.path.exists(os.path.join(old_dir, op["stem"] + ext))
                    for op in old_ops for ext in (".json", ".csv"))
    print(f"{len(old_ops)} operations ({len(old_ops) - len(EXTRA_OPS)} at seeds "
          f"{args.seeds} and {len(EXTRA_OPS)} extra), {files} report files: "
          f"{len(differing)} operations differ")
    for op, found in differing[:SHOWN]:
        print(f"  {op['stem']}: {', '.join(found)} differ; argv {' '.join(op['argv'])}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
