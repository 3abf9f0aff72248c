"""List the lines of a latflow source tree that no benchmark operation runs.

    python3 tools/line_trace.py SRC [--seeds 1,2]

SRC is the ``src`` directory of a checkout.  One fresh interpreter (``-B``:
no bytecode caches) imports ``latflow.cli`` from it and runs, through
``latflow.cli.main``, every operation of ``perfbench/workloads.operations``
at the given seeds and then the ``EXTRA_OPS`` of ``tools/report_diff.py``,
each with its ``--out`` in a temporary directory, under ``sys.settrace``
limited to ``SRC/latflow/*.py``.  The executable lines of a module are the
line numbers that ``co_lines`` gives for its code objects, nested ones
included; for each module the count of those that never ran is printed,
and then each of them with its source text.  Only the standard library is
used; ``perfbench/`` is imported, never written to.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # importing report_diff writes no cache in tools/

import report_diff  # noqa: E402  (this directory is sys.path[0])

# Runs in the child, with cwd a temporary directory: argv = [perfbench dir,
# seeds, EXTRA_OPS as JSON, the latflow package dir].  The executed lines
# go to trace.json there.
CHILD = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import workloads

prefix = os.path.join(sys.argv[4], "")
remaining = {}  # code object -> its lines not yet run


def lines_of(code):
    return {line for _, _, line in code.co_lines() if line is not None}


def tracer(frame, event, arg):
    code = frame.f_code
    left = remaining.get(code)
    if left is None:
        if not code.co_filename.startswith(prefix):
            return None
        left = remaining[code] = lines_of(code)
    left.discard(frame.f_lineno)
    if not left:
        return None

    def local(frame, event, arg):
        left.discard(frame.f_lineno)
        return local if left else None

    return local


ops = [op for seed in map(int, sys.argv[2].split(","))
       for workload in workloads.WORKLOADS
       for op in workloads.operations(workload, seed)]
ops += json.loads(sys.argv[3])
sys.settrace(tracer)
import latflow.cli as cli
failed = []
for i, op in enumerate(ops):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(op + ["--out", f"op{i}"])
        except Exception as exc:
            rc = repr(exc)
    if rc != 0:
        failed.append([op, rc])
sys.settrace(None)
executed = {}
for code, left in remaining.items():
    executed.setdefault(code.co_filename, set()).update(lines_of(code) - left)
with open("trace.json", "w", encoding="utf-8") as f:
    json.dump({"ops": len(ops), "failed": failed,
               "executed": {k: sorted(v) for k, v in executed.items()}}, f)
"""


def executable_lines(path: str) -> set[int]:
    """The lines of every code object compiled from ``path``."""
    with open(path, encoding="utf-8") as f:
        code = compile(f.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace(src: str, seeds: str) -> dict:
    """Run the operations on ``src`` under the tracer; the child's record."""
    package = os.path.join(os.path.abspath(src), "latflow")
    with tempfile.TemporaryDirectory(prefix="line_trace-") as work:
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        subprocess.run([sys.executable, "-B", "-c", CHILD, report_diff.PERFBENCH, seeds,
                        json.dumps(report_diff.EXTRA_OPS), package],
                       cwd=work, env=env, check=True)
        with open(os.path.join(work, "trace.json"), encoding="utf-8") as f:
            return json.load(f)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src")
    p.add_argument("--seeds", default="1,2", help="comma list of workload seeds")
    args = p.parse_args(argv)
    record = trace(args.src, args.seeds)
    package = os.path.join(os.path.abspath(args.src), "latflow")
    extra = len(report_diff.EXTRA_OPS)
    print(f"{record['ops']} operations ({record['ops'] - extra} at seeds {args.seeds} and "
          f"{extra} extra): {len(record['failed'])} exited non-zero")
    for op, rc in record["failed"]:
        print(f"  exit {rc}: {' '.join(op)}")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(package, name)
        lines = executable_lines(path)
        unreached = sorted(lines - set(record["executed"].get(path, ())))
        print(f"latflow/{name}: {len(unreached)} of {len(lines)} executable lines never ran")
        with open(path, encoding="utf-8") as f:
            text = f.read().splitlines()
        for line in unreached:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
