"""Record the reference fingerprints of the default seed.

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

Runs each workload's operations for the default seed once, refuses to record
if any report fails its checks, and writes perfbench/reference/<workload>.json.
Re-record only when a change to latflow's reports is intended, and say so in
the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import child
import workloads
from checks import Checker, fingerprint


def record(workload: str) -> None:
    import latflow.cli as cli
    from latflow.scalars import mode_from_spec, named_scalar

    checker = Checker(lambda text, mode: named_scalar(text, mode_from_spec(mode)))
    entries = []
    scratch = os.path.join(os.path.dirname(child.HERE), ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for i, op in enumerate(workloads.operations(workload, child.DEFAULT_SEED)):
            _, rc, doc = child.run_op(cli, op, os.path.join(tmp, f"op{i}"))
            problems = checker.check_report(op, rc, doc)
            if problems:
                raise SystemExit(f"{workload} op {i} {op}: {problems}")
            entries.append({"argv": op, "fingerprint": fingerprint(rc, doc)})
    os.makedirs(child.REFERENCE_DIR, exist_ok=True)
    path = os.path.join(child.REFERENCE_DIR, workload + ".json")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in entries) + "\n]\n")
    print(f"wrote {path} ({len(entries)} operations)")


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        record(name)
