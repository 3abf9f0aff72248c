"""Command-line front end: classification, orbit, density, equidistribution
and Dirichlet-improvability runs with reproducible configs and report files.

Each subcommand's runner returns its samples, summary and flags; ``run``
adds the fully-resolved config, so every report is self-describing.  JSON is
the authoritative format, shaped as REPORT_SCHEMA publishes, and CSV carries
flat plot-ready rows.

The JSON file holds exactly the bytes of ``json.dump(report, f, indent=2,
sort_keys=True)`` and a newline, and the CSV file those of a ``csv.writer``
given ``_fmt`` of every cell.  Sample rows that are nonempty dicts of str,
int, float, bool or None values go through the C JSON encoder, ``_CHUNK``
rows at a time, re-bracketed to the indent-2 layout; a report with any other
row (an ``orbit`` row's ``min_vector`` list, say) takes ``json.dump`` whole.
CSV cells are formatted a column of a chunk at a time, and a chunk whose
columns are each all float, all int or all bool, none of whose cells a
``csv.writer`` quotes, is written with one ``%``-template per row.

Exit codes: 0 success, 2 usage, parse or invalid-input errors, 3 budget
errors, 4 precision failures.

Built-in named constants accepted wherever a number is expected:
sqrt2, sqrt3, golden, liouville:k (the partial sum of 10^-j! up to j = k).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

from . import diophantine as dio
from . import experiments as exp
from .errors import InvalidInputError, LatflowError, ParseError
from .flow import FlowTime, LineSegmentSpec
from .lattice import ENUMERATION_BUDGET, enumeration_budget
from .scalars import mode_from_spec, named_scalar

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "https://latflow.invalid/report.schema.json",
    "title": "latflow experiment report",
    "type": "object",
    "required": ["schema_version", "config", "summary", "samples", "flags"],
    "properties": {
        "schema_version": {"const": 1},
        "config": {
            "type": "object",
            "required": ["subcommand", "mode", "seed"],
        },
        "summary": {"type": "object"},
        "samples": {"type": "array", "items": {"type": "object"}},
        "flags": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


@contextmanager
def _unlimited_int_text():
    """Lift the interpreter's limit on int -> str digits inside the block,
    where results become text (a Q^2 certificate of a Liouville pair has
    thousands of digits); the caller's limit returns on exit.  Inputs are
    parsed outside such blocks, under the caller's limit."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


_CHUNK = 64  # sample rows per write
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
# With this item separator the C encoder puts each key of a row on its own
# line at the depth of a row's keys under indent=2; only the braces of a row
# need re-indenting.  Strings are escaped, so "},\n      {" can only join two
# rows of a chunk.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_ROW_JOIN = ("},\n      {", "\n    },\n    {\n      ")


def _write_json(report: dict, f) -> None:
    """``json.dump(report, f, indent=2, sort_keys=True)``, byte for byte."""
    rows = report["samples"]
    if not (rows and set(map(type, rows)) == {dict} and all(rows)
            and {type(v) for row in rows for v in row.values()} <= _SCALAR_TYPES):
        json.dump(report, f, indent=2, sort_keys=True)
        return
    # a top-level key is the only line that starts with two spaces and a quote
    head, _, tail = json.dumps(dict(report, samples=[]), indent=2,
                               sort_keys=True).partition('\n  "samples": []')
    f.write(head + '\n  "samples": [')
    sep = "\n"
    for i in range(0, len(rows), _CHUNK):
        body = _ROW_ENCODER.encode(rows[i:i + _CHUNK])[2:-2].replace(*_ROW_JOIN)
        f.write(f"{sep}    {{\n      {body}\n    }}")
        sep = ",\n"
    f.write("\n  ]" + tail)


def _csv_cells(values):
    """``_fmt`` of each value of one column, one builtin call per cell."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return map(format, values, [".17g"] * len(values))
    if kinds == {bool}:
        return map(("false", "true").__getitem__, values)
    if kinds <= {int, str}:
        return map(str, values)
    return map(_fmt, values)


# the %-conversion giving a column's ``_fmt`` cells, by the column's one type;
# a bool column's cells are mapped first
_TEMPLATE_SPECS = {float: "%.17g", int: "%d", bool: "%s"}


def _write_csv(rows: list, columns: list, f) -> None:
    """A header and one line of ``_fmt`` cells per row, ``""`` for a missing
    key.  A chunk whose every column holds values of one type, float, int
    or bool, is written with one ``%``-template per row; any other chunk
    goes through the csv.writer."""
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(columns)
    for i in range(0, len(rows), _CHUNK):
        chunk = rows[i:i + _CHUNK]
        values = [[row.get(c, "") for row in chunk] for c in columns]
        specs = []
        for column in values:
            kinds = set(map(type, column))
            spec = _TEMPLATE_SPECS.get(kinds.pop()) if len(kinds) == 1 else None
            if spec is None:
                break
            specs.append(spec)
        if values and len(specs) == len(values):
            template = ",".join(specs) + "\n"
            cells = [_csv_cells(v) if spec == "%s" else v for v, spec in zip(values, specs)]
            f.write("".join(map(template.__mod__, zip(*cells))))
        else:
            cells = [_csv_cells(column) for column in values]
            writer.writerows(zip(*cells) if cells else [()] * len(chunk))


def _parse_grid(text: str) -> list[float]:
    """Either 'start:stop:step' (inclusive) or a comma list."""
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if not (math.isfinite(start) and math.isfinite(stop) and step > 0):
                raise ValueError
            out = []
            k = 0
            while start + k * step <= stop + 1e-12:
                out.append(start + k * step)
                k += 1
            if not out:
                raise ValueError
            return out
        return _parse_list(text)
    except ValueError as e:
        raise ParseError(f"cannot parse grid {text!r}") from e


def _parse_list(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise ParseError(f"cannot parse list {text!r}") from e
    if not vals:
        raise ParseError(f"empty list {text!r}")
    return vals


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with '-' and a digit or '.' as a value, so
    that ``-1/2`` and ``--interval -1/2,1/3`` need no '='; subparsers inherit
    the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-[\d.]")


@cache
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="latflow", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("a", help="slope parameter (number or named constant)")
        sp.add_argument("b", help="offset parameter (number or named constant)")
        sp.add_argument("--mode", default="f64",
                        help="scalar mode: f64 | bigfloat[:bits] | rational")
        sp.add_argument("--seed", type=int, default=1)
        sp.add_argument("--out", default=None, help="output path stem")
        sp.add_argument("--format", default="both", choices=["json", "csv", "both"])
        sp.add_argument("--budget", type=_positive_int, default=None,
                        help="work cap for searches and enumerations "
                             "(a positive integer)")
        sp.add_argument("--interval", default="0,1", help="segment interval 's1,s2'")

    sp = sub.add_parser("classify", help="Diophantine class searches for (a, b)")
    common(sp)
    sp.add_argument("--C", default="1", help="fixed-quality constant")
    sp.add_argument("--eps", default="1", help="exponent improvement")
    sp.add_argument("--q-max", type=int, default=10000)
    sp.add_argument("--C-list", default="1,1e-3,1e-6",
                    help="descending constants for the every-C profile")

    sp = sub.add_parser("orbit", help="per-t segment minima and escape fractions")
    common(sp)
    sp.add_argument("--t-grid", default="0:8:1", help="flow times 'a:b:step' or list")
    sp.add_argument("--R-cap", type=float, default=6.0)
    sp.add_argument("--delta", type=float, default=0.2)
    sp.add_argument("--N", type=int, default=50)

    sp = sub.add_parser("density", help="return-time density I_R on [0, T]")
    common(sp)
    sp.add_argument("--R", default="2")
    sp.add_argument("--T", default=str(math.log(10 ** 6)))
    sp.add_argument("--q-max", type=int, default=10 ** 6)
    sp.add_argument("--dt", type=float, default=0.01)

    sp = sub.add_parser("equidist", help="translate sampling and stability proxies")
    common(sp)
    sp.add_argument("--t-list", default="5,7")
    sp.add_argument("--N", type=int, default=1000)
    sp.add_argument("--radii", default="1.5")
    sp.add_argument("--delta", type=float, default=0.05)

    sp = sub.add_parser("dirichlet", help="improvability probe with direct cross-check")
    common(sp)
    sp.add_argument("--s", default="0.3", help="point on the segment")
    sp.add_argument("--delta", type=float, default=0.9)
    sp.add_argument("--t-max", type=float, default=6.0)
    sp.add_argument("--dt", type=float, default=0.05)
    sp.add_argument("--direct-step", type=float, default=0.5,
                    help="t spacing of the direct Dirichlet cross-checks")
    return p


def _line_from(args, mode) -> LineSegmentSpec:
    ends = args.interval.split(",")
    if len(ends) != 2 or not all(e.strip() for e in ends):
        raise ParseError(f"cannot parse interval {args.interval!r}")
    return LineSegmentSpec.from_strings(args.a, args.b, *ends, mode)


def _witness_row(tag: str, w: tuple) -> dict:
    """The ``classify`` row of a witness (p1, p2, q, residual1, residual2,
    bound) of the class ``tag``."""
    p1, p2, q, r1, r2, bound = w
    return {
        "class": tag,
        "q": q,
        "p1": p1,
        "p2": p2,
        "residual1": str(r1),
        "residual2": str(r2),
        "residual1_float": float(r1),
        "residual2_float": float(r2),
        "bound": float(bound),
    }


def _run_classify(args, mode) -> tuple[list, dict, list]:
    a = named_scalar(args.a, mode)
    b = named_scalar(args.b, mode)
    q_max = args.q_max
    C = named_scalar(args.C, mode)
    eps = named_scalar(args.eps, mode)
    c_list = [named_scalar(c, mode) for c in args.C_list.split(",")]

    cert = dio.rational_certificate(a, b, mode)
    w2 = dio.w2_witness_search(a, b, C, q_max)
    w2e = dio.w2eps_witness_search(a, b, eps, q_max)
    profile = dio.w2inf_profile(a, b, c_list, q_max)

    # results become text from here on
    with _unlimited_int_text():
        # the rows are only written, so a run without --out builds none
        samples = [] if args.out is None else (
            [_witness_row(f"W2(C={float(C)!r})", w) for w in w2]
            + [_witness_row(f"W2o(eps={float(eps)!r})", w) for w in w2e]
            + [_witness_row(f"W2inf(C={float(e.C)!r})", e.witness)
               for e in profile if e.witness])
        profile_rows = [{
            "C": float(entry.C),
            "min_witness_q": entry.witness[2] if entry.witness else None,
            "found": entry.witness is not None,
        } for entry in profile]

        caveat = (f"bounded search up to q_max = {q_max}; witness presence is "
                  "evidence, absence is not an asymptotic non-membership claim")
        summary = {
            "rational_certificate": list(cert) if cert else None,
            "w2_witnesses": len(w2),
            "w2eps_witnesses": len(w2e),
            "w2inf_profile": profile_rows,
            "search_caveat": caveat,
        }
        flags = []
        if cert is not None:
            flags.append("rational-certificate")
        print(f"classify a={args.a} b={args.b} mode={mode.spec()} q_max={q_max}")
        if cert:
            print(f"  Q^2 certificate (p1, p2, q) = {cert}")
        else:
            print("  no exact rational certificate (inputs not exact rationals)")
        print(f"  W2(C={args.C}): {len(w2)} witnesses")
        print(f"  W2eps(eps={args.eps}): {len(w2e)} witnesses")
        for row in profile_rows:
            status = f"minimal q = {row['min_witness_q']}" if row["found"] else "none found"
            print(f"  W2inf C={row['C']:g}: {status}")
        print(f"  [{caveat}]")
        return samples, summary, flags


def _run_orbit(args, mode) -> tuple[list, dict, list]:
    line = _line_from(args, mode)
    ts = _parse_grid(args.t_grid)
    samples = []
    for t in ts:
        ft = FlowTime.of(t)
        sm = exp.segment_minimum(line, ft, args.R_cap)
        vector, value = sm or (None, None)
        frac = exp.escape_mass_fraction(line, ft, args.delta, args.N, args.seed)
        samples.append({
            "t": t,
            "min_value": float(value) if sm else None,
            "min_vector": list(vector) if sm else None,
            "below_cap": sm is not None,
            "escape_fraction": frac,
        })
        val = f"{float(value):.6g}" if sm else f"none <= {args.R_cap:g}"
        print(f"  t={t:6.3f}  min={val:>14}  escape(delta={args.delta:g})={frac:.3f}")
    summary = {
        "R_cap": args.R_cap,
        "delta": args.delta,
        "min_values": [s["min_value"] for s in samples],
        "escape_fractions": [s["escape_fraction"] for s in samples],
    }
    return samples, summary, []


def _run_density(args, mode) -> tuple[list, dict, list]:
    line = _line_from(args, mode)
    R = named_scalar(args.R, mode)
    T = float(named_scalar(args.T, mode))
    profile = dio.ir_density(line, R, T, args.q_max, dt=args.dt)
    samples = profile.intervals
    summary = {
        "R": float(R), "R1": profile.R1, "T": T, "q_max": args.q_max,
        "union_measure": profile.union_measure,
        "union_density": profile.union_measure / T,
        "direct_measure": profile.direct_measure,
        "direct_density": profile.direct_measure / T,
        "n_nonempty_Eq": len(samples),
    }
    flags = []
    if profile.coverage_warning:
        flags.append("coverage-warning")
    if any(row["rational_hit"] for row in samples):
        flags.append("rational-hit")
    print(f"density R={summary['R']:g} T={T:.4f} q_max={args.q_max}: "
          f"union={summary['union_density']:.4f} direct={summary['direct_density']:.4f} "
          f"flags={flags}")
    return samples, summary, flags


def _run_equidist(args, mode) -> tuple[list, dict, list]:
    exp.check_delta(args.delta)
    line = _line_from(args, mode)
    ts = _parse_list(args.t_list)
    radii = tuple(_parse_list(args.radii))
    # report keys and CSV columns name each value by its :g label
    for option, values in (("--t-list", ts), ("--radii", radii)):
        labels = [f"{v:g}" for v in values]
        if len(set(labels)) < len(labels):
            raise InvalidInputError(f"{option} values must differ in 6 significant "
                                    f"digits: {', '.join(labels)}")
    per_t = {}
    samples = []
    for t in ts:
        per_t[t] = exp.sample_translate(line, FlowTime.of(t), args.N, args.seed, radii)
        samples.extend(per_t[t])
    ks = {}
    for t1, t2 in zip(ts, ts[1:]):
        ks[f"{t1:g}->{t2:g}"] = exp.ks_distance(
            [row["lambda1"] for row in per_t[t1]], [row["lambda1"] for row in per_t[t2]])
    mean_counts = {}
    flags = []
    for t in ts:
        for r in radii:
            key, count = f"t={t:g},r={r:g}", exp.count_key(r)
            mean_counts[key] = float(sum(row[count] for row in per_t[t]) / args.N)
            target = (2 * r) ** 3
            if abs(mean_counts[key] - target) > 0.15 * target:
                flags.append(f"siegel-band-miss:{key}")
    escape = {f"t={t:g}": sum(1 for row in per_t[t] if row["lambda1"] < args.delta) / args.N
              for t in ts}
    summary = {
        "ks_distance": ks,
        "mean_counts": mean_counts,
        "siegel_targets": {f"r={r:g}": (2 * r) ** 3 for r in radii},
        "siegel_note": "volume targets are an external validation outside the "
                       "dynamical statements; stability of the lambda1 law is "
                       "the equidistribution proxy",
        "escape_fractions": escape,
        "low_escape_candidate_times": [t for t in ts if escape[f"t={t:g}"] <= 0.02],
    }
    print(f"equidist: ks={ks} escape={escape}")
    for k, v in mean_counts.items():
        print(f"  mean count {k}: {v:.3f}")
    return samples, summary, flags


def _run_dirichlet(args, mode) -> tuple[list, dict, list]:
    if not 0 < args.direct_step < math.inf:
        raise InvalidInputError("--direct-step must be finite and positive")
    line = _line_from(args, mode)
    s = named_scalar(args.s, mode)

    # exact correspondence: the solvability box at T = e^t delta^{1/3}
    # rescales onto the sup-ball of radius delta^{1/3} under g_t
    scale = args.delta ** (1.0 / 3.0)
    times = exp.probe_times(args.delta, args.t_max, args.dt)
    check_ts = [t for t in times
                if abs(t / args.direct_step - round(t / args.direct_step)) < 1e-9
                and math.exp(t) * scale >= 1.0]
    horizons = [math.exp(t) * scale for t in check_ts]
    # the direct check decides the stored point (s, a s + b) exactly, and
    # runs ahead of the probe, so that a budget error ends the run before
    # the probe's work
    solvable = dio.dirichlet_direct(s, Fraction(*line.point(s)[1]), args.delta, horizons)
    # lambda1 only where the report reads it, each time at most once: forward
    # to the first time inside K, back from t_max to the last, and the checks
    probe = cache(lambda t: exp.trajectory_probe(line, s, t))
    first_entry = next((t for t in times if probe(t) >= scale), None)
    last_exit = None if first_entry is None else next(
        t for t in reversed(times) if probe(t) >= scale)
    agree = 0
    considered = 0
    samples = []
    for t, T, direct in zip(check_ts, horizons, solvable):
        lam = probe(t)
        dyn_out = lam < scale
        marginal = abs(lam - scale) <= 0.02
        ok = dyn_out == direct
        if not marginal:
            considered += 1
            agree += ok
        samples.append({
            "t": t, "T": T, "lambda1": lam,
            "dynamical_outside_K": dyn_out,
            "direct_solvable": direct,
            "marginal": marginal, "agree": ok,
        })
    tail_outside = last_exit is None or last_exit < times[-1] - 1e-9
    verdict_text = ("candidate improvable at this horizon (tail outside K)"
                    if tail_outside else
                    "not improvable at this horizon (orbit re-enters K)")
    summary = {
        "delta": args.delta,
        "threshold": scale,
        "first_entry": first_entry,
        "last_exit": last_exit,
        "agreement": (agree / considered) if considered else None,
        "n_checked": considered,
        "verdict": verdict_text,
        "semi_decision_note": "horizon-bounded scan; no asymptotic claim",
    }
    print(f"dirichlet s={args.s} delta={args.delta:g}: {verdict_text}; "
          f"agreement={summary['agreement']}")
    return samples, summary, []


_RUNNERS = {
    "classify": _run_classify,
    "orbit": _run_orbit,
    "density": _run_density,
    "equidist": _run_equidist,
    "dirichlet": _run_dirichlet,
}

_CSV_COLUMNS = {
    "classify": ["class", "q", "p1", "p2", "residual1", "residual2",
                 "residual1_float", "residual2_float", "bound"],
    "orbit": ["t", "min_value", "min_vector", "below_cap", "escape_fraction"],
    "density": ["q", "lo", "hi", "rational_hit"],
    "equidist": None,  # dynamic: depends on radii
    "dirichlet": ["t", "T", "lambda1", "dynamical_outside_K",
                  "direct_solvable", "marginal", "agree"],
}


def _write_outputs(report: dict, args):
    if args.out is None:
        return
    fmt = args.format
    if fmt in ("json", "both"):
        with open(args.out + ".json", "w", encoding="utf-8", newline="\n") as f:
            _write_json(report, f)
            f.write("\n")
    if fmt in ("csv", "both"):
        columns = _CSV_COLUMNS.get(args.subcommand)
        rows = report["samples"]
        if columns is None:
            columns = sorted({k for row in rows for k in row}) if rows else []
        with open(args.out + ".csv", "w", encoding="utf-8", newline="") as f:
            _write_csv(rows, columns, f)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    mode = mode_from_spec(args.mode)
    config = {k.replace("_", "-"): v for k, v in sorted(vars(args).items())}
    if args.out is not None:
        # before the run, so that a bad --out costs no computation
        directory, stem = os.path.split(args.out)
        if not stem:
            raise InvalidInputError(f"--out {args.out!r} names a directory, not a file stem")
        try:
            os.makedirs(directory or ".", exist_ok=True)
        except OSError as e:
            raise InvalidInputError(f"cannot create the directory of --out: {e}") from e
    with enumeration_budget(args.budget or ENUMERATION_BUDGET):
        samples, summary, flags = _RUNNERS[args.subcommand](args, mode)
    with _unlimited_int_text():
        _write_outputs({"schema_version": 1, "config": config, "samples": samples,
                        "summary": summary, "flags": flags}, args)
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except SystemExit as e:
        return int(e.code or 0) if not isinstance(e.code, str) else 2
    except LatflowError as e:
        print(f"latflow: {e.label}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
