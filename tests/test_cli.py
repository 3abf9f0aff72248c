import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latflow import cli
from latflow import diophantine as dio
from latflow import experiments as exp
from latflow import flow
from latflow import lattice
from latflow.errors import BudgetError, InvalidInputError
from latflow.scalars import (F64, RATIONAL, ScalarMode, bigfloat, mode_from_spec,
                             named_scalar)

from util import csv_per_cell, exact_scaled_rows, from_int, integer_scaled, phi


def run_cli(args):
    return cli.main(args)


def read_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def test_classify_rational_certificate(tmp_path):
    out = tmp_path / "r"
    code = run_cli(["classify", "1/2", "1/3", "--mode", "rational",
                    "--q-max", "100", "--out", str(out)])
    assert code == 0
    doc = read_json(str(out) + ".json")
    assert doc["summary"]["rational_certificate"] == [2, 3, 6]
    assert "rational-certificate" in doc["flags"]
    # config echo is embedded verbatim
    assert doc["config"]["subcommand"] == "classify"
    assert doc["config"]["q-max"] == 100


@pytest.mark.parametrize("mode, cert", [("bigfloat:256", None), ("rational", [2, 3, 6])])
def test_rational_certificate_follows_the_mode(mode, cert, tmp_path):
    # a bigfloat scalar is a Fraction too, but one rounded from its input
    out = tmp_path / "r"
    assert run_cli(["classify", "1/2", "1/3", "--mode", mode, "--q-max", "100",
                    "--out", str(out)]) == 0
    doc = read_json(str(out) + ".json")
    assert doc["summary"]["rational_certificate"] == cert
    assert ("rational-certificate" in doc["flags"]) == (cert is not None)


def test_classify_origin(tmp_path):
    out = tmp_path / "o"
    code = run_cli(["classify", "0", "0", "--mode", "rational", "--q-max", "10",
                    "--out", str(out)])
    assert code == 0
    doc = read_json(str(out) + ".json")
    assert doc["summary"]["rational_certificate"] == [0, 0, 1]
    # every q is a witness at C = 1
    assert doc["summary"]["w2_witnesses"] == 10


def test_classify_liouville_builtin(tmp_path):
    out = tmp_path / "l"
    code = run_cli(["classify", "liouville:4", "liouville:4", "--mode", "rational",
                    "--q-max", "1000000", "--C-list", "1,1e-3,1e-6",
                    "--out", str(out)])
    assert code == 0
    doc = read_json(str(out) + ".json")
    rows = doc["summary"]["w2inf_profile"]
    assert [r["found"] for r in rows] == [True, True, True]
    assert [r["min_witness_q"] for r in rows] == [1, 10 ** 6, 10 ** 6]


def test_classify_parse_error_exit_2():
    assert run_cli(["classify", "nonsense", "0"]) == 2
    assert run_cli(["classify", "sqrt2", "0", "--mode", "rational"]) == 2


def test_classify_long_certificate_exit_0(tmp_path, capsys):
    # q = 3 10^5040, past the interpreter's default limit of 4300 digits for
    # int -> str; the certificate is printed and written in full
    limit = sys.get_int_max_str_digits()
    out = tmp_path / "l7"
    assert run_cli(["classify", "liouville:7", "1/3", "--mode", "rational",
                    "--q-max", "10", "--out", str(out)]) == 0
    assert sys.get_int_max_str_digits() == limit
    a, b = (named_scalar(x, RATIONAL) for x in ("liouville:7", "1/3"))
    cert = dio.rational_certificate(a, b, RATIONAL)
    assert cert[2] == 3 * 10 ** 5040
    text = Path(str(out) + ".json").read_text(encoding="utf-8")
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert doc["summary"]["rational_certificate"] == list(cert)
    assert "Q^2 certificate" in capsys.readouterr().out


def test_input_past_int_digit_limit_exit_2(capsys):
    # inputs are parsed under the interpreter's limit, as before
    assert run_cli(["classify", "1" * 5001, "1/3", "--mode", "rational",
                    "--q-max", "10"]) == 2
    assert "cannot parse number" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["dirichlet", "sqrt2", "sqrt3", "--s", "1e400", "--t-max", "1"],
    ["classify", "1e400", "1", "--q-max", "10"],
    ["density", "1e400", "1", "--q-max", "10"],
    ["orbit", "sqrt2", "sqrt3", "--interval", "0,1e400", "--t-grid", "1", "--N", "1"],
    ["equidist", "1", "1", "--interval", "0,1e400", "--t-list", "1", "--N", "1"],
])
def test_f64_input_past_the_f64_range_exit_4(args, capsys):
    # 1e400 has no f64; the error names it and the modes that hold it
    assert run_cli(args) == 4
    assert capsys.readouterr().err == ("latflow: precision failure: 1e+400 is past the "
                                       "f64 range; bigfloat and rational mode hold it\n")


def test_cli_restores_int_digit_limit_on_error(monkeypatch):
    def failing(report, args):
        raise InvalidInputError("cannot write")

    monkeypatch.setattr(cli, "_write_outputs", failing)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert run_cli(["classify", "1/2", "1/3", "--mode", "rational",
                        "--q-max", "10"]) == 2
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_usage_error_exit_2(capsys):
    assert run_cli(["no-such-command"]) == 2
    capsys.readouterr()


def test_equidist_n_zero_exit_2():
    assert run_cli(["equidist", "sqrt2", "sqrt3", "--t-list", "1", "--N", "0"]) == 2


def test_orbit_rational_minima(tmp_path):
    out = tmp_path / "orb"
    code = run_cli(["orbit", "1/2", "1/3", "--mode", "rational",
                    "--t-grid", "0:8:1", "--N", "20", "--out", str(out)])
    assert code == 0
    doc = read_json(str(out) + ".json")
    assert doc["samples"][0]["min_value"] == 1.0  # t = 0: integer coordinates
    for row in doc["samples"][1:]:  # from t = 1 on, the witness dominates
        assert row["min_value"] == pytest.approx(6 * math.exp(-row["t"]), abs=1e-9)
    # CSV written with fixed documented columns
    with open(str(out) + ".csv", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["t", "min_value", "min_vector", "below_cap", "escape_fraction"]
    assert len(rows) == 1 + 9


def test_bigfloat_orbit_runs_one_ziv_loop_per_power(tmp_path, monkeypatch):
    # sqrt2 and sqrt3 are one Ziv loop each; then segment_minimum asks
    # once for e^{2t} and e^{-t} of each of the four flow times, which are
    # two loops per flow time
    calls = []
    rounded = ScalarMode.rounded
    monkeypatch.setattr(ScalarMode, "rounded",
                        lambda mode, value: calls.append(mode) or rounded(mode, value))
    out = tmp_path / "orb"
    assert run_cli(["orbit", "sqrt2", "sqrt3", "--mode", "bigfloat:64",
                    "--t-grid", "0:3:1", "--N", "3", "--R-cap", "8", "--out", str(out)]) == 0
    doc = read_json(str(out) + ".json")
    assert all(row["below_cap"] for row in doc["samples"])
    assert len(calls) == 2 + 2 * 4
    assert set(calls) == {bigfloat(64)}


def test_orbit_single_point_grid(tmp_path):
    out = tmp_path / "one"
    code = run_cli(["orbit", "sqrt2", "sqrt3", "--t-grid", "2",
                    "--N", "5", "--R-cap", "8", "--out", str(out)])
    assert code == 0
    doc = read_json(str(out) + ".json")
    assert len(doc["samples"]) == 1


def test_density_rational_flags(tmp_path):
    out = tmp_path / "den"
    code = run_cli(["density", "1/2", "1/3", "--mode", "rational",
                    "--R", "2", "--T", "20", "--q-max", "3000", "--out", str(out)])
    assert code == 0
    doc = read_json(str(out) + ".json")
    assert "rational-hit" in doc["flags"]
    assert doc["summary"]["union_density"] > 0.9
    assert doc["summary"]["direct_density"] > 0.9


@pytest.mark.parametrize("flag", ["--dt=0", "--dt=-0.5", "--q-max=0"])
def test_density_invalid_grid_or_q_max_exit_2(flag, capsys):
    assert run_cli(["density", "sqrt2", "sqrt3", "--q-max", "100", flag]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_dirichlet_rational_candidate_improvable(tmp_path):
    out = tmp_path / "dir"
    code = run_cli(["dirichlet", "1/2", "1/3", "--mode", "rational",
                    "--s", "1/3", "--delta", "0.5", "--t-max", "5",
                    "--out", str(out)])
    assert code == 0
    doc = read_json(str(out) + ".json")
    assert doc["summary"]["verdict"].startswith("candidate improvable")


@pytest.mark.parametrize("args, key, value", [
    (["classify", "-1/2", "1/3", "--mode", "rational", "--q-max", "10"], "a", "-1/2"),
    (["orbit", "1/2", "1/3", "--mode", "rational", "--t-grid", "3", "--N", "5",
      "--interval", "-1/2,1/3"], "interval", "-1/2,1/3"),
    (["dirichlet", "1/2", "1/3", "--mode", "rational", "--t-max", "1",
      "--s", "-1/3"], "s", "-1/3"),
])
def test_negative_values_need_no_equals_sign(args, key, value, tmp_path):
    out = tmp_path / "neg"
    assert run_cli(args + ["--out", str(out)]) == 0
    doc = read_json(str(out) + ".json")
    assert doc["config"][key] == value
    if args[0] == "classify":
        assert doc["summary"]["rational_certificate"] == [2, -3, 6]


@pytest.mark.parametrize("args", [
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "1", "--interval", "0,1,2"],
    ["density", "sqrt2", "sqrt3", "--q-max", "100", "--interval", "0,1,junk"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "1", "--interval", "0"],
])
def test_interval_needs_exactly_two_values_exit_2(args, capsys):
    assert run_cli(args) == 2
    assert "cannot parse interval" in capsys.readouterr().err


def test_unknown_short_option_still_exit_2(capsys):
    assert run_cli(["classify", "1/2", "1/3", "-x"]) == 2
    assert "unrecognized arguments: -x" in capsys.readouterr().err


def test_parser_built_once_keeps_no_values_between_runs(tmp_path):
    # in-process callers (the benchmark's child, report_diff) share one parser
    args = ["orbit", "1/2", "1/3", "--mode", "rational", "--t-grid", "1"]
    assert run_cli(args + ["--N", "3", "--seed", "5", "--out", str(tmp_path / "a")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "b")]) == 0
    first, second = (read_json(str(tmp_path / x) + ".json")["config"] for x in "ab")
    assert (first["N"], first["seed"]) == (3, 5)
    assert (second["N"], second["seed"]) == (50, 1)
    assert cli._build_parser() is cli._build_parser()


def test_budget_error_exit_3():
    # the segment-minimum enumeration visits 10 nodes at t = 0
    code = run_cli(["orbit", "liouville:4", "liouville:4", "--mode", "rational",
                    "--t-grid", "0", "--R-cap", "2", "--N", "1",
                    "--budget", "5"])
    assert code == 3


@pytest.mark.parametrize("args", [
    ["equidist", "sqrt2", "sqrt3", "--t-list", "5", "--N", "3"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "3", "--N", "5", "--delta", "0.9"],
    ["classify", "sqrt2", "sqrt3", "--q-max", "100000"],
    ["density", "sqrt2", "sqrt3", "--q-max", "10000"],
    ["dirichlet", "sqrt2", "sqrt3", "--t-max", "1"],
])
def test_budget_reaches_every_subcommand(args, capsys):
    # each translate's shortest-vector search, each escape search within
    # delta = 0.9 (at delta = 0.2 the t = 3 translates charge no leaf), each
    # dyadic block of a witness or return-window search and each direct
    # Dirichlet horizon that is reduced visits more than one node.  A block,
    # horizon or escalated escape translate that ``box_has_point`` decides
    # from its start charges no leaf, so a run that exited 3 may now finish;
    # the first block and the first horizon are reduced cold, and here they
    # still exceed the budget
    assert run_cli(args + ["--budget", "1"]) == 3
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["-176", "-190"])
def test_counts_of_far_negative_times_exit_3(t, capsys):
    # e^{2t} shrinks the first basis row so far that the line x1 = x2 = 0
    # of the count holds more leaves than the budget: at t = -176 the walk
    # charges them, and at t = -190 its squared radius is past the f64 range
    assert run_cli(["equidist", "sqrt2", "sqrt3", "--t-list", t, "--N", "3"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "budget exceeded" in err


def test_budget_does_not_leak_between_runs(capsys):
    # runs in one interpreter, as the benchmark's child process makes them
    args = ["orbit", "sqrt2", "sqrt3", "--t-grid", "3", "--N", "5", "--delta", "0.9"]
    assert run_cli(args + ["--budget", "1"]) == 3
    assert run_cli(args) == 0


@pytest.mark.parametrize("budget", ["0", "-5", "1.5"])
@pytest.mark.parametrize("subcommand", [
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "0", "--N", "1"],
    ["dirichlet", "sqrt2", "sqrt3", "--t-max", "1"],
])
def test_budget_below_one_is_a_usage_error(subcommand, budget, capsys):
    assert run_cli(subcommand + ["--budget", budget]) == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["", ",", " , "])
def test_orbit_empty_t_grid_exit_2(grid, capsys):
    assert run_cli(["orbit", "sqrt2", "sqrt3", "--t-grid", grid, "--N", "1"]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "0", "--N", "1", "--R-cap", "inf"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "0", "--N", "1", "--R-cap", "nan"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "0:inf:1", "--N", "1"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid=-inf:0:1", "--N", "1"],
    ["dirichlet", "sqrt2", "sqrt3", "--t-max=-1"],
    ["dirichlet", "sqrt2", "sqrt3", "--t-max", "inf"],
    ["dirichlet", "sqrt2", "sqrt3", "--t-max", "nan"],
    ["dirichlet", "sqrt2", "sqrt3", "--direct-step", "0"],
    ["dirichlet", "sqrt2", "sqrt3", "--direct-step", "nan"],
])
def test_non_finite_or_negative_horizon_exit_2(args):
    assert run_cli(args) == 2


def test_out_into_missing_directory(tmp_path):
    out = tmp_path / "missing" / "x"
    assert run_cli(["orbit", "1/2", "1/3", "--mode", "rational", "--t-grid", "0",
                    "--N", "1", "--out", str(out)]) == 0
    assert read_json(str(out) + ".json")["samples"][0]["min_value"] == 1.0


def test_out_directory_not_creatable_exit_2(tmp_path, monkeypatch, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")

    def runner(*args):
        raise AssertionError("the run started before --out was checked")

    monkeypatch.setitem(cli._RUNNERS, "orbit", runner)
    assert run_cli(["orbit", "1/2", "1/3", "--out", str(blocker / "x")]) == 2
    assert "--out" in capsys.readouterr().err


def test_out_directory_without_stem_exit_2(tmp_path, capsys):
    out = tmp_path / "reports"
    assert run_cli(["orbit", "1/2", "1/3", "--t-grid", "0", "--N", "1",
                    "--out", f"{out}{os.sep}"]) == 2
    assert "file stem" in capsys.readouterr().err
    assert not out.exists()


def test_dirichlet_no_horizon_cap():
    # the direct check at t = 12 reaches T = e^12 0.9^(1/3) ~ 1.6e5
    assert run_cli(["dirichlet", "sqrt2", "sqrt3", "--t-max", "12"]) == 0


def test_dirichlet_bigfloat_direct_check_at_full_precision(tmp_path):
    # at s = 0.555259 a 53-bit x2 = a s + b flips the t = 12 verdict
    out = tmp_path / "dir"
    assert run_cli(["dirichlet", "sqrt2", "sqrt3", "--mode", "bigfloat:256",
                    "--s", "0.555259", "--delta", "0.6", "--t-max", "12",
                    "--out", str(out), "--format", "json"]) == 0
    mode = bigfloat(256)
    a, b, s = (named_scalar(x, mode) for x in ("sqrt2", "sqrt3", "0.555259"))
    a, b, s = (Fraction(x) for x in (a, b, s))
    x2 = mode.from_fraction(a * s + b)
    samples = read_json(str(out) + ".json")["samples"]
    want = dio.dirichlet_direct(mode.from_fraction(s), x2, 0.6, [r["T"] for r in samples])
    assert [r["direct_solvable"] for r in samples] == want


def test_dirichlet_direct_check_decides_the_stored_point(tmp_path):
    # in f64 the direct check takes x2 = a s + b exactly, not fl(fl(a s) + b);
    # at this point the two differ in the t = 18 verdict
    out = tmp_path / "dir"
    assert run_cli(["dirichlet", "sqrt2", "sqrt3", "--s", "0.45", "--delta", "0.6",
                    "--t-max", "18", "--out", str(out), "--format", "json"]) == 0
    rows = read_json(str(out) + ".json")["samples"]
    a, b, s = (named_scalar(x, F64) for x in ("sqrt2", "sqrt3", "0.45"))
    horizons = [r["T"] for r in rows]
    exact = dio.dirichlet_direct(s, Fraction(a) * Fraction(s) + Fraction(b), 0.6, horizons)
    rounded = dio.dirichlet_direct(s, a * s + b, 0.6, horizons)
    assert [r["direct_solvable"] for r in rows] == exact
    assert rows[-1]["t"] == 18 and rows[-1]["marginal"]
    assert exact[-1] != rounded[-1]


def _assert_scans_match_a_probe_loop(args, out):
    # first entry and last exit are the first and last grid times whose
    # lambda1, from an independent loop over probe_times, is >= delta^(1/3),
    # and each row's lambda1 is that loop's
    assert run_cli(["dirichlet"] + args + ["--out", str(out), "--format", "json"]) == 0
    doc = read_json(str(out) + ".json")
    config = doc["config"]
    mode = mode_from_spec(config["mode"])
    line = flow.LineSegmentSpec.from_strings(config["a"], config["b"], "0", "1", mode)
    s = named_scalar(config["s"], mode)
    times = exp.probe_times(config["delta"], config["t-max"], config["dt"])
    lams = {t: lattice.shortest_vector(
        lattice.translate_basis(line, s, flow.FlowTime.of(t))).lambda1 for t in times}
    threshold = config["delta"] ** (1.0 / 3.0)
    inside = [t for t in times if lams[t] >= threshold]
    summary = doc["summary"]
    assert summary["threshold"] == threshold
    assert summary["first_entry"] == (inside[0] if inside else None)
    assert summary["last_exit"] == (inside[-1] if inside else None)
    assert [r["lambda1"] for r in doc["samples"]] == [lams[r["t"]] for r in doc["samples"]]


@pytest.mark.parametrize("args", [
    ["sqrt2", "sqrt3", "--s", "0.3", "--delta", "0.9", "--t-max", "6"],  # last exit 0
    ["sqrt2", "sqrt3", "--s", "0.45", "--delta", "0.6", "--t-max", "8"],  # last exit 3.1
    # inside K at the horizon
    ["sqrt2", "sqrt3", "--s", "0.62", "--delta", "0.3", "--t-max", "4", "--dt", "0.04"],
    ["1/2", "1/3", "--mode", "rational", "--s", "1/3", "--delta", "0.5", "--t-max", "5"],
])
def test_dirichlet_entry_and_exit_match_a_probe_loop(args, tmp_path):
    _assert_scans_match_a_probe_loop(args, tmp_path / "dir")


_FRACTION_TEXT = st.fractions(-2, 2, max_denominator=60).map(str)


@st.composite
def _dirichlet_args(draw):
    mode = draw(st.sampled_from(["f64", "rational", "bigfloat:64", "bigfloat:256"]))
    scalars = _FRACTION_TEXT if mode == "rational" else st.one_of(
        _FRACTION_TEXT, st.sampled_from(["sqrt2", "sqrt3", "golden"]))
    return [draw(scalars), draw(scalars), "--mode", mode,
            "--s", str(draw(st.fractions(0, 1, max_denominator=1000))),
            "--delta", repr(draw(st.floats(0.001, 0.999))),
            "--t-max", repr(draw(st.floats(0, 8))),
            "--dt", draw(st.sampled_from(["0.01", "0.04", "0.05"]))]


@settings(max_examples=40, deadline=None)
@given(args=_dirichlet_args())
def test_dirichlet_entry_and_exit_match_a_probe_loop_on_random_lines(args, tmp_path_factory):
    _assert_scans_match_a_probe_loop(args, tmp_path_factory.mktemp("dir") / "dir")


# the dirichlet operations of perfbench's seed-1 orbit workload
@pytest.mark.parametrize("args", [
    ["sqrt2", "sqrt3", "--s", "0.3", "--delta", "0.6", "--t-max", "6"],
    ["0.891761610835673", "0.408088505520943", "--s", "0.7540", "--delta", "0.6",
     "--t-max", "7"],
    ["0.673426782930141", "0.769146647157637", "--s", "0.3426", "--delta", "0.306",
     "--t-max", "7"],
    ["0.193773563119533", "0.057135727936953", "--s", "0.9493", "--delta", "0.479",
     "--t-max", "7"],
])
def test_dirichlet_probes_only_the_times_it_reads(args, monkeypatch, tmp_path):
    # each grid time is probed at most once, and only the check times and the
    # two scans (forward to the first entry, back from t_max to the last exit)
    probed = []
    probe = exp.trajectory_probe

    def counting(line, s, t):
        probed.append(t)
        return probe(line, s, t)

    monkeypatch.setattr(exp, "trajectory_probe", counting)
    out = tmp_path / "dir"
    assert run_cli(["dirichlet"] + args + ["--out", str(out), "--format", "json"]) == 0
    doc = read_json(str(out) + ".json")
    config, summary = doc["config"], doc["summary"]
    times = exp.probe_times(config["delta"], config["t-max"], config["dt"])
    forward = times[:times.index(summary["first_entry"]) + 1]
    backward = times[times.index(summary["last_exit"]):]
    checks = [row["t"] for row in doc["samples"]]
    assert len(set(probed)) == len(probed)
    assert set(probed) <= set(forward + backward + checks)


@pytest.mark.parametrize("index, code", [(-1, 3), (61, 0)])
def test_dirichlet_probe_budget_error_only_where_read(index, code, monkeypatch):
    # this orbit is inside K at t_max = 7 and the checks are at multiples of
    # 0.5: a budget error at t_max ends the run as before, and one at
    # t = 3.05 is never met, since no scan or row reads that time
    argv = ["0.193773563119533", "0.057135727936953", "--s", "0.9493", "--delta", "0.479",
            "--t-max", "7"]
    times = exp.probe_times(0.479, 7.0, 0.05)
    probe = exp.trajectory_probe

    def failing(line, s, t):
        if t == times[index]:
            raise BudgetError(f"probe at t = {t:g}")
        return probe(line, s, t)

    monkeypatch.setattr(exp, "trajectory_probe", failing)
    assert run_cli(["dirichlet"] + argv) == code


def test_dirichlet_budget_refused_before_probe(monkeypatch):
    def probe(*args, **kwargs):
        raise AssertionError("the probe ran before the budget was exceeded")

    monkeypatch.setattr(exp, "trajectory_probe", probe)
    assert run_cli(["dirichlet", "sqrt2", "sqrt3", "--t-max", "7", "--delta", "0.9",
                    "--budget", "1"]) == 3


def test_orbit_past_f64_gram_schmidt_range():
    # at t = 200 the f64 Gram-Schmidt lengths of a translate overflow to NaN;
    # the exact lattice fallback takes those bases
    assert run_cli(["orbit", "sqrt2", "sqrt3", "--t-grid", "200", "--N", "5"]) == 0


@pytest.mark.parametrize("args", [
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "400", "--N", "1"],
    ["equidist", "sqrt2", "sqrt3", "--t-list", "400", "--N", "2"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid=-400", "--N", "1"],
    ["equidist", "sqrt2", "sqrt3", "--t-list=-400", "--N", "2"],
])
def test_f64_flow_overflow_exit_4(args):
    # e^{2t} overflows f64 at t = 400; at t = -400 it underflows to zero, which
    # segment_minimum and the exact lattice fallback of equidist refuse
    assert run_cli(args) == 4


def test_cold_exact_reduction_gives_the_warm_report(monkeypatch, tmp_path):
    # every translate needs more than one f64 LLL step: past the cap the
    # f64 pass gives no start, and the cold exact reduction gives the same
    # report as the warm one
    argv = ["equidist", "sqrt2", "sqrt3", "--t-list", "10,11", "--N", "3", "--format", "json"]
    assert run_cli(argv + ["--out", str(tmp_path / "warm")]) == 0
    monkeypatch.setattr(lattice, "LLL_ITERATION_CAP", 1)
    assert run_cli(argv + ["--out", str(tmp_path / "cold")]) == 0
    warm, cold = (read_json(tmp_path / f"{x}.json") for x in ("warm", "cold"))
    assert (warm["samples"], warm["summary"]) == (cold["samples"], cold["summary"])


@pytest.mark.parametrize("radii", ["inf", "1.5,inf", "-inf", "nan"])
def test_equidist_nonfinite_radius_exit_2(radii, capsys):
    assert run_cli(["equidist", "sqrt2", "sqrt3", "--N", "2", f"--radii={radii}"]) == 2
    assert "count radius must be positive and finite" in capsys.readouterr().err


def test_precision_error_exit_4():
    # f64 inputs with q_max beyond the trusted envelope
    code = run_cli(["classify", "0.3", "0.7", "--q-max", str(2 ** 21)])
    assert code == 4


def test_density_interval_past_f64_range_exit_4(capsys):
    # R1 = 2R / (s2 - s1) is about 2e320, past the largest f64
    code = run_cli(["density", "sqrt2", "sqrt3", "--q-max", "100",
                    "--interval", "0,1e-320"])
    assert code == 4
    assert "R1" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["f64", "rational", "bigfloat"])
def test_density_R_below_the_f64_range_exit_4(mode, capsys, tmp_path):
    # an R that rounds to f64 0 has no f64 logarithm for the E_q windows, and
    # an f64 one is refused where it is parsed; a subnormal R still runs
    argv = ["density", "1/2", "1/3", "--mode", mode, "--q-max", "100"]
    assert run_cli(argv + ["--R", "1e-400"]) == 4
    assert capsys.readouterr().err == "latflow: precision failure: " + (
        "1e-400 underflows f64 to 0; bigfloat and rational mode hold it\n" if mode == "f64"
        else "R underflows f64 to 0; the E_q windows take its f64 logarithm\n")
    assert run_cli(argv + ["--R", "1e-320", "--out", str(tmp_path / "sub")]) == 0


@pytest.mark.parametrize("argv", [
    ["density", "1/2", "1/3", "--R", "1e-400", "--q-max", "100"],
    ["classify", "0.5", "0.25", "--C", "1e-400", "--q-max", "10"],
    ["orbit", "sqrt2", "sqrt3", "--interval", "0,1e-400", "--t-grid", "1", "--N", "2"],
    ["dirichlet", "sqrt2", "sqrt3", "--s", "1e-400", "--t-max", "1"],
], ids=["density", "classify", "orbit", "dirichlet"])
def test_f64_input_that_rounds_to_0_exit_4(argv, capsys):
    # a positive input that f64 rounds to 0 is refused where it is parsed,
    # not run as 0 nor refused as if it were 0
    assert run_cli(argv) == 4
    assert capsys.readouterr().err == (
        "latflow: precision failure: 1e-400 underflows f64 to 0; "
        "bigfloat and rational mode hold it\n")


@pytest.mark.parametrize("mode", ["rational", "bigfloat"])
def test_density_R_past_the_f64_range_exit_4(mode, capsys):
    # R1 >= R, so an R past the largest f64 is refused by the R1 check
    argv = ["density", "1/2", "1/3", "--mode", mode, "--q-max", "100", "--R", "1e400"]
    assert run_cli(argv) == 4
    assert "R1" in capsys.readouterr().err


def _exact_lambda1(line, s, t):
    return lattice.shortest_vector(
        lattice.ReducedLattice.exact(*integer_scaled(exact_scaled_rows(phi(line, s), t)))).lambda1


@pytest.mark.parametrize("args", [
    ["equidist", "1e200", "1", "--t-list", "1", "--N", "3"],
    ["equidist", "1", "1e200", "--t-list", "1", "--N", "3"],
    ["equidist", "1e400", "1", "--mode", "rational", "--t-list", "1", "--N", "3"],
    ["orbit", "1e300", "1", "--t-grid", "1", "--N", "3"],
    ["dirichlet", "1e200", "1", "--t-max", "1"],
    ["equidist", "-2e219", "-2e289", "--t-list", "1", "--N", "200"],
    ["dirichlet", "-2.0511610263684935e+219", "-2.067449117316351e+289",
     "--s", "0.489610192444466", "--t-max", "1"],
])
def test_translates_past_the_f64_range_reduce_exactly(args, tmp_path):
    # an entry of the f64 basis (float(1e400)) or a step of the f64 LLL
    # (a squared Gram-Schmidt coefficient) overflows, or a column's squared
    # length does (a slope near 10^289, which the f64 LLL would size-reduce
    # to an infinite Gram-Schmidt length); the translate is reduced exactly,
    # and every first minimum is the exact one
    out = tmp_path / "big"
    assert run_cli(args + ["--out", str(out)]) == 0
    doc = read_json(str(out) + ".json")
    mode = RATIONAL if "rational" in args else F64
    line = flow.LineSegmentSpec.from_strings(args[1], args[2], "0", "1", mode)
    rows = doc["samples"]
    assert rows
    if args[0] == "equidist":
        for row in rows:
            assert row["escalated"]
            s = mode.from_fraction(Fraction(row["s"]))  # s = u, a dyadic
            assert row["lambda1"] == _exact_lambda1(line, s, row["t"])
    elif args[0] == "dirichlet":
        s = named_scalar(doc["config"]["s"], mode)
        for row in rows:
            assert row["lambda1"] == _exact_lambda1(line, s, row["t"])
    else:
        (row,) = rows
        lams = [_exact_lambda1(line, exp.sample_uniform(1, i), 1.0) for i in range(3)]
        assert row["escape_fraction"] == sum(lam < 0.2 for lam in lams) / 3


def test_density_window_search_ends_at_the_last_nonempty_block(tmp_path):
    # every return-window block with n past max(q_max, 2R/(s2 - s1) + |a| q_max)
    # is empty, so a long horizon walks no more blocks than a short one
    start = time.perf_counter()
    assert run_cli(["density", "sqrt2", "sqrt3", "--T", "3000", "--q-max", "100",
                    "--out", str(tmp_path / "long")]) == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("flag", ["--radii=1.0000001,1.0000002", "--t-list=5,5.0000001"])
def test_equidist_colliding_labels_exit_2(flag, capsys):
    # both values would write one count_r1 column and one mean_counts key
    assert run_cli(["equidist", "sqrt2", "sqrt3", "--N", "2", flag]) == 2
    assert "6 significant digits" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["0", "1", "2"])
def test_equidist_delta_outside_unit_interval_exit_2(delta, monkeypatch, capsys):
    def sample(*args, **kwargs):
        raise AssertionError("sampling started before --delta was checked")

    monkeypatch.setattr(exp, "sample_translate", sample)
    assert run_cli(["equidist", "sqrt2", "sqrt3", "--N", "2", "--delta", delta]) == 2
    assert "delta" in capsys.readouterr().err


def test_equidist_report_round_trip(tmp_path):
    out1 = tmp_path / "eq1"
    out2 = tmp_path / "eq2"
    args = ["equidist", "sqrt2", "sqrt3", "--t-list", "2", "--N", "25",
            "--radii", "1.0", "--seed", "5"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    d1 = read_json(str(out1) + ".json")
    d2 = read_json(str(out2) + ".json")
    d1["config"].pop("out")
    d2["config"].pop("out")
    assert d1 == d2  # same config + seed => identical report


def test_json_is_lf_and_utf8(tmp_path):
    out = tmp_path / "enc"
    assert run_cli(["classify", "1/2", "1/3", "--mode", "rational",
                    "--q-max", "20", "--out", str(out)]) == 0
    raw = (str(out) + ".json").encode()  # path round-trip sanity
    with open(str(out) + ".json", "rb") as f:
        blob = f.read()
    assert b"\r\n" not in blob
    blob.decode("utf-8")


def test_schema_export_is_json_roundtrippable():
    schema = json.loads(json.dumps(cli.REPORT_SCHEMA))
    assert schema == cli.REPORT_SCHEMA
    assert schema is not cli.REPORT_SCHEMA


def test_report_schema_is_a_valid_draft_2020_12_schema():
    jsonschema.Draft202012Validator.check_schema(cli.REPORT_SCHEMA)


REPORT_RUNS = [
    ["classify", "1/2", "1/3", "--mode", "rational", "--q-max", "100"],
    ["orbit", "sqrt2", "sqrt3", "--t-grid", "0:2:1", "--N", "5"],
    ["density", "1/2", "1/3", "--mode", "rational", "--T", "5", "--q-max", "100"],
    ["equidist", "sqrt2", "sqrt3", "--t-list", "2,3", "--N", "10", "--radii", "1,1.5"],
    ["dirichlet", "sqrt2", "sqrt3", "--t-max", "2"],
]


@pytest.mark.parametrize("args", REPORT_RUNS)
def test_every_report_matches_report_schema(args, tmp_path):
    out = tmp_path / "r"
    assert run_cli(args + ["--out", str(out), "--format", "json"]) == 0
    doc = read_json(str(out) + ".json")
    jsonschema.Draft202012Validator(cli.REPORT_SCHEMA).validate(doc)
    assert doc["config"]["subcommand"] == args[0]


@pytest.mark.parametrize("mode", ["bigfloat:256", "rational"])
@pytest.mark.parametrize("args", REPORT_RUNS)
def test_every_report_is_plain_json_in_every_mode(args, mode, tmp_path):
    # reports are dumped as the runners build them: a bigfloat or Fraction
    # left in one would fail json.dump here
    if mode == "rational":  # sqrt2 and sqrt3 have no rational value
        args = [{"sqrt2": "7/5", "sqrt3": "17/10"}.get(x, x) for x in args]
    out = tmp_path / "r"
    assert run_cli(args + ["--mode", mode, "--out", str(out)]) == 0
    doc = read_json(str(out) + ".json")
    jsonschema.Draft202012Validator(cli.REPORT_SCHEMA).validate(doc)
    assert doc["config"]["mode"] == mode
    with open(str(out) + ".csv", encoding="utf-8") as f:
        assert len(list(csv.reader(f))) == len(doc["samples"]) + 1


def test_cli_import_leaves_jsonschema_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, latflow.cli; sys.exit(int('jsonschema' in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_no_subcommand_in_any_mode_loads_numpy():
    # nor mpmath: the test oracles' packages stay out of the runtime
    runs = []
    for mode in ("f64", "bigfloat:256", "rational"):
        for args in REPORT_RUNS:
            if mode == "rational":  # sqrt2 and sqrt3 have no rational value
                args = [{"sqrt2": "7/5", "sqrt3": "17/10"}.get(x, x) for x in args]
            runs.append(args + ["--mode", mode])
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, latflow.cli\n"
            "codes = [latflow.cli.main(args) for args in json.loads(sys.argv[1])]\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.partition('.')[0] in ('numpy', 'mpmath'))\n"
            "print(json.dumps([codes, loaded]), file=sys.stderr)\n")
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stderr.splitlines()[-1])
    assert codes == [0] * len(runs)
    assert loaded == []


# -- the report writers -------------------------------------------------------

def _dumped(report):
    f = io.StringIO()
    json.dump(report, f, indent=2, sort_keys=True)
    return f.getvalue()


def _written(report):
    f = io.StringIO()
    cli._write_json(report, f)
    return f.getvalue()


def _report(samples, summary=None, config=None):
    return {"schema_version": 1, "config": {"subcommand": "equidist", "seed": 1}
            if config is None else config, "samples": samples,
            "summary": {"note": "x"} if summary is None else summary, "flags": ["f"]}


_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
                     st.floats(), st.text(max_size=12))
_keys = st.text(max_size=8)
_json_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(_keys, inner, max_size=3)), max_leaves=8)


@settings(max_examples=150, deadline=None)
@given(samples=st.lists(st.dictionaries(_keys, _scalars, min_size=1, max_size=6),
                        max_size=150),
       summary=st.dictionaries(_keys, _json_values, max_size=4),
       config=st.dictionaries(_keys, _scalars, max_size=4))
def test_report_json_is_json_dump_byte_for_byte(samples, summary, config):
    report = _report(samples, summary, config)
    assert _written(report) == _dumped(report)


@settings(max_examples=100, deadline=None)
@given(samples=st.lists(st.dictionaries(_keys, _json_values, max_size=4), max_size=70))
def test_report_json_is_json_dump_with_any_rows(samples):
    report = _report(samples)
    assert _written(report) == _dumped(report)


_ROW = {"s": 0.25, "t": 5.0, "lambda1": 0.8125, "certified": True,
        "escalated": False, "count_r1.5": 14}


@pytest.mark.parametrize("samples", [
    [],
    [{}],
    [_ROW, {}],
    [_ROW] * 64,
    [_ROW] * 65,
    [dict(_ROW, s=i / 7) for i in range(129)],
    [{"min_vector": [1, -2, 3], "t": 1.0}],
    [_ROW, {"v": (1, 2)}],
    [_ROW, {"nested": {"b": 1, "a": [2.5]}}],
    [{"text": "},\n      {", "quote": 'say "hi"\\', "k},\n      {": 1}] * 3,
    [{"text": "λ₁ ≥ δ, é, \U0001d53c", "λ": 1.0}],
    [{"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": -0.0}],
    [{"none": None, "yes": True, "no": False, "big": 2 ** 80, "tiny": 5e-324}],
    [{"samples": [], "x": 1}],
])
def test_report_json_fixed_cases(samples):
    report = _report(samples)
    assert _written(report) == _dumped(report)


def test_report_json_5000_digit_int():
    report = _report([{"q": 10 ** 4999 + 7, "p1": -(10 ** 4999)}, _ROW])
    with cli._unlimited_int_text():
        assert _written(report) == _dumped(report)


def test_scalar_rows_skip_json_dump(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("json.dump ran")

    monkeypatch.setattr(cli.json, "dump", refused)
    report = _report([_ROW] * 3)
    with pytest.raises(AssertionError):
        _dumped(report)
    assert json.loads(_written(report)) == report


@pytest.mark.parametrize("value", [Fraction(1, 3), from_int(bigfloat(256), 3)])
def test_report_json_refuses_non_json_scalars(value):
    # a runner that leaves a Fraction or bigfloat in a row fails, as json.dump does
    for samples in ([dict(_ROW, s=value)], [_ROW, {"min_vector": [value]}]):
        with pytest.raises(TypeError):
            _written(_report(samples))


_csv_values = st.one_of(_scalars, st.lists(st.integers(), max_size=3))


@settings(max_examples=200, deadline=None)
@given(values=st.one_of(st.lists(st.floats(), min_size=1),
                        st.lists(st.booleans(), min_size=1),
                        st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1),
                        st.lists(st.text(), min_size=1), st.lists(_csv_values, min_size=1)))
def test_csv_cells_are_fmt_cell_for_cell(values):
    assert list(cli._csv_cells(values)) == [cli._fmt(v) for v in values]


# rows of one type per key ("a" floats, "b" ints, "c" bools), whose chunks
# take the %-template unless a column is "d" or "e" (missing keys)
_typed_rows = st.lists(st.fixed_dictionaries({
    "a": st.one_of(st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0]), st.floats()),
    "b": st.one_of(st.sampled_from([2 ** 53 + 1, -2 ** 53 - 1, 2 ** 64, -2 ** 70]),
                   st.integers(-2 ** 70, 2 ** 70)),
    "c": st.booleans()}), max_size=140)


@settings(max_examples=100, deadline=None)
@given(typed=_typed_rows,
       rows=st.one_of(st.just([]), st.lists(st.dictionaries(
           st.sampled_from("abcd"), _csv_values, max_size=4), max_size=140)),
       columns=st.lists(st.sampled_from("abcde"), max_size=5))
@example(typed=[{"a": -0.0, "b": 2 ** 53 + 1, "c": True}], rows=[], columns=["c", "a", "b"])
def test_csv_file_is_per_cell_fmt(typed, rows, columns):
    rows = typed + rows
    f = io.StringIO(newline="")
    cli._write_csv(rows, columns, f)
    assert f.getvalue() == csv_per_cell(rows, columns, cli._fmt)
