import json
import math
import random
from fractions import Fraction

import numpy as np
from numpy.random import Generator, Philox
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latflow import cli
from latflow import experiments as exp
from latflow import lattice
from latflow.errors import BudgetError, InvalidInputError, PrecisionError
from latflow.flow import FlowTime, LineSegmentSpec, segment_sup
from latflow.scalars import (F64, RATIONAL, bigfloat, liouville_partial,
                             named_scalar)
from util import (escape_fraction_by_lambda1, exact_time, from_int, integer_scaled,
                  ks_distance_bisect, phi, scaled_columns, segment_minimum_scan,
                  translate_sample_s)

RATIONAL_LINE = LineSegmentSpec(Fraction(1, 2), Fraction(1, 3),
                                Fraction(0), Fraction(1), RATIONAL)
GENERIC_LINE = LineSegmentSpec(named_scalar("sqrt2", F64), named_scalar("sqrt3", F64),
                               0.0, 1.0, F64)
LAM4 = liouville_partial(4)
LIOUVILLE_LINE = LineSegmentSpec(LAM4, LAM4, Fraction(0), Fraction(1), RATIONAL)


def test_sample_translate_rejects_empty():
    with pytest.raises(InvalidInputError):
        exp.sample_translate(GENERIC_LINE, FlowTime.of(1.0), 0, seed=1)


def test_sample_translate_deterministic():
    a = exp.sample_translate(GENERIC_LINE, FlowTime.of(3.0), 20, seed=9, radii=(1.0,))
    b = exp.sample_translate(GENERIC_LINE, FlowTime.of(3.0), 20, seed=9, radii=(1.0,))
    assert a == b
    c = exp.sample_translate(GENERIC_LINE, FlowTime.of(3.0), 20, seed=10, radii=(1.0,))
    assert [row["s"] for row in a] != [row["s"] for row in c]


def test_sample_translate_t_zero_lambda_is_one():
    # at t = 0 the second and third coordinates of any nonzero vector are
    # integers, so lambda1 = 1 for every s (achieved by e1)
    samples = exp.sample_translate(GENERIC_LINE, FlowTime.of(0.0), 10, seed=3)
    assert all(row["lambda1"] == pytest.approx(1.0, abs=1e-12) for row in samples)


def test_sample_translate_rational_line_bound():
    samples = exp.sample_translate(RATIONAL_LINE, FlowTime.of(5.0), 25, seed=1)
    bound = 6 * math.exp(-5)
    assert all(row["lambda1"] <= bound + 1e-12 for row in samples)


def test_sample_translate_draws_each_index_once():
    # sample i takes its s from sample_uniform(seed, i) at every t and N
    def draws(seed, N, t=1.0):
        return [row["s"] for row in exp.sample_translate(GENERIC_LINE, FlowTime.of(t), N, seed)]

    first = draws(1, 5)
    assert first == [exp.sample_uniform(1, i) for i in range(5)]
    assert draws(1, 5, t=4.0) == first
    assert draws(2, 5) == [exp.sample_uniform(2, i) for i in range(5)]
    assert draws(1, 5) == first
    longer = draws(1, 6)
    assert longer[:5] == first
    assert longer[5] == exp.sample_uniform(1, 5)


def test_draws_are_made_once_for_an_operation():
    # the last (line, N, seed) keeps its draws for the next flow time; a line
    # equal in every value but its mode draws in its own arithmetic
    draws = exp._draws(RATIONAL_LINE, 5, 1)
    assert exp._draws(RATIONAL_LINE, 5, 1) is draws
    assert all(type(s) is Fraction for s in draws)
    f64_draws = exp._draws(RATIONAL_LINE._replace(s1=0.0, s2=1.0, mode=F64), 5, 1)
    assert f64_draws == draws and all(type(s) is float for s in f64_draws)
    assert exp._draws(RATIONAL_LINE, 5, 2) != draws


def test_sample_uniform_is_numpy_philox():
    # numpy's Philox generator, which first drew these streams, is the oracle
    rng = random.Random(17)
    keys = [(-1, 0), (0, 0), (2 ** 64 - 1, 0), (1, 2 ** 64 + 5), (-1, 2 ** 64 - 1)]
    keys += [(seed, i) for seed in (1, 2, 7) for i in range(100)]
    keys += [(rng.randrange(-2 ** 64, 2 ** 65), rng.randrange(2 ** 66)) for _ in range(10_000)]
    for seed, i in keys:
        key = np.array([seed % 2 ** 64, i % 2 ** 64], dtype=np.uint64)
        assert exp.sample_uniform(seed, i) == Generator(Philox(key=key)).random(), (seed, i)


def test_sample_translate_f64_draw():
    line = LineSegmentSpec.from_strings("sqrt2", "sqrt3", "-0.3", "0.4", F64)
    samples = exp.sample_translate(line, FlowTime.of(2.0), 5, seed=7)
    for i, row in enumerate(samples):
        u = exp.sample_uniform(7, i)
        assert row["s"] == -0.3 + u * (0.4 - -0.3)


@pytest.mark.parametrize("mode, a, b", [(bigfloat(256), "sqrt2", "sqrt3"),
                                        (RATIONAL, "1/2", "1/3")])
def test_sample_translate_s_inside_sub_ulp_interval(mode, a, b, monkeypatch):
    # I is narrower than an f64 ulp at 0.1, and the f64 0.1 lies above s2;
    # each sample's s in the line's mode is the one its basis is built at,
    # and its row holds s rounded to f64
    seen = []

    def recording(line, s, t):
        seen.append(s)
        return lattice.translate_basis(line, s, t)

    monkeypatch.setattr(exp, "translate_basis", recording)
    line = LineSegmentSpec.from_strings(a, b, "0.1", "0.10000000000000000001", mode)
    samples = exp.sample_translate(line, FlowTime.of(1.0), 3, seed=1)
    assert all(line.s1 <= s <= line.s2 for s in seen)
    assert len(set(seen)) == 3
    assert [row["s"] for row in samples] == [float(s) for s in seen]


def test_sample_counts_monotone_and_even():
    samples = exp.sample_translate(GENERIC_LINE, FlowTime.of(4.0), 10, seed=5,
                                   radii=(0.5, 1.0, 1.5))
    for row in samples:
        counts = [row[exp.count_key(r)] for r in (0.5, 1.0, 1.5)]
        assert all(c % 2 == 0 for c in counts)
        assert counts == sorted(counts)


@pytest.mark.parametrize("t", [3.0, 8.0, 9.5])
def test_sample_translate_reduces_once_per_sample(monkeypatch, t):
    # one f64 reduction per sample: it resolves the columns below t ~ 9.2;
    # above it the exact (integral LLL) path takes them once, started from
    # the f64 U
    calls = []
    lll_reduce, lll_reduce_integral = lattice.lll_reduce, lattice.lll_reduce_integral

    def f64_pass(cols):
        result = lll_reduce(cols)
        calls.append(("lll_reduce", result[4]))
        return result

    def exact_pass(cols):
        calls.append(("lll_reduce_integral", None))
        return lll_reduce_integral(cols)

    monkeypatch.setattr(lattice, "lll_reduce", f64_pass)
    monkeypatch.setattr(lattice, "lll_reduce_integral", exact_pass)
    escalated = t > 9
    radii = (1.0, 1.5, 2.0)
    samples = exp.sample_translate(GENERIC_LINE, FlowTime.of(t), 8, seed=4, radii=radii)
    assert [row["escalated"] for row in samples] == [escalated] * 8
    want = ([("lll_reduce", False), ("lll_reduce_integral", None)] if escalated
            else [("lll_reduce", True)])
    assert calls == want * 8

    for row in samples:
        basis = lattice.translate_basis(
            GENERIC_LINE, GENERIC_LINE.mode.from_fraction(Fraction(row["s"])), FlowTime.of(t))
        res = lattice.shortest_vector(basis)
        alone = {"s": row["s"], "t": t, "lambda1": res.lambda1, "certified": True,
                 "escalated": res.escalated}
        alone.update((exp.count_key(r), lattice.count_points(basis, r)) for r in radii)
        assert row == alone


def test_escape_fraction_rational_line_saturates():
    # once 6 e^-t < delta every sample is outside K_delta
    t = math.log(6 / 0.2) + 0.01
    frac = exp.escape_mass_fraction(RATIONAL_LINE, FlowTime.of(t), 0.2, 40, seed=2)
    assert frac == 1.0


def test_escape_fraction_zero_at_t_zero():
    frac = exp.escape_mass_fraction(GENERIC_LINE, FlowTime.of(0.0), 0.1, 40, seed=2)
    assert frac == 0.0


def test_escape_fraction_monotone_in_delta():
    t = FlowTime.of(5.0)
    fractions = [exp.escape_mass_fraction(GENERIC_LINE, t, d, 60, seed=11)
                 for d in (0.05, 0.2, 0.5, 0.9)]
    assert fractions == sorted(fractions)


def test_escape_fraction_validates_delta():
    with pytest.raises(InvalidInputError):
        exp.escape_mass_fraction(GENERIC_LINE, FlowTime.of(1.0), 1.2, 5, seed=1)


_ESCAPE_LINES = [
    GENERIC_LINE,
    LineSegmentSpec.from_strings("1/7", "2/9", "-1/3", "5/11", RATIONAL),
    LineSegmentSpec.from_strings("sqrt2", "sqrt3", "-0.3", "0.45", bigfloat(64)),
]


@settings(max_examples=60, deadline=None)
@given(line=st.sampled_from(_ESCAPE_LINES), t=st.floats(0.0, 13.0),
       delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       at=st.sampled_from([None, "at", "above"]), k=st.integers(0, 7),
       seed=st.integers(0, 2 ** 32 - 1))
# f64 rows; integer rows on an f64 line (t > 9.2), a rational line and a
# bigfloat one; delta at a sample's lambda_1 and just above it
@example(line=_ESCAPE_LINES[0], t=5.0, delta=0.5, at="at", k=0, seed=1)
@example(line=_ESCAPE_LINES[0], t=9.5, delta=0.5, at="above", k=3, seed=1)
@example(line=_ESCAPE_LINES[1], t=10.0, delta=0.5, at="above", k=1, seed=1)
@example(line=_ESCAPE_LINES[2], t=12.0, delta=0.5, at="at", k=2, seed=1)
def test_escape_fraction_equals_the_lambda1_count(line, t, delta, at, k, seed):
    # the escape fraction asks only whether lambda_1 < delta, and so equals
    # the count of the samples' full first minima below delta
    ft, N = FlowTime.of(t), 8
    if at is not None:
        lam = exp.sample_translate(line, ft, N, seed)[k]["lambda1"]
        if 0 < lam < math.nextafter(1.0, 0):
            delta = lam if at == "at" else math.nextafter(lam, 1)
    assert (exp.escape_mass_fraction(line, ft, delta, N, seed)
            == escape_fraction_by_lambda1(line, ft, delta, N, seed))


@pytest.mark.parametrize("delta, escapes", [
    # the float below 0.5 has an odd mantissa, so a tie rounds up to delta
    (0.5, False),
    # the float below 0.5 - 2^-54 has an even one, so a tie rounds down
    (0.49999999999999994, True),
])
@pytest.mark.parametrize("skew", [Fraction(0), Fraction(1, 3)])
def test_escape_at_a_planted_tie(delta, escapes, skew, monkeypatch):
    # integer rows whose exact lambda_1 is the midpoint of delta and the
    # float below it: lambda_1 < delta exactly where that tie rounds down
    below = math.nextafter(delta, 0)
    mid = (Fraction(below) + Fraction(delta)) / 2
    assert int(math.frexp(below)[0] * 2 ** 53) % 2 == (0 if escapes else 1)
    lat = lattice.ReducedLattice.exact(*integer_scaled([[mid, skew, 0], [0, 1, 0], [0, 0, 1]]))
    assert lat.escalated and lat.minimum(math.inf)[0] == mid
    assert (float(mid) < delta) is escapes
    monkeypatch.setattr(exp, "translate_basis", lambda line, s, t, within=None: lat)
    args = (GENERIC_LINE, FlowTime.of(0.0), delta, 3, 1)
    assert exp.escape_mass_fraction(*args) == escape_fraction_by_lambda1(*args) == escapes


# -- segment minimum -----------------------------------------------------------

def test_segment_minimum_rational_witness():
    for u in (Fraction(4), Fraction(20), Fraction(150)):
        sm = exp.segment_minimum(RATIONAL_LINE, exact_time(u), 6.0)
        assert sm is not None
        assert sm[1] == Fraction(6) / u
        p1, p2, q = sm[0]
        # minimizer is the certificate direction (up to sign)
        assert (p1, p2, q) in [(-2, -3, 6), (2, 3, -6)]


def test_segment_minimum_t_zero_value_one():
    sm = exp.segment_minimum(GENERIC_LINE, FlowTime.of(0.0), 1.0)
    assert sm is not None
    assert float(sm[1]) == pytest.approx(1.0, abs=1e-12)
    # at t = 0, (1, 0, 0) has value exactly R_cap = 1, and is kept in bigfloat
    mode = bigfloat(256)
    line = LineSegmentSpec(named_scalar("sqrt2", mode), named_scalar("sqrt3", mode),
                           from_int(mode, 0), from_int(mode, 1), mode)
    sm = exp.segment_minimum(line, FlowTime.of(0.0), 1.0)
    assert sm[0] == (1, 0, 0) and sm[1] == 1


def test_segment_minimum_value_matches_segment_sup():
    # caps sized to the actual minima: for a generic irrational line the
    # segment minimum grows with t (nothing stays uniformly small)
    for t, cap in ((0.0, 2.0), (1.0, 2.0), (2.5, 8.0), (6.0, 500.0)):
        sm = exp.segment_minimum(GENERIC_LINE, FlowTime.of(t), cap)
        assert sm is not None
        direct = segment_sup(GENERIC_LINE, FlowTime.of(t), sm[0])
        assert float(sm[1]) == pytest.approx(float(direct), rel=1e-12)


def _exact_segment_sup(line, t, v):
    # max(e^{2t} max_i |(q b + p1) + (q a + p2) s_i|, e^{-t} |p2|, e^{-t} |q|)
    # at the exact values of the f64 inputs
    e2, em = Fraction(math.exp(2 * t)), Fraction(math.exp(-t))
    a, b, s1, s2 = map(Fraction, (line.a, line.b, line.s1, line.s2))
    p1, p2, q = v
    x = max(abs((q * b + p1) + (q * a + p2) * s) for s in (s1, s2))
    return max(e2 * x, em * abs(p2), em * abs(q))


@pytest.mark.parametrize("a, b, t, value", [
    ("0.123456789012345", "0.987654321098765", 8.0, 0.7197757153769722),
    ("sqrt2", "sqrt3", 3.0, 5.68153220662225),
])
def test_f64_segment_minimum_value_is_rounded_once(a, b, t, value):
    # the min_value of `orbit A B --t-grid T`: an f64 evaluation of the
    # endpoint maximum cancels (0.7197756588966153 and 5.681532206622787)
    line = LineSegmentSpec.from_strings(a, b, "0", "1", F64)
    sm = exp.segment_minimum(line, FlowTime.of(t), 6.0)
    assert sm[1] == float(_exact_segment_sup(line, t, sm[0])) == value


def test_segment_minimum_generic_line_grows():
    # frozen from the exhaustive search: the uniform-over-segment minimum
    # increases along t for (sqrt2, sqrt3), unlike the rational line
    values = [float(exp.segment_minimum(GENERIC_LINE, FlowTime.of(t), 500.0)[1])
              for t in (0.0, 1.0, 2.5, 6.0)]
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert values == sorted(values)
    assert values[-1] > 100


def test_segment_minimum_none_below_tight_cap():
    # Liouville line at t = ln 10: the exhaustive minimum is ~1.998 > 1
    sm = exp.segment_minimum(LIOUVILLE_LINE, exact_time(10), 1.0)
    assert sm is None


def test_segment_minimum_liouville_exact_values():
    # frozen from the exact exhaustive search (and verified by hand):
    # minima at t = ln 10, ln 100, ln 10^6
    sm = exp.segment_minimum(LIOUVILLE_LINE, exact_time(10), 6.0)
    assert sm[0] == (-1, -1, 9)
    assert sm[1] == Fraction(9990999999999999999991, 5 * 10 ** 21)
    sm = exp.segment_minimum(LIOUVILLE_LINE, exact_time(100), 6.0)
    assert sm[0] == (-11, -11, 100)
    assert sm[1] == Fraction(10 ** 18 + 1, 5 * 10 ** 17)
    sm = exp.segment_minimum(LIOUVILLE_LINE, exact_time(10 ** 6), 2.0)
    assert sm[0] == (-110001, -110001, 10 ** 6)
    assert sm[1] == 1


def test_segment_minimum_matches_brute_force_oracle():
    # small-window brute force over (p1, p2, q) in exact integer arithmetic:
    # with a = b = n / D, s in {0, 1} and e^t = u, u D times the segment sup
    # of (p1, p2, q) is max(u^3 |D p1 + q n|, u^3 |D (p1 + p2) + 2 q n|,
    # D |p2|, D q)
    line = LIOUVILLE_LINE
    n, D = LAM4.numerator, LAM4.denominator
    for u in (2, 5, 9):
        u3 = u ** 3
        best = None
        for q in range(0, 6 * u + 1):
            qn = q * n
            for p2 in range(-2 * q - 3, 2 * q + 4):
                floor = max(D * abs(p2), D * q)
                for p1 in range(-2 * q - 3, 2 * q + 4):
                    if p1 == p2 == q == 0:
                        continue
                    c = D * p1 + qn
                    val = max(u3 * max(abs(c), abs(c + D * p2 + qn)), floor)
                    if best is None or val < best:
                        best = val
        sm = exp.segment_minimum(line, exact_time(u), 6.0)
        assert sm is not None and sm[1] == Fraction(best, u * D), (u, sm[1], best)


def test_segment_minimum_window_soundness():
    # any v outside the search window of the q-scan oracle
    # (tests/util.py::segment_minimum_scan) has sup above the cap
    rng = random.Random(31)
    line = GENERIC_LINE
    t = FlowTime.of(2.0)
    r_cap = 2.0
    e2t, emt = math.exp(2 * t.t), math.exp(-t.t)
    r1 = 2 * r_cap
    outside = 0
    checked = 0
    while checked < 100_000:
        q = rng.randint(-10 ** 4, 10 ** 4)
        p2 = rng.randint(-10 ** 4, 10 ** 4)
        p1 = rng.randint(-10 ** 4, 10 ** 4)
        v = (p1, p2, q)
        if not any(v):
            continue
        checked += 1
        in_window = abs(q) <= r_cap / emt
        if q != 0:
            near1 = abs(float(line.b) * q + p1) <= r1 / e2t + 1
            near2 = abs(float(line.a) * q + p2) <= r1 / e2t + 1
            in_window = in_window and near1 and near2
        else:
            in_window = in_window and abs(p2) <= r_cap / emt
        if in_window:
            continue
        outside += 1
        assert float(segment_sup(line, t, v)) > r_cap
    assert outside > 90_000  # nearly all random vectors are outside


def test_segment_minimum_budget_error():
    # the budget caps enumeration nodes: 10 at t = 0, 1 at e^t = 10^6
    with lattice.enumeration_budget(5), pytest.raises(BudgetError):
        exp.segment_minimum(LIOUVILLE_LINE, exact_time(1), 2.0)
    with lattice.enumeration_budget(1000):
        sm = exp.segment_minimum(LIOUVILLE_LINE, exact_time(10 ** 6), 2.0)
    assert sm[0] == (-110001, -110001, 10 ** 6)


def _assert_same_minimum(line, t, cap):
    got = exp.segment_minimum(line, t, cap)
    want = segment_minimum_scan(line, t, cap)
    assert (got is None) == (want is None), (got, want)
    if got is None:
        return
    assert got[0] == want[0]
    if isinstance(want[1], Fraction):
        assert got[1] == want[1]
    else:
        assert float(got[1]) == pytest.approx(float(want[1]), rel=1e-12)


def test_segment_minimum_equals_scan_oracle():
    for u in (2, 5, 9, 10, 100, 10 ** 3, 10 ** 4, 10 ** 5):
        _assert_same_minimum(LIOUVILLE_LINE, exact_time(u), 6.0)
    _assert_same_minimum(LIOUVILLE_LINE, exact_time(10 ** 6), 2.0)
    for t in range(9):
        _assert_same_minimum(RATIONAL_LINE, FlowTime.of(t), 6.0)
    # t = 0 ties (1, 0, 0) with (0, 1, 0) and others; the engine keeps the
    # scan's choice, the smallest in (q, p2, p1)
    assert exp.segment_minimum(RATIONAL_LINE, FlowTime.of(0), 6.0)[0] == (1, 0, 0)


def test_segment_minimum_f64_large_t_is_cheap():
    # the scan visits ~6 e^12 q values here; the engine a handful of nodes
    with lattice.enumeration_budget(10):
        assert exp.segment_minimum(GENERIC_LINE, FlowTime.of(12.0), 6.0) is None
    # past t ~ 118 the Gram-Schmidt length ratios overflow f64; the stored
    # sqrt2 and sqrt3 are k / 2^52, so q = 2^52 zeroes both residuals and
    # leaves e^{-t} max(|p2|, q)
    sm = exp.segment_minimum(GENERIC_LINE, FlowTime.of(150.0), 6.0)
    q = 2 ** 52
    p2 = -int(GENERIC_LINE.a * q)
    assert sm[0] == (-int(GENERIC_LINE.b * q), p2, q)
    assert sm[1] == math.exp(-150.0) * abs(p2)


def test_segment_minimum_f64_underflow_raises():
    # e^{2t} underflows f64 to 0 and would leave a singular lattice
    with pytest.raises(PrecisionError):
        exp.segment_minimum(GENERIC_LINE, FlowTime.of(-400.0), 6.0)


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(a=_unit, b=_unit, s=st.tuples(_unit, _unit).filter(lambda p: p[0] != p[1]),
       t=st.floats(0.0, 7.0), cap=st.sampled_from([1.0, 6.0, 50.0]))
@example(a=0.0, b=0.0, s=(0.0, 2.225073858507e-311), t=0.0, cap=1.0)  # subnormal width
@example(a=0.5, b=-7.758857822980637e-92, s=(0.0, 0.5), t=0.5, cap=1.0)  # float tie
def test_segment_minimum_matches_scan_f64(a, b, s, t, cap):
    line = LineSegmentSpec(a, b, min(s), max(s), F64)
    _assert_same_minimum(line, FlowTime.of(t), cap)


_small_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=50)


@settings(max_examples=40, deadline=None)
@given(a=_small_fraction, b=_small_fraction,
       s=st.tuples(_small_fraction, _small_fraction).filter(lambda p: p[0] != p[1]),
       u=st.fractions(min_value=1, max_value=1000, max_denominator=20),
       cap=st.sampled_from([1.0, 6.0, 50.0]))
@example(a=Fraction(0), b=Fraction(1, 44), s=(Fraction(0), Fraction(1)),
         u=Fraction(44), cap=1.0)  # q = 44 at value exactly R_cap
def test_segment_minimum_matches_scan_rational(a, b, s, u, cap):
    line = LineSegmentSpec(a, b, min(s), max(s), RATIONAL)
    _assert_same_minimum(line, exact_time(u), cap)


# -- trajectory probe ----------------------------------------------------------

def test_trajectory_probe_enters_at_zero():
    # lambda1 = 1 at t = 0 >= delta^(1/3) for any delta < 1
    times = exp.probe_times(0.9, 1.0, 0.05)
    assert times[0] == 0.0
    assert exp.trajectory_probe(GENERIC_LINE, 0.3, times[0]) >= 0.9 ** (1.0 / 3.0)


def test_trajectory_probe_rational_tail_outside():
    # 6 e^-t < delta^(1/3) forever after t0 = ln(6 / delta^(1/3))
    delta = 0.3
    thr = delta ** (1 / 3)
    t0 = math.log(6 / thr)
    times = exp.probe_times(delta, 6.0, 0.05)
    lams = [exp.trajectory_probe(RATIONAL_LINE, Fraction(1, 3), t) for t in times]
    inside = [t for t, l in zip(times, lams) if l >= thr]
    assert inside and inside[-1] <= t0 + 0.05
    tail = [l for t, l in zip(times, lams) if t > t0]
    assert all(l < thr for l in tail)


def test_trajectory_probe_grid_spacing_enforced():
    # the probe's grid refuses a step past 0.05 and a delta outside (0, 1)
    with pytest.raises(InvalidInputError):
        exp.probe_times(0.5, 1.0, dt=0.2)
    for dt in (0.0, -0.05):
        with pytest.raises(InvalidInputError):
            exp.probe_times(0.5, 1.0, dt=dt)
    with pytest.raises(InvalidInputError):
        exp.probe_times(1.7, 1.0)


def test_probe_in_k_consistent_with_threshold(tmp_path):
    # each dirichlet row is outside K_{delta^(1/3)} exactly when its probed
    # lambda1 is below the threshold; rows start where e^t delta^(1/3) >= 1
    outside = set()
    for delta, n_rows in ((0.6, 61 - 4), (0.3, 61 - 9)):
        out = tmp_path / f"dir{delta}"
        assert cli.main(["dirichlet", "sqrt2", "sqrt3", "--s", "0.62", "--delta", str(delta),
                         "--t-max", "3", "--direct-step", "0.05", "--out", str(out),
                         "--format", "json"]) == 0
        with open(f"{out}.json", encoding="utf-8") as f:
            doc = json.load(f)
        threshold = doc["summary"]["threshold"]
        assert threshold == delta ** (1.0 / 3.0)
        rows = doc["samples"]
        assert len(rows) == n_rows
        for row in rows:
            assert row["dynamical_outside_K"] == (row["lambda1"] < threshold)
            outside.add(row["dynamical_outside_K"])
    assert outside == {False, True}


# -- KS distance ---------------------------------------------------------------

def test_ks_identical_zero():
    xs = [0.1, 0.5, 0.7, 0.2]
    assert exp.ks_distance(xs, xs) == 0.0


def test_ks_disjoint_one():
    assert exp.ks_distance([0.1, 0.2, 0.3], [5.0, 6.0]) == 1.0


def test_ks_matches_scipy_exact_statistic():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(4)
    for _ in range(200):
        n1, n2 = rng.integers(1, 300, size=2)
        # rounding to a coarse grid makes ties within and across samples
        xa = np.round(rng.normal(size=n1), int(rng.integers(0, 3)))
        xb = np.round(rng.normal(0.2, 1.3, size=n2), int(rng.integers(0, 3)))
        want = stats.ks_2samp(xa, xb, method="exact").statistic
        assert exp.ks_distance(xa, xb) == want


def _ks_numpy(sample_a, sample_b):
    """The statistic as numpy computes it: ECDF gaps over lcm(n1, n2)."""
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    lcm = math.lcm(a.size, b.size)
    pooled = np.concatenate([a, b])
    ca = np.searchsorted(a, pooled, side="right") * (lcm // a.size)
    cb = np.searchsorted(b, pooled, side="right") * (lcm // b.size)
    return int(np.max(np.abs(ca - cb))) / lcm


def test_ks_matches_numpy_formula():
    rng = np.random.default_rng(12)
    for _ in range(3000):
        n1, n2 = rng.integers(1, 61, size=2)
        # rounding to 0-2 digits makes ties within and across samples
        xa = np.round(rng.normal(size=n1), int(rng.integers(0, 3))).tolist()
        xb = np.round(rng.normal(0.2, 1.3, size=n2), int(rng.integers(0, 3))).tolist()
        assert exp.ks_distance(xa, xb) == _ks_numpy(xa, xb), (xa, xb)


# a coarse grid of values makes ties within and across the samples
_ks_values = st.lists(st.sampled_from([-1.5, -0.25, 0.0, 0.5, 1.0, 2.0, 3.75, math.inf]),
                      min_size=1, max_size=40)


@settings(max_examples=300, deadline=None)
@given(xa=_ks_values, xb=_ks_values | st.lists(st.floats(-5, 5), min_size=1, max_size=90))
@example(xa=[1.0], xb=[1.0, 1.0, 2.0])
@example(xa=[0.5, 0.5], xb=[0.5, 1.0, 1.0])
def test_ks_merge_matches_bisection(xa, xb):
    assert exp.ks_distance(xa, xb) == ks_distance_bisect(xa, xb)
    assert exp.ks_distance(xb, xa) == ks_distance_bisect(xb, xa)


def test_ks_requires_nonempty():
    with pytest.raises(InvalidInputError):
        exp.ks_distance([], [1.0])



_LINES = {
    "f64": LineSegmentSpec.from_strings("sqrt2", "0.123456789012345", "-0.3", "0.45", F64),
    "rational": LineSegmentSpec.from_strings("1/7", "22/9", "-1/3", "5/11", RATIONAL),
    "bigfloat": LineSegmentSpec.from_strings("sqrt2", "sqrt3", "-0.3", "0.45", bigfloat(256)),
}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_LINES)), seed=st.integers(0, 2 ** 64 - 1),
       N=st.integers(1, 6), t=st.floats(0.0, 8.0))
def test_sample_translate_shortcuts_keep_every_bit(kind, seed, N, t):
    # s, phi(s) and the row scales by their old route, through Fraction(u),
    # from_int and three exps per sample, give the same s and f64 columns
    line = _LINES[kind]
    seen = []
    lll_reduce = lattice.lll_reduce

    def recording(cols):
        seen.append([[x.hex() for x in col] for col in cols])
        return lll_reduce(cols)

    seen_s = []

    def recording_s(line, s, t):
        seen_s.append(s)
        return lattice.translate_basis(line, s, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "lll_reduce", recording)
        mp.setattr(exp, "translate_basis", recording_s)
        samples = exp.sample_translate(line, FlowTime.of(t), N, seed, radii=(1.5,))
    want_s = [translate_sample_s(line, exp.sample_uniform(seed, i)) for i in range(N)]
    assert [type(s) for s in seen_s] == [type(s) for s in want_s]
    if kind == "f64":
        assert [s.hex() for s in seen_s] == [s.hex() for s in want_s]
    else:
        assert seen_s == want_s
    assert [row["s"] for row in samples] == [float(s) for s in want_s]
    want_cols = [[[x.hex() for x in col] for col in scaled_columns(phi(line, s), t)]
                 for s in want_s]
    # every line's columns take one f64 reduction, which a bigfloat
    # translate takes only as the start of its exact one
    assert seen == want_cols


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_LINES)), t=st.floats(0.0, 13.0))
@example(kind="f64", t=9.5)
@example(kind="bigfloat", t=12.0)
def test_segment_minimum_warm_start_keeps_the_minimum(kind, t):
    # the exact reduction of the segment lattice starts from the U of the
    # f64 reduction of the translate at s1, whose rows are three of its four;
    # the minimum and its value are those of the cold reduction
    line = _LINES[kind]
    seen = []

    def recording(s, x, t):
        seen.append((s, x, t))
        return lattice.translate_reduction(s, x, t)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exp, "translate_reduction", recording)
        warm = exp.segment_minimum(line, FlowTime.of(t), 6.0)
        mp.setattr(exp, "translate_reduction", lambda s, x, t: None)
        cold = exp.segment_minimum(line, FlowTime.of(t), 6.0)
    assert seen == [(line.s1, line.a * line.s1 + line.b, FlowTime.of(t))]
    assert warm == cold


def test_row_names_each_count_by_its_g_label():
    assert [exp.count_key(r) for r in (3.0, 1.0, 1.25e-7, 1234567.0)] == [
        "count_r3", "count_r1", "count_r1.25e-07", "count_r1.23457e+06"]
    radii = (3.0, 1.0, 1.25e-7)
    (row,) = exp.sample_translate(GENERIC_LINE, FlowTime.of(5.0), 1, seed=1, radii=radii)
    # the counts follow the row's other keys, one per radius in the order given
    assert list(row)[5:] == [exp.count_key(r) for r in radii]
    basis = lattice.translate_basis(GENERIC_LINE, row["s"], FlowTime.of(5.0))
    for r in radii:
        assert row[exp.count_key(r)] == lattice.count_points(basis, r)
