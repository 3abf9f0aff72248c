import decimal
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latflow.errors import InvalidInputError, PrecisionError
from latflow.flow import FlowTime, LineSegmentSpec, segment_sup
from latflow.scalars import F64, RATIONAL, bigfloat, named_scalar

from util import (exact_time, ext2_constant, flow_ext2, flow_standard, from_int, g, mat_det,
                  mat_mul, mat_vec, phi, vandermonde_check)

RATIONAL_LINE = LineSegmentSpec(Fraction(1, 2), Fraction(1, 3),
                                Fraction(0), Fraction(1), RATIONAL)


def random_rational_line(rng):
    a = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    b = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return LineSegmentSpec(a, b, Fraction(0), Fraction(1), RATIONAL)


def test_interval_must_be_increasing():
    with pytest.raises(InvalidInputError):
        LineSegmentSpec(0.0, 0.0, 1.0, 1.0, F64)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_flow_time_must_be_finite(t):
    with pytest.raises(InvalidInputError, match="flow time must be finite"):
        FlowTime.of(t)


def test_line_and_flow_time_are_immutable():
    with pytest.raises(AttributeError):
        RATIONAL_LINE.a = Fraction(0)
    with pytest.raises(AttributeError):
        FlowTime.of(1.0).t = 2.0


_POINT_MODES = [F64, RATIONAL, bigfloat(256)]
# mode scalars: exact rationals and f64 values, subnormal and past 2^64 included
_point_values = st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 40) | st.floats(
    -1e150, 1e150, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(_POINT_MODES), a=_point_values, b=_point_values, s=_point_values)
@example(mode=F64, a=2 ** 0.5, b=3 ** 0.5, s=0.3)
@example(mode=bigfloat(256), a=Fraction(1, 3), b=Fraction(-5, 7), s=Fraction(2, 11))
@example(mode=RATIONAL, a=Fraction(0), b=Fraction(0), s=Fraction(0))
def test_point_is_s_and_the_exact_b_plus_a_s(mode, a, b, s):
    a, b, s = (mode.from_fraction(Fraction(x)) for x in (a, b, s))
    line = LineSegmentSpec(a, b, mode.from_fraction(Fraction(-1)), mode.from_fraction(Fraction(1)),
                           mode)
    x = Fraction(a) * Fraction(s) + Fraction(b)
    # lowest terms with a positive denominator: the ratios of the Fractions
    assert line.point(s) == (Fraction(s).as_integer_ratio(), x.as_integer_ratio())
    if mode.kind != "f64":
        # the line's own arithmetic is exact in these modes, so a translate
        # built from its scalar a s + b holds the same point
        assert line.point(s)[1] == (line.a * s + line.b).as_integer_ratio()


def test_point_of_an_f64_line_is_not_its_rounded_scalar():
    # in f64 the line's scalar a s + b is fl(fl(a s) + b); point keeps b + a s
    line = LineSegmentSpec.from_strings("sqrt2", "sqrt3", "0", "1", F64)
    assert Fraction(*line.point(0.3)[1]) != Fraction(line.a * 0.3 + line.b)


def test_phi_matrix_shape():
    line = LineSegmentSpec(Fraction(1), Fraction(2), Fraction(0), Fraction(4), RATIONAL)
    m = phi(line, Fraction(3))
    assert m[0][1] == 3
    assert m[0][2] == 5  # 1*3 + 2
    assert m[1] == (0, 1, 0) and m[2] == (0, 0, 1)
    assert mat_det(m) == 1


def test_phi_at_zero_third_column():
    # phi(0) e3 = (b, 0, 1): the (2,3) entry of phi is 0
    m = phi(RATIONAL_LINE, Fraction(0))
    assert mat_vec(m, (Fraction(0), Fraction(0), Fraction(1))) == \
        (Fraction(1, 3), 0, 1)
    assert m[0][1] == 0


def test_g_identity_at_zero():
    assert g(FlowTime.of(0.0), RATIONAL) == \
        ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_g_at_one():
    m = g(FlowTime.of(1.0), F64)
    assert m[0][0] == pytest.approx(math.e ** 2, rel=1e-15)
    assert m[1][1] == pytest.approx(1 / math.e, rel=1e-15)


def test_g_exact_determinant():
    # symbolic scale: e^t = 7/5 exactly, det = (7/5)^2 (5/7)(5/7) = 1
    t = exact_time(Fraction(7, 5))
    assert mat_det(g(t, RATIONAL)) == 1


def test_g_float_determinant_within_tolerance():
    for t in (-12.0, -5.0, 1.0, 7.5, 12.0):
        assert abs(mat_det(g(FlowTime.of(t), F64)) - 1) <= 1e-12


def test_flow_standard_closed_form_matches_matrix_path():
    rng = random.Random(5)
    for _ in range(100):
        line = random_rational_line(rng)
        t = exact_time(Fraction(rng.randint(1, 40), rng.randint(1, 7)))
        s = Fraction(rng.randint(0, 10), 10)
        v = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if not any(v):
            continue
        pt = flow_standard(line, s, t, v)
        direct = mat_vec(mat_mul(g(t, RATIONAL), phi(line, s)), tuple(Fraction(x) for x in v))
        assert pt == direct  # exact in rational mode


def test_flow_standard_matches_matrix_path_f64():
    rng = random.Random(6)
    line = LineSegmentSpec(0.3, 0.7, 0.0, 1.0, F64)
    for _ in range(100):
        t = FlowTime.of(rng.uniform(0, 12))
        s = rng.uniform(0, 1)
        v = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
        pt = flow_standard(line, s, t, v)
        direct = mat_vec(mat_mul(g(t, F64), phi(line, s)), tuple(float(x) for x in v))
        for got, want in zip(pt, direct):
            assert got == pytest.approx(want, rel=1e-10, abs=1e-280)


def test_flow_standard_matches_matrix_path_bigfloat():
    mode = bigfloat(192)
    rng = random.Random(44)
    line = LineSegmentSpec(mode.sqrt(2), mode.sqrt(3), from_int(mode, 0),
                           from_int(mode, 1), mode)
    for _ in range(20):
        t = FlowTime.of(rng.uniform(0, 12))
        s = mode.from_fraction(Fraction(rng.randint(0, 100), 100))
        v = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9))
        pt = flow_standard(line, s, t, v)
        direct = mat_vec(mat_mul(g(t, mode), phi(line, s)), v)
        errs = [abs(float(got - want)) <= 1e-30 * max(1.0, abs(float(want)))
                for got, want in zip(pt, direct)]
        assert all(errs)


def test_flow_standard_rational_divergence_vector():
    # v = (-p1, -p2, q) kills s: phi(s) v = (0, -p2, q) for every s, t
    v = (-2, -3, 6)
    for u in (Fraction(1), Fraction(7, 2), Fraction(100)):
        t = exact_time(u)
        for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
            pt = flow_standard(RATIONAL_LINE, s, t, v)
            assert pt == (0, -3 / u, 6 / u)


def test_flow_standard_example_values():
    # t = 2: coordinates (0, -3 e^-2, 6 e^-2), sup-norm 6 e^-2 ~ 0.8120
    line = LineSegmentSpec(0.5, float(Fraction(1, 3)), 0.0, 1.0, F64)
    pt = flow_standard(line, 0.25, FlowTime.of(2.0), (-2, -3, 6))
    x, y, z = pt
    assert x == pytest.approx(0.0, abs=1e-15)
    assert y == pytest.approx(-3 * math.exp(-2), rel=1e-14)
    assert z == pytest.approx(6 * math.exp(-2), rel=1e-14)
    assert 6 * math.exp(-2) == pytest.approx(0.8120116994196762, rel=1e-12)


def test_flow_identity_vector():
    pt = flow_standard(RATIONAL_LINE, Fraction(0), exact_time(Fraction(1)), (1, 0, 0))
    assert pt == (1, 0, 0)


def test_flow_rejects_zero_vector():
    with pytest.raises(InvalidInputError):
        flow_standard(RATIONAL_LINE, Fraction(0), FlowTime.of(0.0), (0, 0, 0))
    with pytest.raises(InvalidInputError):
        flow_ext2(RATIONAL_LINE, Fraction(0), FlowTime.of(0.0), (0, 0, 0))


def test_first_coordinate_is_affine_in_s():
    rng = random.Random(8)
    line = random_rational_line(rng)
    t = exact_time(Fraction(5, 2))
    v = (3, -4, 7)
    # fit through two points, predict the rest exactly
    p0 = flow_standard(line, Fraction(0), t, v)[0]
    p1 = flow_standard(line, Fraction(1), t, v)[0]
    for k in range(2, 12):
        s = Fraction(k, 11)
        expect = p0 + (p1 - p0) * s
        assert flow_standard(line, s, t, v)[0] == expect


def test_ext2_fixed_vectors():
    # e12 is phi-invariant and expands by e^t
    t = exact_time(Fraction(3))
    out = flow_ext2(RATIONAL_LINE, Fraction(1, 2), t, (1, 0, 0))
    assert out == (3, 0, 0)
    # e13 at t = 0 is unchanged
    out = flow_ext2(RATIONAL_LINE, Fraction(1, 2), exact_time(Fraction(1)), (0, 0, 1))
    assert out == (0, 0, 1)


def test_ext2_e23_example():
    # w = e23, (a,b) = (1,0), s = 2, t = 0 -> (-2, 1, 2)
    line = LineSegmentSpec(Fraction(1), Fraction(0), Fraction(0), Fraction(3), RATIONAL)
    out = flow_ext2(line, Fraction(2), exact_time(Fraction(1)), (0, 1, 0))
    assert out == (-2, 1, 2)


def test_f64_flow_underflow_stays_finite_overflow_raises():
    # an exponential that underflows to 0 is still the correctly rounded
    # value; only overflow leaves the f64 range
    line = LineSegmentSpec(2 ** 0.5, 3 ** 0.5, 0.0, 1.0, F64)
    v = (1, 2, 3)
    assert segment_sup(line, FlowTime.of(-400.0), v) == math.exp(400.0) * 3
    assert flow_ext2(line, 0.5, FlowTime.of(400.0), (0, 0, 1)) == (
        0.0, 0.0, math.exp(400.0))
    with pytest.raises(PrecisionError):
        segment_sup(line, FlowTime.of(400.0), v)


def test_segment_sup_rational_witness_is_s_independent():
    v = (-2, -3, 6)
    for u in (Fraction(1), Fraction(3), Fraction(20), Fraction(1000)):
        t = exact_time(u)
        assert segment_sup(RATIONAL_LINE, t, v) == Fraction(6) / u


def test_segment_sup_degenerate_interval_matches_pointwise():
    line = LineSegmentSpec(0.3, 0.7, 0.0, 1e-9, F64)
    t = FlowTime.of(0.0)
    v = (2, -1, 4)
    sup = segment_sup(line, t, v)
    pt = max(abs(c) for c in flow_standard(line, 0.0, t, v))
    assert sup == pytest.approx(pt, rel=1e-8)


def test_segment_sup_rejects_zero():
    with pytest.raises(InvalidInputError):
        segment_sup(RATIONAL_LINE, FlowTime.of(0.0), (0, 0, 0))


def test_ext2_constant_values():
    def const(s1, s2):
        line = LineSegmentSpec(Fraction(1), Fraction(0), Fraction(s1), Fraction(s2), RATIONAL)
        return ext2_constant(line)

    assert const(0, 1) == Fraction(1, 2)
    assert const(0, 2) == 1
    assert const(-1, 1) == 1


def test_ext2_lower_bound_random_integer_vectors():
    rng = random.Random(17)
    intervals = [(Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)),
                 (Fraction(1, 4), Fraction(3, 4))]
    for s1, s2 in intervals:
        line = LineSegmentSpec(Fraction(1, 2), Fraction(1, 3), s1, s2, RATIONAL)
        c_i = ext2_constant(line)
        for _ in range(200):
            w = (rng.randint(-100, 100), rng.randint(-100, 100), rng.randint(-100, 100))
            if not any(w):
                continue
            for k in (0, 1, 4, 8):
                u = Fraction(3) ** k  # e^t = 3^k, t = k ln 3 >= 0
                t = exact_time(u)
                sup = max(abs(x) for s in (s1, s2) for x in flow_ext2(line, s, t, w))
                assert sup >= c_i * u


def test_vandermonde_examples():
    line = LineSegmentSpec(Fraction(0), Fraction(0), Fraction(0), Fraction(1), RATIONAL)
    t = exact_time(Fraction(1))
    chk = vandermonde_check([1, 0], t, line)
    assert chk.lhs == 1 and chk.rhs == Fraction(1, 2) and chk.passed
    chk = vandermonde_check([0, 1], t, line)
    assert chk.lhs == 1 and chk.rhs == Fraction(1, 2) and chk.passed


def test_vandermonde_all_ones_and_random():
    rng = random.Random(29)
    line = LineSegmentSpec(Fraction(0), Fraction(0), Fraction(0), Fraction(1), RATIONAL)
    for m in range(1, 7):
        t = exact_time(Fraction(rng.randint(1, 12)))
        assert vandermonde_check([1] * (m + 1), t, line).passed
        for _ in range(20):
            w = [rng.randint(-50, 50) for _ in range(m + 1)]
            if all(c == 0 for c in w):
                continue
            assert vandermonde_check(w, t, line).passed


def test_vandermonde_rejects_bad_input():
    line = LineSegmentSpec(Fraction(0), Fraction(0), Fraction(0), Fraction(1), RATIONAL)
    with pytest.raises(InvalidInputError):
        vandermonde_check([0, 0, 0], FlowTime.of(0.0), line)
    with pytest.raises(InvalidInputError):
        vandermonde_check([5], FlowTime.of(0.0), line)


def _bigfloat_results():
    mode = bigfloat(256)
    line = LineSegmentSpec.from_strings("sqrt2", "sqrt3", "-5", "5", mode)
    s = mode.from_fraction(Fraction(7, 3))
    t = FlowTime.of(9.5)
    named = [named_scalar(x, mode) for x in ("sqrt2", "sqrt3", "golden", "liouville:4", "0.3")]
    matrix = [x for row in phi(line, s) for x in row]
    v = (3, -2, 5)
    sups = [segment_sup(line, t, v),
            max(abs(x) for s in (line.s1, line.s2) for x in flow_ext2(line, s, t, v))]
    return [x.as_integer_ratio() for x in named + matrix + sups]


@pytest.mark.parametrize("global_bits", [20, 400])
def test_bigfloat_results_ignore_global_mpmath_precision(global_bits):
    # a bigfloat scalar rounds at its mode's precision, whatever the global
    # precision of mpmath or of decimal is
    before = mpmath.mp.prec
    with mpmath.workprec(53), decimal.localcontext(decimal.Context(prec=16)):
        want = _bigfloat_results()
    with mpmath.workprec(global_bits), decimal.localcontext(
            decimal.Context(prec=global_bits // 3)):
        got = _bigfloat_results()
    assert mpmath.mp.prec == before
    assert got == want
