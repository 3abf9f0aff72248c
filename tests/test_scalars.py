import decimal
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latflow.errors import ParseError, PrecisionError
from latflow.flow import FlowTime
from latflow.scalars import (
    F64,
    RATIONAL,
    ScalarMode,
    bigfloat,
    liouville_partial,
    mode_from_spec,
    named_scalar,
    scalar_from_decimal,
)

from util import mat_det, mat_identity, mat_mul, mat_vec


def test_parse_rational_exact():
    assert scalar_from_decimal("1/3", RATIONAL) == Fraction(1, 3)
    assert scalar_from_decimal("0.5", RATIONAL) == Fraction(1, 2)


def test_parse_f64_dyadic_exact():
    assert scalar_from_decimal("0.5", F64) == 0.5


def test_parse_f64_correctly_rounded():
    # nearest double to 1/3
    assert scalar_from_decimal("1/3", F64) == 1 / 3


@pytest.mark.parametrize("text", ["1e-400", "-1e-400"])
def test_f64_underflow_to_0_is_a_precision_error(text):
    with pytest.raises(PrecisionError) as info:
        scalar_from_decimal(text, F64)
    assert str(info.value) == f"{text} underflows f64 to 0; bigfloat and rational mode hold it"


def test_f64_subnormal_and_zero_are_kept():
    assert scalar_from_decimal("5e-324", F64) == 5e-324 == math.ulp(0.0)
    assert F64.from_fraction(Fraction(-5, 10 ** 324)) == -5e-324
    for zero in ("0", "-0", "0/7"):
        value = scalar_from_decimal(zero, F64)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


def test_parse_bigfloat_precision():
    x = scalar_from_decimal("1/3", bigfloat(256))
    # 256-bit third: residual of 3x - 1 far below double precision
    n, d = x.as_integer_ratio()
    assert abs(Fraction(n, d) * 3 - 1) < Fraction(1, 10 ** 70)


def test_parse_malformed():
    with pytest.raises(ParseError):
        scalar_from_decimal("1/3/5", RATIONAL)
    with pytest.raises(ParseError):
        scalar_from_decimal("abc", F64)
    with pytest.raises(ParseError):
        scalar_from_decimal("1/0", RATIONAL)


def test_liouville_partial_sum_denominator():
    # assembled through repeated exact ops; reduced denominator is 10^24
    lam = liouville_partial(4)
    by_hand = Fraction(0)
    for j in (1, 2, 6, 24):
        by_hand += Fraction(1, 10 ** j)
    assert lam == by_hand
    assert lam.denominator == 10 ** 24


def test_named_constants():
    assert named_scalar("sqrt2", F64) == math.sqrt(2)
    assert abs(named_scalar("golden", F64) - (1 + math.sqrt(5)) / 2) < 1e-15
    assert named_scalar("liouville:2", RATIONAL) == Fraction(11, 100)
    with pytest.raises(ParseError):
        named_scalar("sqrt2", RATIONAL)


def test_golden_bigfloat_full_precision():
    g = named_scalar("golden", bigfloat(256))
    with mpmath.workprec(400):
        assert abs(mpmath.mpf(g.numerator) / g.denominator
                   - (1 + mpmath.sqrt(5)) / 2) < mpmath.mpf(2) ** -250


def test_mode_from_spec():
    assert mode_from_spec("f64") is F64
    assert mode_from_spec("bigfloat:128").bits == 128
    assert mode_from_spec("rational") is RATIONAL
    with pytest.raises(ParseError):
        mode_from_spec("quad")


def test_scalar_mode_is_an_immutable_value():
    mode = bigfloat(64)
    with pytest.raises(AttributeError):
        mode.bits = 128
    with pytest.raises(AttributeError):
        mode.one = 1  # no instance dict: fields only
    assert mode == bigfloat(64) and hash(mode) == hash(bigfloat(64))
    assert len({mode, bigfloat(64)}) == 1
    assert mode != bigfloat(65) and F64 != RATIONAL
    with pytest.raises(ParseError, match=">= 53 bits"):
        ScalarMode("bigfloat", 52)
    with pytest.raises(ParseError, match="unknown scalar mode"):
        ScalarMode("f32")


def test_rational_round_trips():
    import random
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
        b = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


# -- correct rounding of bigfloat scalars, against mpmath at >= 2B + 64 bits ---

def _fraction_of(y) -> Fraction:
    man, exp = y.man_exp  # of |y|
    return int(mpmath.sign(y)) * Fraction(int(man)) * Fraction(2) ** int(exp)


def _mp_rounded(bits: int, value, extra: int = 0) -> Fraction:
    """``value()`` evaluated by mpmath at 2 ``bits`` + 64 + ``extra`` bits,
    then rounded half to even at ``bits``."""
    with mpmath.workprec(2 * bits + 64 + extra):
        y = value()
    with mpmath.workprec(bits):
        return _fraction_of(+y)


def _mp_ratio(bits: int, x: Fraction) -> Fraction:
    # exact at that precision: a B-bit midpoint m differs from p/q by at
    # least 2^-B |p/q| / q, more than 2^-(2B + 64 + log2 q) |p/q|
    return _mp_rounded(bits, lambda: mpmath.mpf(x.numerator) / x.denominator,
                       x.denominator.bit_length())


def test_bigfloat_rounds_a_decimal_once():
    # mpmath's B-bit division rounds numerator and denominator first
    text = "0.404796669725102734646869589694"
    x = scalar_from_decimal(text, bigfloat(53))
    assert float(x).hex() == "0x1.9e8304a7ff01ap-2"
    assert x == Fraction(scalar_from_decimal(text, F64))


def test_bigfloat_liouville_is_correctly_rounded():
    x = named_scalar("liouville:7", bigfloat(256))
    assert x == _mp_ratio(256, liouville_partial(7))


def test_bigfloat_exp_is_correctly_rounded():
    t = 4.981943872954935
    assert FlowTime.of(t).factor(3, bigfloat(256)) == \
        _mp_rounded(256, lambda: mpmath.exp(mpmath.mpf(t) * 3))


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(53, 512), p=st.integers(-2 ** 600, 2 ** 600),
       q=st.integers(1, 2 ** 600))
@example(bits=53, p=2 ** 53 + 1, q=2 ** 53)  # a tie, to the even 1
@example(bits=53, p=2 ** 53 + 3, q=2 ** 53)  # a tie, to the even 1 + 2^-51
@example(bits=53, p=-(2 ** 54 - 1), q=2 ** 54)  # up into the next binade
@example(bits=64, p=0, q=7)
def test_from_fraction_rounds_half_to_even(bits, p, q):
    x = Fraction(p, q)
    got = bigfloat(bits).from_fraction(x)
    assert got == _mp_ratio(bits, x)
    # a dyadic of at most B significant bits
    if got:
        n = got.numerator >> ((got.numerator & -got.numerator).bit_length() - 1)
        assert abs(n).bit_length() <= bits
        assert got.denominator & (got.denominator - 1) == 0


@pytest.mark.parametrize("bits", [53, 54, 64, 100, 128, 256, 300, 512])
def test_bigfloat_sqrt_and_golden_are_correctly_rounded(bits):
    mode = bigfloat(bits)
    for n in (2, 3, 5, 6, 7, 10, 1000003):
        assert mode.sqrt(n) == _mp_rounded(bits, lambda: mpmath.sqrt(n))
        ctx = mpmath.MPContext()
        ctx.prec = bits
        assert mode.sqrt(n) == _fraction_of(ctx.sqrt(n))  # mpmath's own B bits
    assert mode.sqrt(49) == 7
    assert named_scalar("golden", mode) == _mp_rounded(bits, lambda: (1 + mpmath.sqrt(5)) / 2)


@pytest.mark.parametrize("side", [1, -1])
def test_rounded_widens_next_to_a_tie(side):
    # 1 + 2^-53 +- 10^-40 lies next to a 53-bit midpoint: the first 27
    # digits cannot tell on which side, so the digits must double
    exact = decimal.Context(prec=100)
    x = exact.add(exact.add(1, exact.power(2, -53)), side * decimal.Decimal("1e-40"))
    want = 1 + Fraction(1, 2 ** 52) if side > 0 else Fraction(1)
    assert bigfloat(53).rounded(lambda ctx: ctx.plus(x)) == want


@settings(max_examples=150, deadline=None)
@given(bits=st.integers(53, 300), t=st.floats(-30.0, 30.0), k=st.sampled_from([-2, -1, 1, 2, 3]))
@example(bits=256, t=0.0, k=2)
def test_flow_factor_is_correctly_rounded(bits, t, k):
    assert FlowTime.of(t).factor(k, bigfloat(bits)) == \
        _mp_rounded(bits, lambda: mpmath.exp(mpmath.mpf(t) * k))


def test_flow_factor_past_the_decimal_range_is_a_precision_error():
    for t in (2e6, -2e6):
        with pytest.raises(PrecisionError, match="past the decimal range"):
            FlowTime.of(t).factor(2, bigfloat(64))


def test_mat_identity_and_product():
    import random
    rng = random.Random(3)
    ident = mat_identity(RATIONAL)
    m = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
              for _ in range(3))
    assert mat_mul(ident, m) == m
    assert mat_mul(m, ident) == m
    v = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
    assert mat_vec(ident, v) == v


def test_mat_associativity_float_tolerance():
    import random
    rng = random.Random(11)
    for _ in range(50):
        mats = [tuple(tuple(rng.uniform(-1e6, 1e6) for _ in range(3)) for _ in range(3))
                for _ in range(3)]
        left = mat_mul(mat_mul(mats[0], mats[1]), mats[2])
        right = mat_mul(mats[0], mat_mul(mats[1], mats[2]))
        for i in range(3):
            for j in range(3):
                denom = max(abs(left[i][j]), abs(right[i][j]), 1.0)
                assert abs(left[i][j] - right[i][j]) / denom <= 1e-10


def test_mat_associativity_rational_exact():
    import random
    rng = random.Random(13)
    for _ in range(20):
        mats = [tuple(tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 20))
                            for _ in range(3)) for _ in range(3))
                for _ in range(3)]
        assert mat_mul(mat_mul(mats[0], mats[1]), mats[2]) == \
            mat_mul(mats[0], mat_mul(mats[1], mats[2]))


def test_det_of_identity():
    assert mat_det(mat_identity(RATIONAL)) == 1

