import math
from fractions import Fraction

import pytest

from latflow.errors import ParseError
from latflow.scalars import (
    F64,
    RATIONAL,
    IntegerVec3,
    bigfloat,
    liouville_partial,
    mode_from_spec,
    named_scalar,
    scalar_from_decimal,
    exact_ratio,
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


def test_parse_bigfloat_precision():
    x = scalar_from_decimal("1/3", bigfloat(256))
    # 256-bit third: residual of 3x - 1 far below double precision
    n, d = exact_ratio(x)
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
    import mpmath
    g = named_scalar("golden", bigfloat(256))
    with mpmath.workprec(400):
        assert abs(g - (1 + mpmath.sqrt(5)) / 2) < mpmath.mpf(2) ** -250


def test_mode_from_spec():
    assert mode_from_spec("f64") is F64
    assert mode_from_spec("bigfloat:128").bits == 128
    assert mode_from_spec("rational") is RATIONAL
    with pytest.raises(ParseError):
        mode_from_spec("quad")


def test_rational_round_trips():
    import random
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
        b = Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 9))
        assert (a + b) - b == a
        if b != 0:
            assert (a * b) / b == a


def test_exact_ratio_of_floats_and_mpf():
    n, d = exact_ratio(0.1)
    assert Fraction(n, d) == Fraction(0.1)
    import mpmath
    with mpmath.workprec(100):
        x = mpmath.mpf(1) / 3
    n, d = exact_ratio(x)
    assert abs(Fraction(n, d) - Fraction(1, 3)) < Fraction(1, 2 ** 90)


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


def test_integer_vec3():
    v = IntegerVec3(1, -2, 3)
    assert v.as_tuple() == (1, -2, 3)
    assert not v.is_zero()
    assert IntegerVec3(0, 0, 0).is_zero()
    assert list(v) == [1, -2, 3]
