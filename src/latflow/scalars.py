"""Scalar arithmetic policy and number parsing.

Three scalar modes are supported and threaded through the whole package:

* ``f64``        -- double precision, adequate for flow times t <= 12 and
                    denominators |q| <= 2**20,
* ``bigfloat:B`` -- ``Fraction`` values rounded to B significant bits
                    (default 256),
* ``rational``   -- exact ``fractions.Fraction`` arithmetic; mandatory for
                    rational and truncated-Liouville inputs where residuals
                    reach 10**-24 and below.

A bigfloat scalar is a dyadic ``Fraction`` with at most B significant bits:
every input is correctly rounded to B bits on entry (round half to even;
a relative error of at most 2^-B), and arithmetic on it is exact after
that, as in rational mode.  A value is rounded again only where the code
asks for a mode scalar (``from_fraction``) or a report takes a float.  The
irrational constants and e^{kt} come from one Ziv loop (``rounded``) over
``decimal``'s correctly rounded functions, so no result depends on a
global precision.

Vectors and matrices are plain tuples: integer vectors (p1, p2, q) hold
ints, and matrices rows of whatever numbers the mode produces.  Everything
here is an immutable value, safe to share between threads.
"""

from __future__ import annotations

import decimal
import math
from collections import namedtuple
from fractions import Fraction

from .errors import ParseError, PrecisionError

F64_MAX_DENOM = 1 << 20  # |q| beyond this loses residual bits in f64


class ScalarMode(namedtuple("ScalarMode", "kind bits")):
    """Arithmetic policy: which number type realises the spec's Scalar.

    ``kind`` is "f64", "bigfloat" or "rational", ``bits`` the bigfloat
    mantissa size."""

    __slots__ = ()

    def __new__(cls, kind: str, bits: int | None = None):
        if kind not in ("f64", "bigfloat", "rational"):
            raise ParseError(f"unknown scalar mode {kind!r}")
        if kind == "bigfloat" and (bits is None or bits < 53):
            raise ParseError("bigfloat mode needs a mantissa size of >= 53 bits")
        return super().__new__(cls, kind, bits)

    def from_fraction(self, fr: Fraction):
        if self.kind == "rational":
            return fr
        if self.kind == "f64":
            try:
                if (x := float(fr)) or not fr:
                    return x
                past = "underflows f64 to 0"
            except OverflowError:
                past = "is past the f64 range"
            value = decimal.Context(prec=6).divide(fr.numerator, fr.denominator)
            raise PrecisionError(f"{value.normalize():g} {past}; bigfloat and rational mode hold it")
        # n 2^s / d, rounded half to even to an integer of B bits, over 2^s
        n, d = fr.numerator, fr.denominator
        s = self.bits - n.bit_length() + d.bit_length()
        n, d = (n << s, d) if s >= 0 else (n, d << -s)
        if abs(n) >= d << self.bits:
            s, d = s - 1, d << 1
        m, r = divmod(n, d)
        if 2 * r > d or (2 * r == d and m & 1):
            m += 1
        return Fraction(m, 1 << s) if s >= 0 else Fraction(m << -s)

    def rounded(self, value) -> Fraction:
        """The B-bit scalar of the irrational number that ``value(ctx)``
        gives correctly rounded in the decimal context ctx: the digits
        double until the ends of the one-ulp interval about that decimal
        round alike (Ziv's strategy)."""
        digits = self.bits // 3 + 10
        while True:
            ctx = decimal.Context(prec=digits, traps=[])
            if not (y := value(ctx)).is_normal():  # 0, subnormal or infinite
                raise PrecisionError(f"a bigfloat value past the decimal range: {y}")
            lo = self.from_fraction(Fraction(ctx.next_minus(y)))
            if lo == self.from_fraction(Fraction(ctx.next_plus(y))):
                return lo
            digits *= 2

    def sqrt(self, n: int):
        """sqrt(n) in this mode, correctly rounded; rejected in rational mode,
        of which ``named_scalar`` asks only the irrational sqrt of 2, 3 and 5."""
        if self.kind == "rational":
            raise ParseError(f"sqrt({n}) is irrational; not representable in rational mode")
        if self.kind == "f64":
            return math.sqrt(n)
        return self.rounded(lambda ctx: ctx.sqrt(n))

    def spec(self) -> str:
        """The --mode string that reproduces this mode."""
        if self.kind == "bigfloat":
            return f"bigfloat:{self.bits}"
        return self.kind


F64 = ScalarMode("f64")
RATIONAL = ScalarMode("rational")


def bigfloat(bits: int = 256) -> ScalarMode:
    return ScalarMode("bigfloat", bits)


def mode_from_spec(text: str) -> ScalarMode:
    """Parse a --mode argument: f64 | rational | bigfloat[:bits]."""
    if text == "f64":
        return F64
    if text == "rational":
        return RATIONAL
    if text == "bigfloat":
        return bigfloat()
    if text.startswith("bigfloat:"):
        try:
            return bigfloat(int(text.split(":", 1)[1]))
        except ValueError as e:
            raise ParseError(f"bad bigfloat precision in {text!r}") from e
    raise ParseError(f"unknown scalar mode {text!r}")


def scalar_from_decimal(text: str, mode: ScalarMode):
    """Parse decimal or rational text ('p/q') into a mode scalar.

    Exact in rational mode, correctly rounded in the float modes.
    """
    try:
        fr = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"cannot parse number {text!r}") from e
    return mode.from_fraction(fr)


def liouville_partial(k: int) -> Fraction:
    """Partial sum of the classical Liouville series, sum_{j<=k} 10^(-j!).

    Exact rational; for k = 4 the reduced denominator is 10**24, which is
    what drives the big-q acceptance runs.
    """
    if k < 1:
        raise ParseError("liouville:k needs k >= 1")
    total = Fraction(0)
    for j in range(1, k + 1):
        total += Fraction(1, 10 ** math.factorial(j))
    return total


def named_scalar(text: str, mode: ScalarMode):
    """Resolve built-in constants (sqrt2, sqrt3, golden, liouville:k) or parse text."""
    name = text.strip().lower()
    if name == "sqrt2":
        return mode.sqrt(2)
    if name == "sqrt3":
        return mode.sqrt(3)
    if name == "golden":
        if mode.kind == "rational":
            raise ParseError("golden ratio is irrational; not representable in rational mode")
        return (1 + mode.sqrt(5)) / 2
    if name.startswith("liouville:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError as e:
            raise ParseError(f"bad liouville constant {text!r}") from e
        return mode.from_fraction(liouville_partial(k))
    return scalar_from_decimal(text, mode)


def exp_f64(x: float) -> float:
    """e^x in f64; PrecisionError where it overflows (x past about 709, so
    e^{2t} overflows from t ~ 355)."""
    try:
        return math.exp(x)
    except OverflowError:
        raise PrecisionError(f"e^({x:g}) overflows f64") from None
