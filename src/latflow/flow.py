"""The diagonal flow and the line segment in the expanding horosphere.

The group elements in play are

    g_t   = diag(e^{2t}, e^{-t}, e^{-t}),
    phi(s) = [[1, s, a*s + b], [0, 1, 0], [0, 0, 1]],   s in I = [s1, s2].

Applying g_t . phi(s) to an integer vector (p1, p2, q) gives coordinates

    ( e^{2t} [ (b q + p1) + (a q + p2) s ],  e^{-t} p2,  e^{-t} q ),

so every coordinate is affine in s and suprema over the segment are exact
maxima over the two endpoints.  A flow time is a finite float t; its powers
e^{kt} are f64 values, or the correctly rounded B-bit values in bigfloat
mode, and ``FlowTime.factor`` is the one place that makes them.
"""

from __future__ import annotations

import decimal
import math
from collections import namedtuple
from fractions import Fraction

from .errors import InvalidInputError
from .scalars import F64, ScalarMode, exp_f64, named_scalar


class LineSegmentSpec(namedtuple("LineSegmentSpec", "a b s1 s2 mode")):
    """Parameters (a, b) and the interval I = [s1, s2] of the segment."""

    __slots__ = ()

    def __new__(cls, a, b, s1, s2, mode: ScalarMode = F64):
        if not s1 < s2:
            raise InvalidInputError("segment needs s1 < s2 strictly")
        return super().__new__(cls, a, b, s1, s2, mode)

    @classmethod
    def from_strings(cls, a_text: str, b_text: str, s1_text: str, s2_text: str,
                     mode: ScalarMode = F64) -> "LineSegmentSpec":
        return cls(
            a=named_scalar(a_text, mode),
            b=named_scalar(b_text, mode),
            s1=named_scalar(s1_text, mode),
            s2=named_scalar(s2_text, mode),
            mode=mode,
        )

    def point(self, s) -> tuple:
        """((sn, sd), (xn, xd)): s and the exact b + a s of phi(s), from the
        stored a, b and s, as integer ratios in lowest terms with d > 0."""
        (sn, sd), (an, ad), (bn, bd) = (v.as_integer_ratio() for v in (s, self.a, self.b))
        xn, xd = bn * ad * sd + an * sn * bd, bd * ad * sd
        g = math.gcd(xn, xd)
        return (sn, sd), (xn // g, xd // g)


class FlowTime(namedtuple("FlowTime", "t")):
    """A finite flow time t.

    ``factor`` gives the powers e^{kt}, and nothing else makes them:
    ``segment_sup`` and ``segment_minimum`` take them in a line's scalars,
    ``translate_basis`` its f64 row scales e^{2t} and e^{-t}.
    """

    __slots__ = ()

    def __new__(cls, t: float):
        if not math.isfinite(t):
            raise InvalidInputError("flow time must be finite")
        return super().__new__(cls, t)

    @classmethod
    def of(cls, t: float) -> "FlowTime":
        return cls(float(t))

    def factor(self, k: int, mode: ScalarMode = F64):
        """e^{k t} as a mode scalar: correctly rounded to B bits from the
        exact k t in bigfloat mode, by one Ziv loop per call, an f64 in the
        other modes."""
        if mode.kind == "bigfloat":
            # k t exactly: a float's decimal is finite
            kt = decimal.Context(prec=decimal.MAX_PREC).multiply(decimal.Decimal(self.t), k)
            return mode.rounded(lambda ctx: ctx.exp(kt))
        return exp_f64(k * self.t)


def segment_sup(line: LineSegmentSpec, t: FlowTime, v: tuple[int, int, int]):
    """sup_{s in I} of the sup-norm of g_t phi(s) v (standard action), for
    a nonzero integer vector v = (p1, p2, q).

    Every coordinate is affine in s, so |coord| is convex and the supremum
    is attained at an endpoint: max(e^{2t} max_i |(q b + p1) + (q a + p2) s_i|,
    e^{-t} |p2|, e^{-t} |q|), evaluated in Fractions from the stored values
    of ``t.factor``, a, b, s1 and s2 and rounded once into the line's mode
    (in rational mode, the exact value itself).
    """
    if not any(v):
        raise InvalidInputError("the zero vector is not a valid witness or orbit seed")
    e2, em, a, b = (Fraction(x) for x in (
        t.factor(2, line.mode), t.factor(-1, line.mode), line.a, line.b))
    p1, p2, q = v
    x = max(abs((q * b + p1) + (q * a + p2) * Fraction(s))
            for s in (line.s1, line.s2))
    return line.mode.from_fraction(max(e2 * x, em * abs(p2), em * abs(q)))
