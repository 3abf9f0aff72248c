"""The diagonal flow, the line segment in the expanding horosphere, and
their actions on the standard representation and its exterior square.

The group elements in play are

    g_t   = diag(e^{2t}, e^{-t}, e^{-t}),
    phi(s) = [[1, s, a*s + b], [0, 1, 0], [0, 0, 1]],   s in I = [s1, s2].

Applying g_t . phi(s) to an integer vector (p1, p2, q) gives coordinates

    ( e^{2t} [ (b q + p1) + (a q + p2) s ],  e^{-t} p2,  e^{-t} q ),

so every coordinate is affine in s and suprema over the segment are exact
maxima over the two endpoints.  The actions return plain coordinate tuples
in the line's scalars, exact in bigfloat mode on the B-bit values of the
line and of e^{kt}.  Flow times can carry an exact value of e^t
(a Fraction), which keeps the rational-mode segment actions and minima exact
out to t ~ ln 10^24; a ``translate_basis`` lattice keeps only the float t.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidInputError
from .scalars import (
    F64,
    IntegerVec3,
    Matrix3,
    ScalarMode,
    Vec3,
    exact_ratio,
    exp_f64,
    named_scalar,
)


@dataclass(frozen=True)
class LineSegmentSpec:
    """Parameters (a, b) and the interval I = [s1, s2] of the segment."""

    a: object
    b: object
    s1: object
    s2: object
    mode: ScalarMode = F64

    def __post_init__(self):
        if not self.s1 < self.s2:
            raise InvalidInputError("segment needs s1 < s2 strictly")

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

    def endpoints(self):
        return (self.s1, self.s2)


@dataclass(frozen=True)
class FlowTime:
    """A flow time t, optionally with the exact value of e^t attached.

    ``exp_t`` set to a Fraction u means t = ln(u) exactly; the powers
    e^{kt} = u^k are then exact rationals (``translate_basis`` reads only
    the float t).  Without it, exponentials are evaluated in floats.
    """

    t: float
    exp_t: Fraction | None = None

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise InvalidInputError("flow time must be finite")
        if self.exp_t is not None and self.exp_t <= 0:
            raise InvalidInputError("e^t must be positive")

    @classmethod
    def of(cls, t: float) -> "FlowTime":
        return cls(float(t))

    @classmethod
    def from_exp(cls, u) -> "FlowTime":
        """Flow time t = ln(u) with u = e^t kept exact."""
        u = Fraction(u)
        return cls(math.log(u), u)

    def factor(self, k: int, mode: ScalarMode = F64):
        """e^{k t} as a mode scalar: exact when exp_t is known, else
        correctly rounded to B bits from the exact k t in bigfloat mode and
        an f64 in the other modes."""
        if self.exp_t is not None:
            return mode.from_fraction(self.exp_t ** k)
        if mode.kind == "bigfloat":
            return _exp_bigfloat(self.t, k, mode)
        return exp_f64(k * self.t)


@lru_cache(maxsize=8)
def _exp_bigfloat(t: float, k: int, mode: ScalarMode) -> Fraction:
    """e^{k t} correctly rounded to the B bits of the bigfloat ``mode``, by
    one Ziv loop per (t, k, B) among the last few asked for: one flow time
    asks for the same powers again (``segment_minimum``, then
    ``segment_sup``)."""
    # k t exactly: a float's decimal is finite
    kt = decimal.Context(prec=decimal.MAX_PREC).multiply(decimal.Decimal(t), k)
    return mode.rounded(lambda ctx: ctx.exp(kt))


def phi(line: LineSegmentSpec, s) -> Matrix3:
    """The unipotent segment element phi(s); upper triangular, det = 1."""
    one, zero = line.mode.one, line.mode.zero
    return ((one, s, line.a * s + line.b), (zero, one, zero), (zero, zero, one))


def _require_nonzero(v: IntegerVec3):
    if v.is_zero():
        raise InvalidInputError("the zero vector is not a valid witness or orbit seed")


def flow_standard(line: LineSegmentSpec, s, t: FlowTime, v: IntegerVec3) -> Vec3:
    """g_t phi(s) applied to (p1, p2, q) in the standard representation:
    (e^{2t} ((b q + p1) + (a q + p2) s), e^{-t} p2, e^{-t} q)."""
    _require_nonzero(v)
    em = t.factor(-1, line.mode)
    first = t.factor(2, line.mode) * (line.b * v.q + v.p1 + (line.a * v.q + v.p2) * s)
    return (first, em * v.p2, em * v.q)


def flow_ext2(line: LineSegmentSpec, s, t: FlowTime, w: IntegerVec3) -> Vec3:
    """g_t phi(s) on the exterior square, coordinates (p, q, r) in the basis
    (e12, e23, e13).

    phi(s) fixes e12 and e13 and sends e23 to s*e13 - (a s + b)*e12 + e23,
    so the image is (e^t(-(a s + b)q + p), e^{-2t} q, e^t(s q + r)).
    """
    _require_nonzero(w)
    p, q, r = w.p1, w.p2, w.q
    et = t.factor(1, line.mode)
    em2 = t.factor(-2, line.mode)
    first = et * (-(line.a * s + line.b) * q + p)
    third = et * (s * q + r)
    return (first, em2 * q, third)


def segment_sup(line: LineSegmentSpec, t: FlowTime, v: IntegerVec3):
    """sup_{s in I} of the sup-norm of g_t phi(s) v (standard action).

    Every coordinate is affine in s, so |coord| is convex and the supremum
    is attained at an endpoint: max(e^{2t} max_i |(q b + p1) + (q a + p2) s_i|,
    e^{-t} |p2|, e^{-t} |q|), evaluated in Fractions from the stored values
    of ``t.factor``, a, b, s1 and s2 and rounded once into the line's mode.
    """
    _require_nonzero(v)
    e2, em, a, b = (Fraction(*exact_ratio(x)) for x in (
        t.factor(2, line.mode), t.factor(-1, line.mode), line.a, line.b))
    p1, p2, q = v.as_tuple()
    x = max(abs((q * b + p1) + (q * a + p2) * Fraction(*exact_ratio(s)))
            for s in line.endpoints())
    return line.mode.from_fraction(max(e2 * x, em * abs(p2), em * abs(q)))


def ext2_constant(line: LineSegmentSpec):
    """The interval constant C_I = min{(s2-s1)/2, (s2-s1)/(|s1|+|s2|), 1}.

    For any nonzero integer w and t >= 0, the sup over s in I of the
    sup-norm of ``flow_ext2`` is bounded below by C_I * e^t.
    """
    s1, s2 = line.endpoints()
    length = s2 - s1
    terms = [length / line.mode.from_int(2), line.mode.from_int(1)]
    denom = abs(s1) + abs(s2)
    if denom > 0:
        terms.append(length / denom)
    return min(terms)


@dataclass(frozen=True)
class VandermondeCheck:
    lhs: object
    rhs: object
    passed: bool


def vandermonde_check(w, t: FlowTime, line: LineSegmentSpec) -> VandermondeCheck:
    """Lower bound for the weight-0 coordinate of the SL2 action on degree-m
    polynomial vectors.

    With coefficients w = (w_0, ..., w_m) and the equispaced grid
    tau_j = s1 + (j/m)(s2 - s1), the supremum of |sum_k w_k s^k| over I
    dominates max_j |sum_k w_k tau_j^k|, and the inverse-Vandermonde
    estimate gives

        sup >= (C_I * m)^{-m} * max_k |w_k|,   C_I = (1 + max(|s1|,|s2|)) / (s2 - s1).

    Both sides carry the weight-space expansion factor e^{mt}.  Returns the
    grid maximum (lhs), the guaranteed bound (rhs) and the comparison.
    """
    m = len(w) - 1
    if m < 1:
        raise InvalidInputError("need a coefficient list of length m + 1 with m >= 1")
    coeffs = [line.mode.from_int(c) if isinstance(c, int) else c for c in w]
    if all(c == 0 for c in coeffs):
        raise InvalidInputError("all-zero coefficient vector")
    s1, s2 = line.endpoints()
    emt = t.factor(m, line.mode)
    grid_max = None
    for j in range(m + 1):
        tau = s1 + line.mode.from_fraction(Fraction(j, m)) * (s2 - s1)
        acc = coeffs[0]
        power = line.mode.from_int(1)
        for k in range(1, m + 1):
            power = power * tau
            acc = acc + coeffs[k] * power
        val = abs(acc)
        if grid_max is None or val > grid_max:
            grid_max = val
    lhs = grid_max * emt
    c_i = (line.mode.from_int(1) + max(abs(s1), abs(s2))) / (s2 - s1)
    w_norm = max(abs(c) for c in coeffs)
    rhs = emt * w_norm / ((c_i * m) ** m)
    return VandermondeCheck(lhs=lhs, rhs=rhs, passed=lhs >= rhs)
