"""Shortest vectors and point counts on 3-dimensional unimodular lattices.

This is the artifact's computational proxy for Mahler compactness: lambda_1
(sup-norm) is certified by complete Fincke-Pohst enumeration inside a
Euclidean ball of radius sqrt(3) * (sup-norm of the shortest reduced column).

The norm of record is the supremum norm; the Euclidean ball is only the
enumeration vehicle (in dimension n, ||v||_2 <= sqrt(n) ||v||_inf, so the
inflated ball contains every candidate that could beat the incumbent).

A lattice is one value, ``ReducedLattice``, made by either reduction.
``ReducedLattice.of(matrix, log_scale)`` takes a 3x3 matrix with a flow
log-scale that defers the exponentials of its rows (so translates are
stored without overflow) and runs one f64 ``lll_reduce`` in place on the
scaled columns and their Gram-Schmidt data, which go on to the enumeration,
or, when asked (``translate_basis`` asks for every bigfloat line) or for
columns too skewed for f64, the exact reduction
of the unrounded products, whose integer rows it builds from the integer
ratios of the entries and of the row scales, with no ``Fraction`` made;
``translate_basis`` gives it the translate g_t phi(s) Z^3.
``ReducedLattice.exact(rows)`` scales the rational rows of a rank-3 lattice
in Q^n to integers and runs the integral LLL (no rounding anywhere).  Its
``points``, ``minimum`` and ``count`` are one Fincke-Pohst enumeration,
written once, over coefficients in the reduced basis that only ``points``
and ``minimum`` map back through U; they take radii in the rows' own units
and compare candidates in the rows' own arithmetic (f64, or integers).
``shortest_vector`` and ``count_points`` read that value, so the minimum and
the counts at every radius share one reduction; ``ReducedLattice.exact``
also gives the segment minima, the Dirichlet check and the Diophantine
search boxes.

All functions are pure but for one input: the enumeration leaf cap,
``ENUMERATION_BUDGET`` unless a ``with enumeration_budget(n):`` block sets
it.  ``_enumerate_half_ball`` reads it when an enumeration starts, and
``ReducedLattice.count`` reads it for its expected-count refusal.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import BudgetError, InvalidInputError, PrecisionError, ReductionError
from .flow import phi
from .scalars import IntegerVec3, Matrix3, exact_ratio, exp_f64

LLL_DELTA = 0.99
LLL_DELTA_EXACT = Fraction(str(LLL_DELTA))  # 99/100 for the integral LLL
LLL_ITERATION_CAP = 100_000
GSO_RANGE_CAP = 1e12  # dynamic range of GSO lengths tolerated in f64
ENUMERATION_BUDGET = 10_000_000  # Fincke-Pohst leaves per search
_SINGULAR = "numerically singular basis in Gram-Schmidt"
_DEPENDENT = "integral LLL needs independent columns"

_budget = ContextVar("enumeration_budget", default=ENUMERATION_BUDGET)


@contextmanager
def enumeration_budget(n: int):
    """Cap each enumeration started inside the block at ``n`` leaves; the
    enclosing cap returns on exit."""
    token = _budget.set(n)
    try:
        yield
    finally:
        _budget.reset(token)


@dataclass(frozen=True)
class ShortVectorResult:
    """A certified first minimum: ``vector`` holds the integer coefficients
    with respect to the basis columns, ``lambda1`` the sup-norm length;
    ``escalated`` marks a result computed off the f64 path."""

    vector: IntegerVec3
    lambda1: float
    escalated: bool = False


# -- f64 reduction and the Fincke-Pohst enumeration ------------------------

def gram_schmidt(cols):
    """Euclidean Gram-Schmidt data of three column vectors.

    Returns (bstar, mu, norm2) with mu[i][j] = <b_i, b*_j>/<b*_j, b*_j> for
    j < i.  Raises on numerically singular input.  ``lll_reduce`` recomputes
    its rows with the same expressions, in the same order.
    """
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = cols
    n0 = a0 * a0 + a1 * a1 + a2 * a2
    if n0 <= 0:
        raise ReductionError(_SINGULAR)
    m10 = (b0 * a0 + b1 * a1 + b2 * a2) / n0
    v0, v1, v2 = b0 - m10 * a0, b1 - m10 * a1, b2 - m10 * a2
    n1 = v0 * v0 + v1 * v1 + v2 * v2
    if n1 <= 0:
        raise ReductionError(_SINGULAR)
    m20 = (c0 * a0 + c1 * a1 + c2 * a2) / n0
    m21 = (c0 * v0 + c1 * v1 + c2 * v2) / n1
    w0 = c0 - m20 * a0 - m21 * v0
    w1 = c1 - m20 * a1 - m21 * v1
    w2 = c2 - m20 * a2 - m21 * v2
    n2 = w0 * w0 + w1 * w1 + w2 * w2
    if n2 <= 0:
        raise ReductionError(_SINGULAR)
    return ([[a0, a1, a2], [v0, v1, v2], [w0, w1, w2]],
            [[0.0, 0.0, 0.0], [m10, 0.0, 0.0], [m20, m21, 0.0]], [n0, n1, n2])


def lll_reduce(cols, gso):
    """LLL-reduce three f64 columns in place (delta = ``LLL_DELTA``), with
    ``gso`` = ``gram_schmidt(cols)``; returns (cols, U).

    On return ``cols`` and ``gso`` hold the reduced columns and their
    Gram-Schmidt data.  U is the integer matrix with reduced = basis . U
    (column convention); only swaps and integer column steps change it from
    I, so det(U) = +-1.  A size-reduction pass rounds the mu from before the
    pass.  Only the Gram-Schmidt rows a step changes are recomputed, row 2
    (read only at k = 2) once k reaches 2, each as ``gram_schmidt`` computes
    it, so the result is bit for bit that of a full recompute.

    The rank-3 loop is straight-line code: the columns a, b, c, the columns
    of U, b*_1 = v, b*_2 = w (b*_0 is a), mu and the norms live in local
    scalars, a swap rebinds names, and each row recompute is written out,
    because a Python call per row would cost more than its arithmetic.
    """
    delta, cap = LLL_DELTA, LLL_ITERATION_CAP
    bstar, mu, norm2 = gso
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = cols
    v0, v1, v2 = bstar[1]
    m10 = mu[1][0]
    n0, n1, _ = norm2
    ua0, ua1, ua2, ub0, ub1, ub2, uc0, uc1, uc2 = 1, 0, 0, 0, 1, 0, 0, 0, 1
    k = 1
    steps = 0
    while k < 3:
        steps += 1
        if steps > cap:
            raise ReductionError(
                "LLL did not converge within the iteration cap; "
                "the basis is pathologically conditioned")
        if k == 1:
            m = round(m10)
            if m != 0:
                b0, b1, b2 = b0 - m * a0, b1 - m * a1, b2 - m * a2
                ub0, ub1, ub2 = ub0 - m * ua0, ub1 - m * ua1, ub2 - m * ua2
                m10 = (b0 * a0 + b1 * a1 + b2 * a2) / n0
                v0, v1, v2 = b0 - m10 * a0, b1 - m10 * a1, b2 - m10 * a2
                n1 = v0 * v0 + v1 * v1 + v2 * v2
                if n1 <= 0:
                    raise ReductionError(_SINGULAR)
            if n1 >= (delta - m10 ** 2) * n0:
                k = 2  # row 2, which the steps at k = 1 left stale
                m20 = (c0 * a0 + c1 * a1 + c2 * a2) / n0
                m21 = (c0 * v0 + c1 * v1 + c2 * v2) / n1
                w0 = c0 - m20 * a0 - m21 * v0
                w1 = c1 - m20 * a1 - m21 * v1
                w2 = c2 - m20 * a2 - m21 * v2
                n2 = w0 * w0 + w1 * w1 + w2 * w2
                if n2 <= 0:
                    raise ReductionError(_SINGULAR)
            else:  # swap a and b; rows 0 and 1 change, row 2 waits
                a0, a1, a2, b0, b1, b2 = b0, b1, b2, a0, a1, a2
                ua0, ua1, ua2, ub0, ub1, ub2 = ub0, ub1, ub2, ua0, ua1, ua2
                n0 = a0 * a0 + a1 * a1 + a2 * a2
                if n0 <= 0:
                    raise ReductionError(_SINGULAR)
                m10 = (b0 * a0 + b1 * a1 + b2 * a2) / n0
                v0, v1, v2 = b0 - m10 * a0, b1 - m10 * a1, b2 - m10 * a2
                n1 = v0 * v0 + v1 * v1 + v2 * v2
                if n1 <= 0:
                    raise ReductionError(_SINGULAR)
        else:
            m1, m0 = round(m21), round(m20)  # both from the unreduced c
            if m1 != 0:
                c0, c1, c2 = c0 - m1 * b0, c1 - m1 * b1, c2 - m1 * b2
                uc0, uc1, uc2 = uc0 - m1 * ub0, uc1 - m1 * ub1, uc2 - m1 * ub2
            if m0 != 0:
                c0, c1, c2 = c0 - m0 * a0, c1 - m0 * a1, c2 - m0 * a2
                uc0, uc1, uc2 = uc0 - m0 * ua0, uc1 - m0 * ua1, uc2 - m0 * ua2
            if m1 != 0 or m0 != 0:
                m20 = (c0 * a0 + c1 * a1 + c2 * a2) / n0
                m21 = (c0 * v0 + c1 * v1 + c2 * v2) / n1
                w0 = c0 - m20 * a0 - m21 * v0
                w1 = c1 - m20 * a1 - m21 * v1
                w2 = c2 - m20 * a2 - m21 * v2
                n2 = w0 * w0 + w1 * w1 + w2 * w2
                if n2 <= 0:
                    raise ReductionError(_SINGULAR)
            if n2 >= (delta - m21 ** 2) * n1:
                k = 3
            else:  # swap b and c; row 1 changes, row 2 waits
                b0, b1, b2, c0, c1, c2 = c0, c1, c2, b0, b1, b2
                ub0, ub1, ub2, uc0, uc1, uc2 = uc0, uc1, uc2, ub0, ub1, ub2
                m10 = (b0 * a0 + b1 * a1 + b2 * a2) / n0
                v0, v1, v2 = b0 - m10 * a0, b1 - m10 * a1, b2 - m10 * a2
                n1 = v0 * v0 + v1 * v1 + v2 * v2
                if n1 <= 0:
                    raise ReductionError(_SINGULAR)
                k = 1

    cols[0], cols[1], cols[2] = [a0, a1, a2], [b0, b1, b2], [c0, c1, c2]
    bstar[0], bstar[1], bstar[2] = [a0, a1, a2], [v0, v1, v2], [w0, w1, w2]
    mu[1][0], mu[2][0], mu[2][1] = m10, m20, m21
    norm2[0], norm2[1], norm2[2] = n0, n1, n2
    return cols, [[ua0, ua1, ua2], [ub0, ub1, ub2], [uc0, uc1, uc2]]


def _enumerate_half_ball(mu, norm2, bound2):
    """Yield integer coefficient triples x != 0 (one per +-pair) with
    ||B x||_2^2 <= bound2, by Fincke-Pohst interval nesting over the
    Gram-Schmidt data (mu, norm2) of the basis B, within the leaf cap in
    force when the enumeration starts."""
    budget = _budget.get()
    count = 0
    for x2 in range(0, math.floor(math.sqrt(bound2 / norm2[2])) + 1):
        r2 = bound2 - x2 * x2 * norm2[2]
        if r2 < 0:
            continue
        c1 = mu[2][1] * x2
        half1 = math.sqrt(r2 / norm2[1])
        lo1 = math.ceil(-half1 - c1)
        # one of each +-pair: the last nonzero coefficient is positive, so
        # x2 = 0 starts x1 at 0 and x1 = x2 = 0 starts x0 at 1
        for x1 in range(lo1 if x2 else max(lo1, 0), math.floor(half1 - c1) + 1):
            t1 = x1 + c1
            r1 = r2 - t1 * t1 * norm2[1]
            if r1 < 0:
                continue
            c0 = mu[1][0] * x1 + mu[2][0] * x2
            half0 = math.sqrt(r1 / norm2[0])
            lo0 = math.ceil(-half0 - c0)
            for x0 in range(lo0 if x1 or x2 else max(lo0, 1), math.floor(half0 - c0) + 1):
                count += 1
                if count > budget:
                    raise BudgetError(
                        "lattice enumeration visited more than its budget "
                        f"of {budget} nodes")
                yield (x0, x1, x2)


def _transform_apply(u, x):
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = u
    x0, x1, x2 = x
    return (a0 * x0 + b0 * x1 + c0 * x2,
            a1 * x0 + b1 * x1 + c1 * x2,
            a2 * x0 + b2 * x1 + c2 * x2)


def _f64_gram_schmidt(cols):
    """``gram_schmidt`` of the columns when f64 can reduce them, else None:
    the GSO lengths must be positive and span at most ``GSO_RANGE_CAP``."""
    try:
        gso = gram_schmidt(cols)
    except ReductionError:
        return None
    norm2 = gso[2]  # positive, or NaN
    # NaN or inf (entries or lengths past the f64 range) fail this test too
    if not (max(norm2) / min(norm2)) ** 0.5 <= GSO_RANGE_CAP:
        return None
    return gso


# -- exact reduction -------------------------------------------------------

def lll_reduce_integral(cols):
    """Exact integral LLL (Cohen, Alg. 2.6.7, delta = ``LLL_DELTA_EXACT``) of
    three linearly independent integer columns of n coordinates each;
    returns (reduced_columns, transform, d, lam).

    reduced = cols . U with U unimodular (same convention as ``lll_reduce``).
    d[i] is the Gram determinant of the first i reduced columns (d[0] = 1)
    and lam[i][j] = d[j+1] mu[i][j], so the Gram-Schmidt data are
    mu[i][j] = lam[i][j] / d[j+1] and |b*_i|^2 = d[i+1] / d[i], all exact.

    Like ``lll_reduce`` it is straight-line code for rank 3: the columns a,
    b, c, the columns of U, lam_10, lam_20, lam_21 and d_1, d_2, d_3 are
    locals and a swap rebinds names.  Row 1 is computed at entry, row 2 the
    first time k reaches 2; at k = 2, c is size-reduced against b before the
    Lovasz test and against a once it passes.  A zero d_i means dependent
    columns and raises ``ReductionError`` when that row is computed.
    """
    dn, dd = LLL_DELTA_EXACT.numerator, LLL_DELTA_EXACT.denominator
    a, b, c = cols
    ua0, ua1, ua2, ub0, ub1, ub2, uc0, uc1, uc2 = 1, 0, 0, 0, 1, 0, 0, 0, 1
    d1 = sum(map(mul, a, a))
    if d1 == 0:
        raise ReductionError(_DEPENDENT)
    l10 = sum(map(mul, b, a))
    d2 = d1 * sum(map(mul, b, b)) - l10 * l10
    if d2 == 0:
        raise ReductionError(_DEPENDENT)
    row2 = False
    k = 1
    while k < 3:
        if k == 1:
            if 2 * abs(l10) > d1:
                m = (2 * l10 + d1) // (2 * d1)
                b = [x - m * y for x, y in zip(b, a)]
                ub0, ub1, ub2 = ub0 - m * ua0, ub1 - m * ua1, ub2 - m * ua2
                l10 -= m * d1
            if dd * (d2 + l10 * l10) < dn * d1 * d1:
                # swap a and b: lam_10 stays, row 2 changes once it exists
                a, b = b, a
                ua0, ua1, ua2, ub0, ub1, ub2 = ub0, ub1, ub2, ua0, ua1, ua2
                new_d = (d2 + l10 * l10) // d1
                if row2:
                    t = l21
                    l21 = (d2 * l20 - l10 * t) // d1
                    l20 = (new_d * t + l10 * l21) // d2
                d1 = new_d
            else:
                k = 2
        else:
            if not row2:
                row2 = True
                l20 = sum(map(mul, c, a))
                l21 = d1 * sum(map(mul, c, b)) - l20 * l10
                d3 = (d2 * (d1 * sum(map(mul, c, c)) - l20 * l20) - l21 * l21) // d1
                if d3 == 0:
                    raise ReductionError(_DEPENDENT)
            if 2 * abs(l21) > d2:
                m = (2 * l21 + d2) // (2 * d2)
                c = [x - m * y for x, y in zip(c, b)]
                uc0, uc1, uc2 = uc0 - m * ub0, uc1 - m * ub1, uc2 - m * ub2
                l21 -= m * d2
                l20 -= m * l10
            if dd * (d3 * d1 + l21 * l21) < dn * d2 * d2:
                # swap b and c: lam_10 and lam_20 trade places, lam_21 stays
                b, c = c, b
                ub0, ub1, ub2, uc0, uc1, uc2 = uc0, uc1, uc2, ub0, ub1, ub2
                l10, l20 = l20, l10
                d2 = (d1 * d3 + l21 * l21) // d2
                k = 1
            else:
                if 2 * abs(l20) > d1:
                    m = (2 * l20 + d1) // (2 * d1)
                    c = [x - m * y for x, y in zip(c, a)]
                    uc0, uc1, uc2 = uc0 - m * ua0, uc1 - m * ua1, uc2 - m * ua2
                    l20 -= m * d1
                k = 3
    return ([list(a), list(b), list(c)],
            [[ua0, ua1, ua2], [ub0, ub1, ub2], [uc0, uc1, uc2]],
            [1, d1, d2, d3], [[0, 0, 0], [l10, 0, 0], [l20, l21, 0]])


def _clamped_ratio(num: int, den: int) -> float:
    # a GSO length ratio past the f64 range only shrinks that level's
    # range to its centre, so clamping keeps the enumeration complete
    try:
        return num / den
    except OverflowError:
        return 1e300


# -- one reduced lattice for both reductions -------------------------------

@lru_cache(maxsize=1)
def _flow_scales(log_scale: float) -> tuple:
    """The f64 row scales e^{2l}, e^{-l}, e^{-l} of log scale l, made once
    for the samples of one flow time."""
    e2 = exp_f64(2 * log_scale)
    em = exp_f64(-log_scale)
    return e2, em, em


@dataclass(frozen=True)
class ReducedLattice:
    """A reduced basis of a rank-3 lattice, and the one Fincke-Pohst
    enumeration that answers its sup-norm questions: ``points`` within a
    radius, the first ``minimum`` and the ``count`` of nonzero points.

    ``rows`` are the coordinate rows of the reduced basis columns, f64
    (``of``) or integers (``exact``); ``transform`` is the unimodular U with
    reduced = basis . U; (mu, norm2) are their Gram-Schmidt data, norm2
    relative to ``scale2``; ``gram_det`` is the Gram determinant det(L)^2.
    An ``escalated`` lattice holds integer rows, the basis rows scaled by
    ``den``; sup norms are then compared in integers.
    """

    rows: tuple
    transform: list
    mu: list
    norm2: list
    scale2: int
    gram_det: float | int
    den: int = 1
    escalated: bool = False

    @classmethod
    def of(cls, matrix: Matrix3, log_scale: float = 0.0,
           exact: bool = False) -> "ReducedLattice":
        """One reduction of the lattice spanned by the columns of ``matrix``
        (rows of mode scalars), its rows times the f64 values of e^{2l},
        e^{-l}, e^{-l} for l = ``log_scale``: ``lll_reduce`` of the rounded
        products, whose Gram-Schmidt data are handed on, while their f64
        Gram-Schmidt lengths span at most ``GSO_RANGE_CAP``; past that (or
        where they overflow), and always with ``exact``, the integral LLL of
        the unrounded products, scaled to the integer rows and ``den`` that
        ``exact`` makes of them.  The row scales of the last log scale are
        kept, so the samples of one flow time compute them once."""
        scales = _flow_scales(log_scale)
        if not exact:
            (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = matrix
            e2, em, _ = scales
            cols = [[float(a0) * e2, float(a1) * em, float(a2) * em],
                    [float(b0) * e2, float(b1) * em, float(b2) * em],
                    [float(c0) * e2, float(c1) * em, float(c2) * em]]
            gso = _f64_gram_schmidt(cols)
            if gso is not None:
                red, u = lll_reduce(cols, gso)
                _, mu, norm2 = gso
                return cls(tuple(zip(*red)), u, mu, norm2, 1,
                           norm2[0] * norm2[1] * norm2[2])
        if 0.0 in scales:  # a zero row spans no lattice
            raise PrecisionError(
                f"the flow scaling underflows f64 at log scale {log_scale:g}")
        # each product x scale as an integer ratio n / d; over their least
        # common d, divided by the common factor of it and every numerator,
        # they are the integer rows and den that ``exact`` makes of them
        pairs = [(n * sn, d * sd) for row, (sn, sd) in zip(matrix, map(exact_ratio, scales))
                 for n, d in map(exact_ratio, row)]
        den = math.lcm(*(d for _, d in pairs))
        ints = [n * (den // d) for n, d in pairs]
        g = math.gcd(den, *ints)
        return cls._integral([[x // g for x in ints[i:i + 3]] for i in (0, 3, 6)], den // g)

    @classmethod
    def exact(cls, rows) -> "ReducedLattice":
        """Integral LLL of the lattice spanned by the three independent
        columns of the rational n x 3 matrix ``rows`` (``int`` or
        ``Fraction`` entries), scaled to integers by the least common
        denominator ``den`` of its entries; each entry x becomes the integer
        x.numerator * (den // x.denominator), with no ``Fraction`` made."""
        den = math.lcm(*(x.denominator for row in rows for x in row))
        return cls._integral([[x.numerator * (den // x.denominator) for x in row]
                              for row in rows], den)

    @classmethod
    def _integral(cls, rows, den: int) -> "ReducedLattice":
        """Integral LLL of the columns of the integer rows ``rows``, the
        lattice's basis rows times ``den``."""
        red, u, d, lam = lll_reduce_integral(list(zip(*rows)))
        # GSO data relative to |b*_0|^2 = d[1]; every entry is a correctly
        # rounded float of an exact ratio
        mu = [[lam[i][j] / d[j + 1] for j in range(i)] for i in range(3)]
        norm2 = [_clamped_ratio(d[i + 1], d[i] * d[1]) for i in range(3)]
        return cls(tuple(zip(*red)), u, mu, norm2, d[1], d[3], den, escalated=True)

    @property
    def shortest(self):
        """The least sup norm of a reduced column, in the units of ``rows``."""
        return min(max(map(abs, col)) for col in zip(*self.rows))

    def _limit(self, radius):
        # ``radius`` in the units of the scaled ``rows``: an integer norm is
        # at most radius den exactly when it is at most floor(radius den)
        if not self.escalated or radius == math.inf:
            return radius
        n, d = exact_ratio(radius)
        return n * self.den // d

    def _points(self, limit):
        """(norm, x) of every vector, one per +-pair, of sup norm <=
        ``limit`` in the units of ``rows``, x its coefficients w.r.t. the
        reduced basis: the Euclidean ball of radius sqrt(n) limit (inflated
        by 1e-9 against rounding in the float interval bounds) is enumerated
        to exhaustion, within the leaf cap.  Norms are exact for integer rows
        and the f64 evaluation of the reduced columns for f64 rows."""
        rows = self.rows
        bound2 = float(len(rows) * limit * limit / self.scale2) * (1 + 1e-9) ** 2
        for x in _enumerate_half_ball(self.mu, self.norm2, bound2):
            x0, x1, x2 = x
            norm = 0
            for r0, r1, r2 in rows:
                c = abs(r0 * x0 + r1 * x1 + r2 * x2)
                if c > limit:
                    break
                if c > norm:
                    norm = c
            else:
                yield norm, x

    def points(self, radius):
        """Yield the coefficients w.r.t. the basis of every lattice vector,
        one per +-pair, of sup norm <= ``radius``.  Here and in ``minimum``
        and ``count``, radii and norms are in the units of the basis rows
        the lattice was made from."""
        for _, x in self._points(self._limit(radius)):
            yield _transform_apply(self.transform, x)

    def minimum(self, limit):
        """The first sup-norm minimum when it is at most ``limit`` (else
        None), as (norm, coeffs w.r.t. the basis); the norm is a Fraction
        for integer rows.  Among vectors of equal norm it is the
        sign-normalised one (last nonzero coefficient positive) that is
        smallest in lexicographic order read from the last coefficient.
        Certified: every vector within min(``shortest``, ``limit``) of the
        origin is compared."""
        best = None
        for norm, x in self._points(min(self.shortest, self._limit(limit))):
            key = _transform_apply(self.transform, x)[::-1]
            if key < (0, 0, 0):
                key = tuple(-c for c in key)
            if best is None or (norm, key) < best:
                best = (norm, key)
        if best is None:
            return None
        norm = Fraction(best[0], self.den) if self.escalated else best[0]
        return norm, best[1][::-1]

    def count(self, radius) -> int:
        """#{v in L \\ 0 : ||v||_inf <= radius} for a finite radius; for a
        lattice in R^3 it refuses an expected count (2 radius)^3 / det(L)
        above the leaf cap, and names both."""
        limit = self._limit(radius)
        budget = _budget.get()
        ln, ld = exact_ratio(limit)
        # an f64 Gram determinant past the f64 range refuses nothing
        gn, gd = (1, 0) if self.gram_det == math.inf else exact_ratio(self.gram_det)
        # the squared expected count (2 limit)^6 / det(L)^2 is over / under
        over, under = (2 * ln) ** 6 * gd, gn * ld ** 6
        if over <= budget ** 2 * under:
            return 2 * sum(1 for _ in self._points(limit))
        expected = (Decimal(over) / under).sqrt() if under else Decimal("Infinity")
        raise BudgetError(
            "count_points: expected point count exceeds the budget: "
            f"(2r)^3/det(L) = {expected:.4g} against a cap of {budget} points")


def shortest_vector(lat: ReducedLattice) -> ShortVectorResult:
    """The exact sup-norm first minimum of ``lat``, by complete enumeration.

    LLL preprocessing bounds the search; every lattice vector whose sup-norm
    could undercut the shortest reduced column lies in the Euclidean ball of
    radius sqrt(3) times that column's sup norm, and that ball is enumerated
    to exhaustion, so the result is certified.  On an ``escalated`` lattice
    (a bigfloat translate, or f64 GSO lengths spanning more than ~1e12 or past
    the f64 range) lambda1 is the correctly rounded exact minimum.
    """
    norm, coeffs = lat.minimum(math.inf)
    return ShortVectorResult(vector=IntegerVec3(*coeffs), lambda1=float(norm),
                             escalated=lat.escalated)


def count_points(lat: ReducedLattice, r) -> int:
    """#{v in L \\ 0 : ||v||_inf <= r}, by complete enumeration of ``lat``,
    which serves every radius from one reduction.

    Counts are exact and even (the ball is symmetric); an expected count
    (2r)^3 / det(L) or enumeration work beyond the leaf cap raises
    BudgetError.  An escalated lattice is counted exactly.  A radius that is
    not positive and finite is invalid input.
    """
    r = float(r)
    if not 0 < r < math.inf:
        raise InvalidInputError("count radius must be positive and finite")
    return lat.count(r)


def translate_basis(line, s, t) -> ReducedLattice:
    """The reduced lattice g_t phi(s) Z^3: phi(s) in the line's scalars, the
    diagonal flow as the log-scale float t; a bigfloat line's is reduced
    exactly."""
    return ReducedLattice.of(phi(line, s), float(t.t), line.mode.kind == "bigfloat")
