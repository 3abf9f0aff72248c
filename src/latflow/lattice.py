"""Shortest vectors and point counts on 3-dimensional unimodular lattices.

This is the artifact's computational proxy for Mahler compactness: lambda_1
(sup-norm) is certified by complete Fincke-Pohst enumeration inside a
Euclidean ball of radius sqrt(3) * (sup-norm of the shortest reduced column).

The norm of record is the supremum norm; the Euclidean ball is only the
enumeration vehicle (in dimension n, ||v||_2 <= sqrt(n) ||v||_inf, so the
inflated ball contains every candidate that could beat the incumbent).

A lattice is one value, ``ReducedLattice``, made by either reduction.
``ReducedLattice.f64`` takes three f64 columns that one ``lll_reduce``
reduced and resolved.  ``ReducedLattice.exact`` takes the rows of a rank-3
lattice in Q^n as integer rows and their denominator, the form
``integer_rows`` makes of ratio rows, and runs the integral LLL (no
rounding anywhere), warm started, if asked, from the transform of a
lattice reduced before.  ``translate_basis`` reduces the basis of
g_t phi(s) Z^3, its rows scaled by the f64 e^{2t} and e^{-t} of
``FlowTime.factor``, rounded to f64 once (``translate_reduction``).
Where f64 resolves it (a spread, the longest column over the least
Gram-Schmidt length, at most ``GSO_RANGE_CAP``) an f64 or rational line
keeps that reduction; otherwise, and for every bigfloat line, the
unrounded rows, built in integers by ``translate_rows``, go to ``exact``,
started from the f64 transform wherever f64 still reduced them (a spread
up to ``SPREAD_CAP`` = 1/u): reducing in floating point and then
finishing exactly (Nguyen and Stehle, SIAM J. Comput. 2009).  A lattice's
``points``, ``minimum`` and ``count`` are one Fincke-Pohst enumeration,
over coefficients in the reduced basis that only ``points`` and
``minimum`` map back through U; they take radii in the rows' own units and
compare candidates in the rows' own arithmetic (f64, or integers).
``shortest_vector`` and ``count_points`` read that value; the exact
reduction also gives the segment minima, the Dirichlet check and the
Diophantine search boxes.  A caller that asks only whether a box holds a
point asks ``box_has_point`` of its start first, of the same integer rows,
and reduces only where that leaves the box undecided; ``floor_limit`` puts
a rational radius into the integer units of both.

The enumeration walks lines: ``_enumerate_half_ball`` yields each run
lo <= x0 <= hi of the innermost coefficient at fixed (x1, x2), and charges
its hi - lo + 1 leaves against the leaf cap.  ``minimum`` tests every leaf
of a line, stopping a leaf's test at the first row past the least norm
found so far.  ``points`` and ``count`` cut each line by the slab in
which each row stays within the radius, as the walk yields it: on integer
rows both read one exact cut, by floor division (``_cut_integral``), and
``points`` takes integer rows only; on f64 rows ``count`` cuts with a
margin of each row's own on each line, proven such that the f64 leaf test
cannot fail inside it and cannot pass outside it, so only the leaves on a
margin are tested.

All functions are pure but for one input: the enumeration leaf cap,
``ENUMERATION_BUDGET`` unless a ``with enumeration_budget(n):`` block sets
it.  ``_enumerate_half_ball`` reads it when an enumeration starts, and
``_refusal`` reads it for the expected-count refusal of ``count``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar
from decimal import Decimal
from fractions import Fraction
from operator import mul

from .errors import BudgetError, InvalidInputError, PrecisionError

LLL_DELTA = 0.99
LLL_DELTA_EXACT = Fraction(str(LLL_DELTA))  # 99/100 for the integral LLL
LLL_ITERATION_CAP = 100_000
GSO_RANGE_CAP = 1e12  # largest column over least GSO length tolerated in f64
_U = 2.0 ** -53  # the unit roundoff of f64
# the spread (the same ratio) past which the rounding of the entries exceeds
# the least GSO length, so that an f64 reduction says nothing of the lattice
SPREAD_CAP = 1 / _U
ENUMERATION_BUDGET = 10_000_000  # Fincke-Pohst leaves per search
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


class ShortVectorResult(namedtuple("ShortVectorResult", "vector lambda1 escalated")):
    """A certified first minimum: ``vector`` holds the integer coefficients
    with respect to the basis columns, ``lambda1`` the sup-norm length;
    ``escalated`` marks a result computed off the f64 path."""

    __slots__ = ()


# -- f64 reduction and the Fincke-Pohst enumeration ------------------------

def lll_reduce(cols):
    """LLL reduction (delta = ``LLL_DELTA``) of three f64 columns, which
    stay unchanged; returns (rows, U, mu, norm2, resolved), or None where
    f64 says nothing of the lattice: a Gram-Schmidt length of the columns
    not in (0, inf), a spread (the longest column over the least
    Gram-Schmidt length) above ``SPREAD_CAP`` = 1/u, past which the rounding
    of the entries exceeds that least length, a Gram-Schmidt length that a
    step of the loop makes non-positive, more than ``LLL_ITERATION_CAP``
    steps, or a Gram-Schmidt value of the reduced columns that is not
    finite.  None is its one refusal; it raises nothing of its own.

    rows are the coordinate rows of the reduced columns, U the integer
    matrix with reduced = basis . U (column convention; only swaps and
    integer column steps change it from I, so det(U) = +-1), and (mu, norm2)
    the Gram-Schmidt data of the reduced columns, mu[i][j] =
    <b_i, b*_j>/<b*_j, b*_j> for j < i and norm2[i] = |b*_i|^2.
    ``resolved`` is whether the spread is at most ``GSO_RANGE_CAP``: the
    rounding of every step scales with the entries, and an enumeration of
    the f64 rows must resolve the least length.  Past that cap the rows are
    not trusted, but U is still a unimodular transform that makes the
    lattice nearly reduced, the start of an exact reduction.  A
    size-reduction pass rounds the mu from before the pass.  Only the rows
    a step changes are recomputed, row 2 (read only at k = 2) once k
    reaches 2, each with the expressions that made it at entry, so the
    result is bit for bit that of a full recompute.

    The rank-3 loop is straight-line code: the columns a, b, c, the columns
    of U, b*_1 = v, b*_2 = w (b*_0 is a), mu and the norms live in local
    scalars, a swap rebinds names, and each row recompute is written out,
    because a Python call per row would cost more than its arithmetic.
    """
    delta, cap, inf = LLL_DELTA, LLL_ITERATION_CAP, math.inf
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = cols
    n0 = a0 * a0 + a1 * a1 + a2 * a2
    if not 0 < n0 < inf:
        return None
    m10 = (b0 * a0 + b1 * a1 + b2 * a2) / n0
    v0, v1, v2 = b0 - m10 * a0, b1 - m10 * a1, b2 - m10 * a2
    n1 = v0 * v0 + v1 * v1 + v2 * v2
    if not 0 < n1 < inf:
        return None
    m20 = (c0 * a0 + c1 * a1 + c2 * a2) / n0
    m21 = (c0 * v0 + c1 * v1 + c2 * v2) / n1
    w0 = c0 - m20 * a0 - m21 * v0
    w1 = c1 - m20 * a1 - m21 * v1
    w2 = c2 - m20 * a2 - m21 * v2
    n2 = w0 * w0 + w1 * w1 + w2 * w2
    longest = max(n0, b0 * b0 + b1 * b1 + b2 * b2, c0 * c0 + c1 * c1 + c2 * c2)
    if not 0 < n2 < inf:
        return None
    spread = (longest / min(n0, n1, n2)) ** 0.5
    if spread > SPREAD_CAP:
        return None
    ua0, ua1, ua2, ub0, ub1, ub2, uc0, uc1, uc2 = 1, 0, 0, 0, 1, 0, 0, 0, 1
    k = 1
    steps = 0
    while k < 3:
        steps += 1
        if steps > cap:
            return None
        if k == 1:
            m = round(m10)
            if m != 0:
                b0, b1, b2 = b0 - m * a0, b1 - m * a1, b2 - m * a2
                ub0, ub1, ub2 = ub0 - m * ua0, ub1 - m * ua1, ub2 - m * ua2
                m10 = (b0 * a0 + b1 * a1 + b2 * a2) / n0
                v0, v1, v2 = b0 - m10 * a0, b1 - m10 * a1, b2 - m10 * a2
                n1 = v0 * v0 + v1 * v1 + v2 * v2
                if n1 <= 0:
                    return None
            if n1 >= (delta - m10 ** 2) * n0:
                k = 2  # row 2, which the steps at k = 1 left stale
                m20 = (c0 * a0 + c1 * a1 + c2 * a2) / n0
                m21 = (c0 * v0 + c1 * v1 + c2 * v2) / n1
                w0 = c0 - m20 * a0 - m21 * v0
                w1 = c1 - m20 * a1 - m21 * v1
                w2 = c2 - m20 * a2 - m21 * v2
                n2 = w0 * w0 + w1 * w1 + w2 * w2
                if n2 <= 0:
                    return None
            else:  # swap a and b; rows 0 and 1 change, row 2 waits
                a0, a1, a2, b0, b1, b2 = b0, b1, b2, a0, a1, a2
                ua0, ua1, ua2, ub0, ub1, ub2 = ub0, ub1, ub2, ua0, ua1, ua2
                n0 = a0 * a0 + a1 * a1 + a2 * a2
                if n0 <= 0:
                    return None
                m10 = (b0 * a0 + b1 * a1 + b2 * a2) / n0
                v0, v1, v2 = b0 - m10 * a0, b1 - m10 * a1, b2 - m10 * a2
                n1 = v0 * v0 + v1 * v1 + v2 * v2
                if n1 <= 0:
                    return None
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
                    return None
            if n2 >= (delta - m21 ** 2) * n1:
                k = 3
            else:  # swap b and c; row 1 changes, row 2 waits
                b0, b1, b2, c0, c1, c2 = c0, c1, c2, b0, b1, b2
                ub0, ub1, ub2, uc0, uc1, uc2 = uc0, uc1, uc2, ub0, ub1, ub2
                m10 = (b0 * a0 + b1 * a1 + b2 * a2) / n0
                v0, v1, v2 = b0 - m10 * a0, b1 - m10 * a1, b2 - m10 * a2
                n1 = v0 * v0 + v1 * v1 + v2 * v2
                if n1 <= 0:
                    return None
                k = 1

    if not all(map(math.isfinite, (n0, n1, n2, m10, m20, m21))):
        return None
    return (((a0, b0, c0), (a1, b1, c1), (a2, b2, c2)),
            [[ua0, ua1, ua2], [ub0, ub1, ub2], [uc0, uc1, uc2]],
            [[0.0, 0.0, 0.0], [m10, 0.0, 0.0], [m20, m21, 0.0]], [n0, n1, n2],
            spread <= GSO_RANGE_CAP)


def _enumerate_half_ball(mu, norm2, bound2):
    """Yield the lines (x1, x2, lo, hi) of the Fincke-Pohst walk of
    ||B x||_2^2 <= bound2 over the Gram-Schmidt data (mu, norm2) of the
    basis B: the leaves x = (x0, x1, x2), lo <= x0 <= hi, of all lines are
    the integer triples x != 0 of the ball, one per +-pair.  A line is
    yielded only if it holds a leaf, and charges its hi - lo + 1 leaves
    against the leaf cap in force when the enumeration starts, before it
    is yielded; a walk past the cap states the leaves charged."""
    budget = _budget.get()
    charged = 0
    n0, n1, n2 = norm2
    m10, m20, m21 = mu[1][0], mu[2][0], mu[2][1]
    sqrt, ceil, floor = math.sqrt, math.ceil, math.floor
    for x2 in range(0, floor(sqrt(bound2 / n2)) + 1):
        r2 = bound2 - x2 * x2 * n2
        if r2 < 0:
            continue
        c1 = m21 * x2
        d0 = m20 * x2
        half1 = sqrt(r2 / n1)
        lo1 = ceil(-half1 - c1)
        # one of each +-pair: the last nonzero coefficient is positive, so
        # x2 = 0 starts x1 at 0 and x1 = x2 = 0 starts x0 at 1
        for x1 in range(lo1 if x2 else max(lo1, 0), floor(half1 - c1) + 1):
            t1 = x1 + c1
            r1 = r2 - t1 * t1 * n1
            if r1 < 0:
                continue
            c0 = m10 * x1 + d0
            half0 = sqrt(r1 / n0)
            lo = ceil(-half0 - c0)
            if not (x1 or x2) and lo < 1:
                lo = 1
            hi = floor(half0 - c0)
            if hi < lo:
                continue
            charged += hi - lo + 1
            if charged > budget:
                raise BudgetError(
                    "lattice enumeration visited more than its budget "
                    f"of {budget} nodes ({charged} leaves charged)")
            yield x1, x2, lo, hi


def _key(u, x) -> tuple:
    """The coefficients w.r.t. the basis of the vector with coefficients x
    in the reduced basis of transform u, sign-normalised (last nonzero one
    positive) and read from the last: ``minimum``'s order among equal
    norms."""
    key = _transform_apply(u, x)[::-1]
    return key if key >= (0, 0, 0) else (-key[0], -key[1], -key[2])


def _transform_apply(u, x):
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = u
    x0, x1, x2 = x
    return (a0 * x0 + b0 * x1 + c0 * x2,
            a1 * x0 + b1 * x1 + c1 * x2,
            a2 * x0 + b2 * x1 + c2 * x2)


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
    columns, which no subcommand builds, and raises ``InvalidInputError``
    when that row is computed.
    """
    dn, dd = LLL_DELTA_EXACT.numerator, LLL_DELTA_EXACT.denominator
    a, b, c = cols
    ua0, ua1, ua2, ub0, ub1, ub2, uc0, uc1, uc2 = 1, 0, 0, 0, 1, 0, 0, 0, 1
    d1 = sum(map(mul, a, a))
    if d1 == 0:
        raise InvalidInputError(_DEPENDENT)
    l10 = sum(map(mul, b, a))
    d2 = d1 * sum(map(mul, b, b)) - l10 * l10
    if d2 == 0:
        raise InvalidInputError(_DEPENDENT)
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
                    raise InvalidInputError(_DEPENDENT)
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


def integer_rows(rows) -> tuple[list, int]:
    """(integer rows, den): the rows of integer ratios (n, d), d > 0, in
    lowest terms, times their least common denominator ``den``, with no
    ``Fraction`` made; the form that ``ReducedLattice.exact`` and
    ``box_has_point`` take."""
    den = math.lcm(*(d for row in rows for _, d in row))
    return [[n * (den // d) for n, d in row] for row in rows], den


def floor_limit(radius, den: int) -> int:
    """floor(radius den), for a finite rational ``radius`` in the units of
    rows scaled to integers by ``den``: an integer norm is at most
    radius den exactly when it is at most this."""
    n, d = radius.as_integer_ratio()
    return n * den // d


def box_has_point(rows, start, limit: int) -> bool | None:
    """Whether the lattice of the integer n x 3 ``rows`` (n >= 3) has a
    nonzero point with every row within the integer ``limit``, decided in
    integers from a unimodular ``start`` (its columns), else None.  True
    when a column of rows . start is one.  False when, M being the first
    three rows of rows . start with columns a, b, c, every row of
    adj(M) = (b x c, c x a, a x b) has limit ||row||_1 < |det M|: a point
    M y in the box then has |y_i| <= limit ||row_i||_1 / |det M| < 1, so
    y = 0."""
    cols = [[r0 * c0 + r1 * c1 + r2 * c2 for r0, r1, r2 in rows] for c0, c1, c2 in start]
    if any(max(map(abs, col)) <= limit for col in cols):
        return True
    a, b, c = cols
    adj = (_cross(b, c), _cross(c, a), _cross(a, b))
    det = abs(sum(map(mul, a, adj[0])))
    if all(limit * sum(map(abs, row)) < det for row in adj):
        return False
    return None


def _cross(u, v):
    # u x v, read from the first three entries of each
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _clamped_ratio(num: int, den: int) -> float:
    # a GSO length ratio past the f64 range only shrinks that level's
    # range to its centre, so clamping keeps the enumeration complete
    try:
        return num / den
    except OverflowError:
        return 1e300


# -- counting a line of the walk at a time (``ReducedLattice.count``) -------

_NORMAL = 2.0 ** -1022  # the least positive normal f64
_ENTRY_RANGE = (2.0 ** -400, 2.0 ** 400)  # nonzero entries the margin covers
_X_RANGE = 2 ** 50  # and coefficients
_FREE = (0.0, 0.0, math.inf, 0.0, 0.0)  # a slab of no row, as wide as the line


def _refusal(limit, gram_det) -> str | None:
    """Why a count within ``limit`` on a lattice of Gram determinant
    ``gram_det`` = det(L)^2 is refused, or None: an expected count
    (2 limit)^3 / det(L) above the leaf cap in force, decided on its square
    in integers (an f64 Gram determinant past the f64 range refuses
    nothing).  A float pre-test lets most counts through at once: with
    u = 2^-53 and 2 limit >= 2^-170, so that no product underflows, the f64
    values of q = (2 limit)^6 / gram_det and of cap^2 (1 - 2^-40) carry
    relative errors of at most 14u and 4u, so a normal q at most the latter,
    when it is finite, is within the cap.  Near the cap, and on overflow,
    underflow, inf or NaN, the integers decide."""
    budget = _budget.get()
    try:
        x, b = 2 * float(limit), float(budget)
        q = x * x * x * x * x * x / float(gram_det)
        if x >= 2.0 ** -170 and _NORMAL <= q <= b * b * (1 - 2.0 ** -40) < math.inf:
            return None
    except (OverflowError, ZeroDivisionError):
        pass
    ln, ld = limit.as_integer_ratio()
    gn, gd = (1, 0) if gram_det == math.inf else gram_det.as_integer_ratio()
    # the squared expected count is over / under
    over, under = (2 * ln) ** 6 * gd, gn * ld ** 6
    if over <= budget ** 2 * under:
        return None
    expected = (Decimal(over) / under).sqrt() if under else Decimal("Infinity")
    return ("count_points: expected point count exceeds the budget: "
            f"(2r)^3/det(L) = {expected:.4g} against a cap of {budget} points")


def _leaf_hits(rows, limit, x1, x2, x0s) -> int:
    """How many x0 of ``x0s`` pass the leaf test on the line (x1, x2): the
    value of every f64 row at the leaf (x0, x1, x2), computed in f64, is at
    most ``limit`` in absolute value."""
    n = 0
    for x0 in x0s:
        for r0, r1, r2 in rows:
            if abs(r0 * x0 + r1 * x1 + r2 * x2) > limit:
                break
        else:
            n += 1
    return n


def _cut_integral(rows, limit, lines):
    """Yield each line (x1, x2, lo, hi) of ``lines`` cut to the leaves within
    the integer ``limit`` of 0 in every integer row, and no line with no
    leaf left: on the line (x1, x2), with s = r1 x1 + r2 x2, a row with
    r0 > 0 (a row is negated to make r0 >= 0) keeps -((limit + s) // r0)
    <= x0 <= (limit - s) // r0, and a row with r0 = 0 keeps the line or
    none of it; the rows after one that leaves no leaf are not read."""
    rows = [row if row[0] >= 0 else [-r for r in row] for row in rows]
    for x1, x2, lo, hi in lines:
        for r0, r1, r2 in rows:
            s = r1 * x1 + r2 * x2
            if r0:
                lo = max(lo, -((limit + s) // r0))
                hi = min(hi, (limit - s) // r0)
                if hi < lo:
                    break
            elif abs(s) > limit:
                break
        else:
            yield x1, x2, lo, hi


def _count_f64(rows, limit, lines) -> int:
    """The leaves of ``lines`` that pass the leaf test (``_leaf_hits``) on
    the f64 ``rows``, cut a line at a time: the x0 inside every row's slab
    moved in by that row's margin on the line are counted whole, those
    outside the slab of the row that sets an inner end moved out by its
    margin are passed over, and only those between take the leaf test (the
    margins and their proof are in ``ReducedLattice.count``).

    The three slabs are cut in straight-line code, as ``lll_reduce`` is
    written, a row with r0 = 0 holding the slab ``_FREE`` that every x0
    passes; X above ``x_cap`` sends the line to the leaf test."""
    small, large = _ENTRY_RANGE
    x_cap = _X_RANGE if small <= limit <= large else -1
    flat, slabs = [], []
    for r0, r1, r2 in rows:
        a, a1, a2 = abs(r0), abs(r1), abs(r2)
        if not ((small <= a1 <= large or not a1) and (small <= a2 <= large or not a2)):
            x_cap = -1
        if not a:
            flat.append((r1, r2))
            continue
        if not small <= a <= large:
            x_cap = -1
        # the row's margin on a line with bound X is X p + q, 16u M
        w = 16 * _U / a
        slabs.append((-r1 / r0, -r2 / r0, limit / a, (a + a1 + a2) * w, limit * w))
    (g1a, g2a, ha, pa, qa), (g1b, g2b, hb, pb, qb), (g1c, g2c, hc, pc, qc) = (
        slabs + [_FREE] * len(flat))
    ceil, floor = math.ceil, math.floor
    n = 0
    for x1, x2, lo, hi in lines:
        if flat and any(abs(r1 * x1 + r2 * x2) > limit for r1, r2 in flat):
            continue
        # X, a bound on |x0|, |x1| and |x2| on the line
        x = (hi if hi > -lo else -lo) + (x1 if x1 > 0 else -x1) + x2
        if x > x_cap:
            n += _leaf_hits(rows, limit, x1, x2, range(lo, hi + 1))
            continue
        # the x0 from pass_lo to pass_hi pass; those below keep_lo fail the
        # row that sets pass_lo, and those above keep_hi the row that sets
        # pass_hi
        c = g1a * x1 + g2a * x2
        w = x * pa + qa
        pass_lo, keep_lo = c - ha + w, c - ha - w
        pass_hi, keep_hi = c + ha - w, c + ha + w
        c = g1b * x1 + g2b * x2
        w = x * pb + qb
        if c - hb + w > pass_lo:
            pass_lo, keep_lo = c - hb + w, c - hb - w
        if c + hb - w < pass_hi:
            pass_hi, keep_hi = c + hb - w, c + hb + w
        c = g1c * x1 + g2c * x2
        w = x * pc + qc
        if c - hc + w > pass_lo:
            pass_lo, keep_lo = c - hc + w, c - hc - w
        if c + hc - w < pass_hi:
            pass_hi, keep_hi = c + hc - w, c + hc + w
        a = ceil(keep_lo)
        if a < lo:
            a = lo
        b = floor(keep_hi)
        if b > hi:
            b = hi
        while a < pass_lo and a <= b:
            n += _leaf_hits(rows, limit, x1, x2, (a,))
            a += 1
        while b > pass_hi and a <= b:
            n += _leaf_hits(rows, limit, x1, x2, (b,))
            b -= 1
        if a <= b:
            n += b - a + 1
    return n


# -- one reduced lattice for both reductions -------------------------------

class ReducedLattice(namedtuple("ReducedLattice",
                                "rows transform mu norm2 scale2 gram_det den escalated",
                                defaults=(1, False))):
    """A reduced basis of a rank-3 lattice, and the one Fincke-Pohst
    enumeration that answers its sup-norm questions: ``points`` within a
    radius, the first ``minimum`` and the ``count`` of nonzero points.

    ``rows`` are the coordinate rows of the reduced basis columns, f64
    (``f64``) or integers (``exact``); ``transform`` is the
    unimodular U with reduced = basis . U; (mu, norm2) are their
    Gram-Schmidt data, norm2 relative to ``scale2``; ``gram_det`` is the
    Gram determinant det(L)^2.  An ``escalated`` lattice holds integer
    rows, the basis rows scaled by ``den``; sup norms are then compared in
    integers.
    """

    __slots__ = ()

    @classmethod
    def f64(cls, reduced) -> "ReducedLattice":
        """The lattice of three f64 columns that ``lll_reduce`` reduced to
        ``reduced`` and resolved: its rows, U and Gram-Schmidt data."""
        rows, u, mu, norm2, _ = reduced
        return cls(rows, u, mu, norm2, 1, norm2[0] * norm2[1] * norm2[2])

    @classmethod
    def exact(cls, rows, den: int = 1, start=None) -> "ReducedLattice":
        """Integral LLL of the lattice spanned by the three independent
        columns of the integer n x 3 matrix ``rows``, the basis rows scaled
        by ``den`` (``integer_rows`` makes both of ratio rows); radii and
        norms stay in the units of the basis rows.

        A ``start`` warm-starts it: given a unimodular U0 in the convention
        of ``transform`` (a list of its columns), at best the ``transform``
        of an f64 reduction of this basis rounded, or of a lattice whose
        basis differs from this one by a mild scaling of its rows, it
        reduces the columns of rows . U0 in place of the basis
        columns and keeps reduced = basis . transform with transform U0 U.
        That is another reduced basis of the same lattice, so the points,
        minima and counts of the enumeration are the same; only the order in
        which ``points`` yields its points may change."""
        red, u, d, lam = lll_reduce_integral(list(zip(*rows)) if start is None else [
            [r0 * c0 + r1 * c1 + r2 * c2 for r0, r1, r2 in rows] for c0, c1, c2 in start])
        if start is not None:
            u = [_transform_apply(start, col) for col in u]
        # GSO data relative to |b*_0|^2 = d1, mu_ij = lam_ij / d_{j+1} and
        # |b*_i|^2 = d_{i+1} / d_i: each a correctly rounded float of an exact ratio
        _, d1, d2, d3 = d
        (l10, _, _), (l20, l21, _) = lam[1], lam[2]
        mu = [[], [l10 / d1], [l20 / d1, l21 / d2]]
        norm2 = [1.0, _clamped_ratio(d2, d1 * d1), _clamped_ratio(d3, d2 * d1)]
        return cls(tuple(zip(*red)), u, mu, norm2, d1, d3, den, escalated=True)

    @property
    def shortest(self):
        """The least sup norm of a reduced column, in the units of ``rows``."""
        return min(max(map(abs, col)) for col in zip(*self.rows))

    def _limit(self, radius):
        # ``radius``, in the units of the basis rows, as a limit on ``rows``
        if not self.escalated or radius == math.inf:
            return radius
        return floor_limit(radius, self.den)

    def _lines(self, limit):
        """The lines of the walk of the Euclidean ball of radius sqrt(n)
        ``limit`` (inflated by 1e-9 against rounding in the float interval
        bounds), which holds every vector of sup norm <= ``limit``.  A
        squared radius past the f64 range cannot be walked and raises
        PrecisionError; on integer rows, where |b*_0| is the unit of
        ``scale2``, the line x1 = x2 = 0 alone then holds more than 10^154
        leaves, so a leaf cap below that raises BudgetError instead."""
        try:
            bound2 = float(len(self.rows) * limit * limit / self.scale2) * (1 + 1e-9) ** 2
        except OverflowError:  # an integer ratio past the f64 range
            bound2 = math.inf
        if bound2 == math.inf:
            budget = _budget.get()
            if self.escalated and budget < 10 ** 154:
                raise BudgetError("lattice enumeration visited more than its budget "
                                  f"of {budget} nodes (over 10^154 leaves charged)")
            raise PrecisionError("the enumeration radius is past the f64 range")
        return _enumerate_half_ball(self.mu, self.norm2, bound2)

    def points(self, radius):
        """Yield the coefficients w.r.t. the basis of every vector of an
        exact lattice (integer rows), one per +-pair, of sup norm <=
        ``radius``: each line of the walk, within the leaf cap, cut exactly
        to the slab of every row by ``count``'s integer cut, leaf by leaf
        in the walk's order.  Here and in ``minimum`` and ``count``, radii
        and norms are in the units of the basis rows the lattice was made
        from."""
        limit, u = self._limit(radius), self.transform
        for x1, x2, lo, hi in _cut_integral(self.rows, limit, self._lines(limit)):
            for x0 in range(lo, hi + 1):
                yield _transform_apply(u, (x0, x1, x2))

    def minimum(self, limit):
        """The first sup-norm minimum when it is at most ``limit`` (else
        None), as (norm, coeffs w.r.t. the basis); the norm is a Fraction
        for integer rows.  Among vectors of equal norm it is the
        sign-normalised one (last nonzero coefficient positive) that is
        smallest in lexicographic order read from the last coefficient.
        Certified: the walk within min(``shortest``, ``limit``) of the
        origin passes every vector of that sup norm to the leaf test.  The
        test stops a leaf at the first row whose value is past the least norm
        found so far, as no such leaf can win; norms are the rows' values at
        the leaf, f64 or exact."""
        rows, u = self.rows, self.transform
        bound = limit = min(self.shortest, self._limit(limit))
        best = None
        for x1, x2, lo, hi in self._lines(limit):
            for x0 in range(lo, hi + 1):
                norm = 0
                for r0, r1, r2 in rows:
                    c = abs(r0 * x0 + r1 * x1 + r2 * x2)
                    if c > bound:
                        break
                    if c > norm:
                        norm = c
                else:
                    # a leaf past the test has norm <= bound, the least so far
                    if (best is None or norm < bound
                            or _key(u, (x0, x1, x2)) < _key(u, best)):
                        best, bound = (x0, x1, x2), norm
        if best is None:
            return None
        norm = Fraction(bound, self.den) if self.escalated else bound
        return norm, _key(u, best)[::-1]

    def count(self, radius) -> int:
        """#{v in L \\ 0 : ||v||_inf <= radius} for a finite radius; for a
        lattice in R^3 it refuses an expected count (2 radius)^3 / det(L)
        above the leaf cap, and names both.  It overrides ``tuple.count`` on
        purpose: a lattice is a tuple of its fields only to be an immutable
        value, and no caller counts its fields.

        It is twice the number of leaves of the walk whose every row is
        within the limit, counted a line of the walk at a time; every line
        is charged in full against the leaf cap, as ``points`` charges it.
        On the line (x1, x2), a row (r0, r1, r2) has the value r0 x0 + s,
        s = r1 x1 + r2 x2, within L = limit exactly on the slab
        |x0 - c| <= h about c = g1 x1 + g2 x2, g_j = -r_j / r0, of
        half-width h = L / |r0|.  A row with r0 = 0 is tested once per
        line.  Integer rows cut each line exactly, by floor division, in
        the cut that ``points`` reads (``_cut_integral``); f64 rows count
        the leaves that pass the f64 leaf test (``_leaf_hits``).

        For f64 rows each line is cut by every row j with r0 != 0 at the
        ends A_j = fl(C_j - H_j) and B_j = fl(C_j + H_j) of its computed
        slab, with a margin W_j = 16u M_j of its own on that line, where
        u = 2^-53, M_j = X + (|r1| X + |r2| X + L) / |r0| and
        X = max(|lo|, |hi|) + |x1| + x2 bounds |x0|, |x1| and |x2| on the
        line.  The x0 with max_j fl(A_j + W_j) <= x0 <= min_j fl(B_j - W_j)
        pass the leaf test and are counted whole; with i a row that gives
        the first of these ends and k one that gives the second, the x0
        below fl(A_i - W_i) fail row i and those above fl(B_k + W_k) fail
        row k; only the x0 between take the leaf test.  Proof, for one row
        on one line, writing A, B, W and M for its A_j, B_j, W_j and M_j,
        each rounding a factor 1 + d with |d| <= u, and S = |r1| X + |r2| X:
        - The leaf test evaluates V = fl(fl(fl(r0 x0) + fl(r1 x1)) +
          fl(r2 x2)) and passes iff |V| <= L.  The dot-product error bound
          gives |V - r0 (x0 - c)| <= g3 (|r0| X + S), g3 = 3u / (1 - 3u), so
          the row passes where |x0 - c| <= h - e and fails where
          |x0 - c| > h + e, e = g3 (X + S / |r0|) <= 3.01u M.
        - C = fl(fl(G1 x1) + fl(G2 x2)), G_i = fl(-r_i / r0), is within
          g3 S / |r0| of c, and H = fl(L / |r0|) (L rounded to f64 first if
          it is not a float) within 2.01u h of h; so A and B are within
          4.02u M of c - h and c + h, and at most 1.01 M in absolute value.
        - An x0 >= fl(A + W) has x0 >= A + W - u (|A| + W), so
          x0 - (c - h) >= W (1 - u) - 5.03u M >= e once
          W (1 - u) >= 8.04u M; likewise (c + h) - x0 >= e for
          x0 <= fl(B - W).  An x0 < fl(A - W) has x0 < A - W + u (|A| + W),
          so (c - h) - x0 > e under the same condition, and the row fails;
          likewise for x0 > fl(B + W).
        - The computed W, at least 15.9u M, meets the condition with room.
        A row with r0 = 0 has V = fl(fl(r1 x1) + fl(r2 x2)) at every x0, as
        fl(r0 x0) = +-0 adds nothing.  The bound needs no underflow or
        overflow, which holds when L and every entry of the rows lie in
        {0} U [2^-400, 2^400] and X <= 2^50; otherwise every leaf of the
        line, or of every line when L or an entry is out of that range,
        takes the leaf test.
        """
        limit = self._limit(radius)
        if (refusal := _refusal(limit, self.gram_det)) is not None:
            raise BudgetError(refusal)
        lines = self._lines(limit)
        if self.escalated:
            return 2 * sum(hi - lo + 1 for _, _, lo, hi in _cut_integral(self.rows, limit, lines))
        return 2 * _count_f64(self.rows, limit, lines)


def shortest_vector(lat: ReducedLattice) -> ShortVectorResult:
    """The exact sup-norm first minimum of ``lat``, by complete enumeration.

    LLL preprocessing bounds the search; every lattice vector whose sup-norm
    could undercut the shortest reduced column lies in the Euclidean ball of
    radius sqrt(3) times that column's sup norm, and that ball is enumerated
    to exhaustion, so the result is certified.  On an ``escalated`` lattice
    (a bigfloat translate, or a basis that f64 does not resolve) lambda1 is
    the correctly rounded exact minimum.
    """
    norm, coeffs = lat.minimum(math.inf)
    return ShortVectorResult(vector=coeffs, lambda1=float(norm), escalated=lat.escalated)


def count_points(lat: ReducedLattice, r) -> int:
    """#{v in L \\ 0 : ||v||_inf <= r}, by complete enumeration of ``lat``,
    which serves every radius from one reduction.

    Counts are exact and even (the ball is symmetric): they are the
    points that the f64 leaf test accepts, or, on an escalated lattice,
    the points of ``points``, counted a line of the walk at a time.  An expected
    count (2r)^3 / det(L) beyond the leaf cap raises BudgetError, and so do
    lines that charge more leaves than the cap, though most leaves of a
    line are never visited.  A radius that is not positive and finite is
    invalid input.
    """
    r = float(r)
    if not 0 < r < math.inf:
        raise InvalidInputError("count radius must be positive and finite")
    return lat.count(r)


def translate_reduction(s, x, t):
    """``lll_reduce`` of the f64 columns (e2, 0, 0), (e2 s, em, 0) and
    (e2 x, 0, em) of g_t phi(s) Z^3, x = a s + b, with s and x rounded to
    f64 and e2, em the f64 row scales ``t.factor(2)``, ``t.factor(-1)`` of
    the ``FlowTime`` t; None where it refuses them and where e2, s, x or a
    step of the reduction overflows f64."""
    try:
        e2, em = t.factor(2), t.factor(-1)
        return lll_reduce([[e2, 0.0, 0.0], [float(s) * e2, em, 0.0],
                           [float(x) * e2, 0.0, em]])
    except (OverflowError, PrecisionError):
        return None


def translate_rows(e2, em, points) -> list:
    """The rows (e2, e2 s, e2 x), one for each (s, x) of ``points``, then
    (0, em, 0) and (0, 0, em), as ratios in lowest terms for
    ``integer_rows``: e2 and em are numbers, s and x ratios (n, d), d > 0,
    in any terms, and each product takes one gcd.  One point gives the
    basis rows of g_t phi(s) Z^3; ``segment_minimum`` gives the ends of its
    segment."""
    (en, ed), em = e2.as_integer_ratio(), em.as_integer_ratio()
    rows = []
    for (sn, sd), (xn, xd) in points:
        sn, sd, xn, xd = en * sn, ed * sd, en * xn, ed * xd
        g, h = math.gcd(sn, sd), math.gcd(xn, xd)
        rows.append([(en, ed), (sn // g, sd // g), (xn // h, xd // h)])
    return rows + [[(0, 1), em, (0, 1)], [(0, 1), (0, 1), em]]


def translate_basis(line, s, t, within=None) -> ReducedLattice | None:
    """The reduced lattice g_t phi(s) Z^3 at the ``FlowTime`` t: the lattice
    of the columns (e2, 0, 0), (e2 s, em, 0) and (e2 x, 0, em), with
    x = a s + b in the line's scalars and e2, em the f64 row scales
    ``t.factor(2)``, ``t.factor(-1)``.  Every line's columns, rounded to
    f64, take one ``translate_reduction``; an f64 or rational line whose
    columns it resolves gets ``ReducedLattice.f64`` of it.  Every other
    translate gets ``ReducedLattice.exact`` of the unrounded rows, built in
    integers by ``translate_rows`` and scaled once by ``integer_rows``,
    started from the f64 U where there is one: the same lattice, minimum
    and counts.

    Given a radius ``within``, it is None where ``box_has_point`` of the
    f64 U shows no nonzero point within it, and no exact reduction runs."""
    x = line.a * s + line.b
    reduced = translate_reduction(s, x, t)
    if reduced is not None and reduced[4] and line.mode.kind != "bigfloat":
        return ReducedLattice.f64(reduced)
    e2, em = t.factor(2), t.factor(-1)
    if 0.0 in (e2, em):  # a zero row spans no lattice
        raise PrecisionError(f"the flow scaling underflows f64 at log scale {t.t:g}")
    rows, den = integer_rows(
        translate_rows(e2, em, [(s.as_integer_ratio(), x.as_integer_ratio())]))
    start = None if reduced is None else reduced[1]
    if (start is not None and within is not None
            and box_has_point(rows, start, floor_limit(within, den)) is False):
        return None
    return ReducedLattice.exact(rows, den, start)
