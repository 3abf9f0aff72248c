"""Witness searches and semi-decision procedures for the simultaneous
approximation classes of a pair (a, b), plus the interval machinery that
estimates how often the translated segment re-enters a fixed bounded region.

The classes, for solutions (p1, p2; q) in Z^2 x Z_+:

* W2(C):    |q b + p1| <= C q^-2 and |q a + p2| <= C q^-2,
* W2eps:    the same with bound q^-(2+eps),
* W2inf:    a witness for *every* C > 0 (semi-decided through a descending
            C-list),
* Q^2:      an exact rational certificate (p1, p2, q) with b = p1/q, a = p2/q.

All searches run over exact integers: every supported scalar (Fraction or
float) is a rational number, so residuals are exact Fractions with no
rounding.  Candidates come from Dani's correspondence: the integer vectors
(p1, p2, q) with q in a dyadic block [Q, 2Q) on which two rational linear
forms are at most B are the short vectors of a rank-3 lattice in an axis
box, which the exact sup-norm engine of ``lattice`` enumerates
(``_box_points``).  Every block's box is the coefficient lattice Z^3 under
a new diagonal scaling, so each block's integer rows come straight from the
integer forms, and the last basis reduced starts it: ``box_has_point``
decides in integers from that start whether the box can hold a point, a
block it shows empty yields none, and any other block is reduced from that
start; a block's points are the same whichever reduced basis enumerates
them, but come in no fixed order, and each search sorts what it needs
ordered.  The witness searches and E_q take each candidate and its
residuals q b + p1 and q a + p2 straight from the box; the return windows
of ``ir_density`` take the segment coordinates c0 + c1 s_i, whose q = 0
points are the sheets.  A search therefore costs one exact test per block,
O(log q_max) of them, a lattice reduction per block the test leaves open
and work in proportion to its candidates, not one step per q; each
candidate then passes the exact per-q test of its class.
``dirichlet_direct`` is the same correspondence for the improved Dirichlet
system: each horizon is tested from the last basis reduced, and reduced
from it only where the test leaves it open.  Each block and each Dirichlet
horizon that is reduced is one enumeration under the leaf cap of
``lattice.enumeration_budget``; one the test decides charges no leaf.
Searches are bounded by q_max and report witnesses / non-witnesses up to
that bound only; membership language for irrational inputs must keep that
caveat.
"""

from __future__ import annotations

import decimal
import math
from collections import namedtuple
from fractions import Fraction

from .errors import InvalidInputError, PrecisionError
from .lattice import ReducedLattice, box_has_point, floor_limit, integer_rows
from .scalars import F64_MAX_DENOM, ScalarMode


def _box_points(forms, den: int, bound, q_max: int, block_p2: bool = False):
    """Yield, for each dyadic block [Q, 2Q) of n(v) in turn (n(v) = q, or
    max(|p2|, q) with ``block_p2``), the list of integer vectors
    v = (p1, p2, q), one per +-pair and with q >= 0, such that n(v) is in
    the block (or 0, in the first block), q <= q_max and |f1(v)|, |f2(v)|
    <= B = bound(Q), in no fixed order.  ``forms`` holds the integer
    coefficients F of f1 and f2 on (p1, p2, q) times ``den``, independent
    in (p1, p2).  ``bound`` is called once per block, in order, and returns
    a rational B > 0; None ends the search.

    The box is the unit sup-norm cube of a lattice (Dani's correspondence),
    which ``ReducedLattice.points`` enumerates exactly, within the leaf cap:
    with B = bn / bd and m = min(2Q - 1, q_max), its integer rows over
    L = lcm(den bn, m[, 2Q - 1]) are F bd L / (den bn), L / m on q and, with
    ``block_p2``, L / (2Q - 1) on p2, and the cube is the box of radius L.
    Every block is the lattice Z^3 of coefficients under a new diagonal
    scaling, so the last basis reduced starts each block after the first:
    a block whose start shows the cube empty (``box_has_point`` is False)
    yields [] with no reduction, and keeps that start for the next block;
    any other block is reduced from it.
    """
    Q, start = 1, None
    while (B := bound(Q)) is not None:
        end = 2 * Q - 1
        m = min(end, q_max)
        bn, bd = B.as_integer_ratio()
        L = math.lcm(den * bn, m, end if block_p2 else 1)
        k = bd * (L // (den * bn))
        rows = [[x * k for x in f] for f in forms] + [[0, 0, L // m]]
        if block_p2:
            rows.append([0, L // end, 0])
        block = []
        if start is None or box_has_point(rows, start, L) is not False:
            lattice = ReducedLattice.exact(rows, start=start)
            start = lattice.transform
            for p1, p2, q in lattice.points(L):
                if q < 0:
                    p1, p2, q = -p1, -p2, -q
                n = max(abs(p2), q) if block_p2 else q
                if n >= Q or (n == 0 and Q == 1):
                    block.append((p1, p2, q))
        yield block
        Q *= 2


def _approximations(a, b, bound, q_max: int):
    """Yield (p1, p2, q, |q b + p1|, |q a + p2|), q ascending, for every q in
    [1, q_max] with integers p1, p2 that put both residuals at most
    B = min(bound(Q), 1/2), [Q, 2Q) being the dyadic block of q.  ``bound``
    is called once per block, in order, and must be at least the caller's
    bound at every q of the block; None ends the search.

    These are the ``_box_points`` of the forms q b + p1 and q a + p2, and
    the residuals are exact Fractions of each point.  B <= 1/2 leaves no
    q = 0 point in the box and one point per q, except where a residual is
    exactly 1/2 and both neighbours are in the box; the even one is kept
    (round half to even).
    """
    (nb, db), (na, da) = b.as_integer_ratio(), a.as_integer_ratio()
    forms, den = integer_rows([[(1, 1), (0, 1), (nb, db)], [(0, 1), (1, 1), (na, da)]])
    for block in _box_points(
            forms, den, lambda Q: None if Q > q_max or (B := bound(Q)) is None
            else min(B, Fraction(1, 2)), q_max):
        last = None
        for p1, p2, q in sorted(block, key=lambda v: (v[2], v[0] & 1, v[1] & 1)):
            if q != last:
                last = q
                yield (p1, p2, q, Fraction(abs(q * nb + p1 * db), db),
                       Fraction(abs(q * na + p2 * da), da))


def _check_q_max(a, b, q_max: int):
    if q_max < 1:
        raise InvalidInputError("q_max must be >= 1")
    # binary doubles stop resolving q*x residuals reliably past |q| ~ 2^20
    if q_max > F64_MAX_DENOM and (isinstance(a, float) or isinstance(b, float)):
        raise PrecisionError(
            f"f64 inputs are only trusted up to q_max = 2^20; "
            f"rerun in bigfloat or rational mode for q_max = {q_max}")


def w2_witness_search(a, b, C, q_max: int) -> list[tuple]:
    """All q in [1, q_max] whose nearest residuals satisfy both inequalities
    with the fixed bound C q^-2, as witnesses (p1, p2, q, |q b + p1|,
    |q a + p2|, C q^-2).  Exhaustive in q; an empty list is a valid outcome
    (bounded search, not a proof of non-membership)."""
    c = Fraction(C)
    if c <= 0:
        raise InvalidInputError("C must be positive")
    _check_q_max(a, b, q_max)
    return [(p1, p2, q, r1, r2, bound)
            for p1, p2, q, r1, r2 in _approximations(a, b, lambda Q: c / (Q * Q), q_max)
            if max(r1, r2) <= (bound := c / (q * q))]


def _pow_bound_check(r: Fraction, q: int, two_plus_eps: Fraction) -> bool:
    """r <= q^-(2+eps) for a residual 0 <= r <= 1/2, decided exactly.  With
    r = u/v and 2 + eps = n/d in lowest terms, the test u^d q^n <= v^d is
    out of reach for an f64 eps (0.1 has d = 2^55).  Equality needs u = 1,
    q = w^d and v = w^n, so d < q.bit_length(); otherwise the sign of
    d ln(v/u) - n ln q != 0 is taken from ``decimal``'s correctly rounded ln
    at doubling precision."""
    if r == 0:
        return True
    u, v = r.numerator, r.denominator
    n, d = two_plus_eps.numerator, two_plus_eps.denominator
    bq, bv = q.bit_length(), v.bit_length()
    # the bit lengths of q^n and v^d must agree before either is formed
    if (u == 1 and d < bq and n * (bq - 1) < d * bv and d * (bv - 1) < n * bq
            and q ** n == v ** d):
        return True
    digits = 20
    while True:
        ctx = decimal.Context(prec=digits)
        terms = [c * Fraction(ctx.ln(x)) for c, x in ((d, v), (-d, u), (-n, q))]
        diff = sum(terms)
        # each ln is within a relative 10^(1 - digits), an ulp, of its value
        if abs(diff) * 10 ** (digits - 1) > sum(map(abs, terms)):
            return diff > 0
        digits *= 2


def w2eps_witness_search(a, b, eps, q_max: int) -> list[tuple]:
    """Witnesses at quality q^-(2+eps) for q in [1, q_max], shaped as those
    of ``w2_witness_search``; the bound is the f64 value of q^-(2+eps), the
    test exact."""
    if (eps := Fraction(eps)) <= 0:
        raise InvalidInputError("eps must be positive")
    _check_q_max(a, b, q_max)
    two_plus_eps = 2 + eps
    exponent = float(two_plus_eps)
    # q^-(2+eps) <= Q^-2 on the block of Q
    return [(p1, p2, q, r1, r2, Fraction(q ** -exponent))
            for p1, p2, q, r1, r2 in _approximations(a, b, lambda Q: Fraction(1, Q * Q), q_max)
            if _pow_bound_check(max(r1, r2), q, two_plus_eps)]


# the constant C of a profile and its minimal witness, shaped as those of
# ``w2_witness_search``, or None
W2InfEntry = namedtuple("W2InfEntry", "C witness")


def w2inf_profile(a, b, C_list, q_max: int) -> list[W2InfEntry]:
    """Minimal witness per C for a descending list of constants.

    The profile is the artifact's semi-decision for membership in the
    every-C class up to q_max: a witness for each listed C is evidence, a
    gap is only a bounded-search non-result.
    """
    cs = [Fraction(C) for C in C_list]
    if any(c <= 0 for c in cs):
        raise InvalidInputError("C values must be positive")
    if any(cs[i] <= cs[i + 1] for i in range(len(cs) - 1)):
        raise InvalidInputError("C_list must be strictly descending")
    _check_q_max(a, b, q_max)
    # a witness for C is one for every larger C, so the constants found so
    # far are always cs[:len(found)], and cs[len(found)] bounds the search
    found = []

    def bound(Q):
        return cs[len(found)] / (Q * Q) if len(found) < len(cs) else None

    for p1, p2, q, r1, r2 in _approximations(a, b, bound, q_max):
        while len(found) < len(cs) and max(r1, r2) <= cs[len(found)] / (q * q):
            found.append((p1, p2, q, r1, r2, cs[len(found)] / (q * q)))
    return [W2InfEntry(C=c, witness=found[i] if i < len(found) else None)
            for i, c in enumerate(cs)]


def rational_certificate(a, b, mode: ScalarMode) -> tuple[int, int, int] | None:
    """Exact-rational certificate (p1, p2, q) with b = p1/q and a = p2/q in
    lowest common form; None unless ``mode`` is rational, since the
    scalars of the float modes are roundings of the inputs.

    The vector v = (-p1, -p2, q) kills the s-dependence: phi(s) v has first
    coordinate (b q - p1) + (a q - p2) s = 0 for every s, so the translate
    norm is q e^{-t} and the segment diverges.
    """
    if mode.kind != "rational":
        return None
    a = Fraction(a)
    b = Fraction(b)
    q = math.lcm(a.denominator, b.denominator)
    return int(b * q), int(a * q), q


# -- the E_q interval family and I_R density ---------------------------------

# E_q is the open window of flow times that contains every time at which a
# vector (p1, p2, q) with this q stays below the norm threshold R over the
# segment: (log q - log R, -1/2 log<q(b,a)> + 1/2 log R1), clipped to
# [0, inf); hi is None for an exact rational hit.
#
# E_q is wider than the vector's true window
# (log(max(|p2|, q) / R), 1/2 log(R / max_i |c0 + c1 s_i|)), with
# c0 = q b + p1 and c1 = q a + p2: its right end comes from the residual
# bound R1 e^{-2t} on max(|c0|, |c1|).  On I = [0, 1] with a = b it runs
# 1/2 log 4 past the true window, so the union of the E_q over-covers I_R.


def sup_operator_norm_R1(line, R) -> Fraction:
    """R1 = ||inv([[1, s1], [1, s2]])||_sup * R, the residual threshold that a
    norm bound R over the segment forces on both coordinates; exact, from
    the stored values of s1, s2 and R."""
    s1, s2, r = (Fraction(x) for x in (line.s1, line.s2, R))
    return max(abs(s1) + abs(s2), 2) / (s2 - s1) * r


def _eq_at(q: int, dist: Fraction, log_r: float, half_log_r1: float,
           reach: Fraction) -> dict | None:
    """E_q from the exact sup-norm distance dist = <q(b,a)>, as the
    ``density`` report row {"q", "lo", "hi", "rational_hit"}, or None when
    empty; the caller makes log_r = ln(float(R)), half_log_r1 =
    ln(float(R1)) / 2 and reach = R1 R^2 once for all q.  With q >= 1,
    R1 >= R and dist <= 1/2 (``_approximations``), R1 / dist > 1 / R1^2
    and >= 2 R1, so a nonempty E_q ends past ln(2)/3."""
    lo = max(math.log(q) - log_r, 0.0)
    if dist == 0:
        return {"q": q, "lo": lo, "hi": None, "rational_hit": True}
    if dist * q * q >= reach:
        return None
    hi = half_log_r1 - 0.5 * (math.log(dist.numerator) - math.log(dist.denominator))
    return {"q": q, "lo": lo, "hi": hi, "rational_hit": False}


class DensityProfile(namedtuple("DensityProfile",
                                "R1 intervals union_measure direct_measure coverage_warning")):
    """Both estimates of |I_R intersect [0, T]|: the measure of the union of
    the nonempty E_q (an upper estimate), and that of the grid t = i dt,
    i dt <= T, that lies in I_R, decided from the return windows of the
    vectors with q <= q_max.  ``intervals`` are the E_q rows of ``_eq_at``,
    q ascending; ``coverage_warning`` is set unless ln q_max - ln R >= T, so
    that windows opening before T can be missed."""

    __slots__ = ()


def _union_length(spans):
    """Total length of the union of the intervals (lo, hi) with lo < hi,
    summed over its components from left to right; exact for integer
    spans."""
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(span for span in spans if span[0] < span[1]):
        if cur_hi is not None and lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
            continue
        if cur_hi is not None:
            total += cur_hi - cur_lo
        cur_lo, cur_hi = lo, hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _return_windows(line, R: Fraction, t_max: float, q_max: int):
    """The open windows (lo, hi), as floats, of the nonzero integer vectors
    v = (p1, p2, q), q <= q_max, whose window meets [0, t_max]; their union
    is I_R restricted to q <= q_max (lo = -inf for q = p2 = 0, hi = inf for
    a rational hit).  v stays below R along the whole translated segment
    exactly on (ln(n / R), 1/2 ln(R / m)), n = max(|p2|, q) and
    m = max_i |x_i|, x_i = (q b + p1) + (q a + p2) s_i.  That window meets
    [0, t_max] only if n < R e^{t_max} and m < R min(1, R^2 / n^2): the
    ``_box_points`` of the forms x_1, x_2 in blocks of n, the q = 0 sheets
    included.  Whether it is nonempty and ends after 0 (m < R and
    n^2 m < R^3) is decided in integers.

    Every box point has |x_1|, |x_2| <= R, so (s2 - s1) |q a + p2| =
    |x_2 - x_1| <= 2 R and n <= n_cap = max(q_max, 2 R / (s2 - s1) +
    |a| q_max): the blocks past n_cap are empty, and the search ends there
    whatever t_max is.

    Its forms are ``integer_rows`` of ``line.point`` at s1 and s2, in lowest
    terms: the window ends take the logarithm of their ``den``.
    """
    a, s1, s2 = (Fraction(x) for x in (line.a, line.s1, line.s2))
    n_cap = max(q_max, 2 * R / (s2 - s1) + abs(a) * q_max)
    forms, den = integer_rows([[(1, 1), *line.point(s)] for s in (line.s1, line.s2)])
    (u1, v1, w1), (u2, v2, w2) = forms
    rn, rd = R.numerator, R.denominator
    log_r = math.log(rn) - math.log(rd)
    log_rden = log_r + math.log(den)

    def half_width(Q):
        if math.log(Q) - log_r > t_max + 1e-9 or Q > n_cap:
            return None  # every window of the block opens after t_max, or it is empty
        return R * min(1, R * R / (Q * Q))

    for block in _box_points(forms, den, half_width, q_max, block_p2=True):
        for p1, p2, q in block:
            md = max(abs(u1 * p1 + v1 * p2 + w1 * q), abs(u2 * p1 + v2 * p2 + w2 * q))
            n = max(abs(p2), q)
            if md * rd >= rn * den or n * n * md * rd ** 3 >= rn ** 3 * den:
                continue
            yield (math.log(n) - log_r if n else -math.inf,
                   0.5 * (log_rden - math.log(md)) if md else math.inf)


def ir_density(line, R, T, q_max: int, dt: float = 0.01) -> DensityProfile:
    """Estimate the density of return times I_R = {t : some nonzero integer
    vector stays below R along the whole translated segment}.

    Two measures of I_R on [0, T] are recorded: that of the union of
    nonempty E_q for q <= q_max (upper estimate, by the containment of I_R
    in that union), and dt times the number of grid points t = i dt,
    0 <= i <= T / dt, that lie in I_R restricted to q <= q_max; the caller
    divides by T for densities.  Grid point i lies in the window
    (lo, hi) of ``_return_windows`` iff floor(lo / dt) < i < ceil(hi / dt),
    and the count is that of the union of these index ranges.
    """
    T = float(T)
    if not 0 < T < math.inf:
        raise InvalidInputError("T must be positive and finite")
    if not 0 < dt <= 0.01 + 1e-12:
        raise InvalidInputError("direct sampling requires a grid step in (0, 0.01]")
    if q_max < 1:
        raise InvalidInputError("q_max must be >= 1")
    r = Fraction(R)
    if r <= 0:
        raise InvalidInputError("R must be positive")
    R1 = sup_operator_norm_R1(line, r)
    try:
        R1_f = float(R1)
    except OverflowError:
        raise PrecisionError(
            "R1 = R max(|s1| + |s2|, 2) / (s2 - s1) is past the f64 range; "
            "the interval is too short") from None
    # R <= R1, so float(r) cannot overflow here
    if float(r) == 0:
        raise PrecisionError("R underflows f64 to 0; the E_q windows take its f64 logarithm")

    intervals = []
    # E_q is empty unless <q(b,a)> < R1 R^2 q^-2
    reach = R1 * r * r
    log_r, half_log_r1 = math.log(float(r)), 0.5 * math.log(R1_f)
    for _, _, q, r1, r2 in _approximations(line.a, line.b, lambda Q: reach / (Q * Q), q_max):
        iv = _eq_at(q, max(r1, r2), log_r, half_log_r1, reach)
        if iv is not None:
            intervals.append(iv)
    union_measure = float(_union_length(
        (iv["lo"], T if iv["hi"] is None else min(iv["hi"], T)) for iv in intervals))

    n_grid = int(math.floor(T / dt + 1e-9)) + 1
    inside = _union_length(
        (math.floor(lo / dt) + 1 if lo >= 0 else 0,
         min(math.ceil(hi / dt), n_grid) if hi < math.inf else n_grid)
        for lo, hi in _return_windows(line, r, (n_grid - 1) * dt, q_max))

    return DensityProfile(R1=R1_f, intervals=intervals, union_measure=union_measure,
                          direct_measure=inside * dt,
                          coverage_warning=math.log(q_max) - math.log(float(R)) < T)


def dirichlet_direct(x1, x2, delta, T_list) -> list[bool]:
    """Solvability of the improved linear-form system at each T of T_list:
    |x . q + p| <= delta T^-2 for some p in Z and q in Z^2 with
    0 < ||q||_inf <= T, decided exactly from the stored values of x1, x2,
    delta and T.

    Dani's correspondence: the system is solvable iff the lattice of vectors
    ((T^3 / delta)(x1 q1 + x2 q2 + p), q1, q2) has a nonzero vector of sup
    norm <= T (q = 0 would need |p| T^3 / delta <= T, so p = 0 as well).
    Only the first row changes from one T to the next, by a factor
    (T / T')^3, so the last basis reduced starts each T after the first.
    The rows of each T are scaled to integers once (``integer_rows``):
    ``box_has_point`` of them says solvable where a start column lies
    within T and not where its dual rule holds, and any other T is one
    ``ReducedLattice.exact(...).minimum`` of them started from it, which
    solves the lattice exactly.  The verdict does not depend on the basis.
    """
    x1, x2, d = (Fraction(x) for x in (x1, x2, delta))
    if not 0 < d < 1:
        raise InvalidInputError("delta must satisfy 0 < delta < 1")
    T_list = [float(T) for T in T_list]
    if any(T < 1 for T in T_list):
        raise InvalidInputError("each T must be >= 1")
    out, start = [], None
    for T in T_list:
        k = Fraction(T) ** 3 / d
        rows, den = integer_rows([[x.as_integer_ratio() for x in row] for row in (
            (k * x1, k * x2, k), (1, 0, 0), (0, 1, 0))])
        if start is not None and (
                found := box_has_point(rows, start, floor_limit(T, den))) is not None:
            out.append(found)
            continue
        lat = ReducedLattice.exact(rows, den, start)
        start = lat.transform
        out.append(lat.minimum(T) is not None)
    return out
