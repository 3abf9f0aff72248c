"""Monte-Carlo and grid experiments on the translated segment measures.

The empirical object throughout is the image of N uniform draws s ~ I under
s -> g_t phi(s) Z^3: certified first minima, point counts and escape
fractions, plus the two trajectory-level probes (the first minima along one
orbit, and the exhaustive segment-minimum search that powers the
return-time estimates).  Each lattice search is one enumeration under the
leaf cap of ``lattice.enumeration_budget``.

Reproducibility contract: sample i of an experiment seeded with ``seed``
takes its uniform u from Philox4x64-10 (Salmon et al., SC 2011) keyed by
(seed mod 2^64, i mod 2^64): the first 64-bit word x0 of the block at counter
(1, 0, 0, 0), mapped to u = (x0 >> 11) 2^-53.  That is numpy's
``Generator(Philox(key=[seed, i])).random()`` bit for bit, so samples can be
drawn in any order and a report can be regenerated exactly from its config
echo.
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction

from .errors import InvalidInputError, PrecisionError
# segment_sup is not called here; perfbench's trace hooks wrap it in this module
from .flow import FlowTime, LineSegmentSpec, segment_sup  # noqa: F401
from .lattice import (ReducedLattice, count_points, integer_rows, shortest_vector,
                      translate_basis, translate_reduction, translate_rows)


_MASK64 = (1 << 64) - 1
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # the round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # the Weyl key increments


@lru_cache(maxsize=1)
def _round_keys(seed: int) -> tuple:
    """The k0 of rounds 2 to 10 of Philox4x64-10 keyed by ``seed``, which
    depend on the seed alone: made once for all of a seed's draws."""
    k0 = seed & _MASK64
    return tuple((k0 + r * _W0) & _MASK64 for r in range(1, 10))


def sample_uniform(seed: int, index: int) -> float:
    """The f64 uniform of sample ``index``: Philox4x64-10 with key (k0, k1) =
    (seed, index) mod 2^64 on counter (c0, c1, c2, c3) = (1, 0, 0, 0).  Each
    round multiplies c0 and c2 by ``_M0`` and ``_M1`` into 128-bit products
    (hi0, lo0), (hi1, lo1), sets c = (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1,
    lo0), then adds ``_W0`` and ``_W1`` to the key; u = (c0 >> 11) 2^-53.
    The first round, on c = (1, 0, 0, 0), gives c = (k0, 0, k1, _M0); the
    k0 of the others come from ``_round_keys``."""
    k1 = index & _MASK64
    c0, c1, c2, c3 = seed & _MASK64, 0, k1, _M0
    for k0 in _round_keys(seed):
        k1 = (k1 + _W1) & _MASK64
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
    return (c0 >> 11) * 2.0 ** -53


def count_key(r: float) -> str:
    """The report key of the point count at radius r."""
    return f"count_r{r:g}"


@lru_cache(maxsize=1)
def _draws(line: LineSegmentSpec, N: int, seed: int) -> tuple:
    """The draws s = s1 + u (s2 - s1) of samples 0..N-1 in the line's
    arithmetic, u = ``sample_uniform(seed, i)`` (an exact dyadic), so s
    lies in I in every mode and sample i has the same s at every t and N.
    The last (line, N, seed) is kept, compared by value, so an operation
    that samples at several flow times draws once, exact-mode s included;
    a line holds its mode's scalars, as ``LineSegmentSpec.from_strings``
    makes them."""
    if N < 1:
        raise InvalidInputError("need N >= 1 samples")
    s1, width = line.s1, line.s2 - line.s1
    us = [sample_uniform(seed, i) for i in range(N)]
    if line.mode.kind != "f64":  # in f64, mode.from_fraction(Fraction(u)) is u
        us = [line.mode.from_fraction(Fraction(u)) for u in us]
    return tuple(s1 + u * width for u in us)


def sample_translate(line: LineSegmentSpec, t: FlowTime, N: int, seed: int,
                     radii=()) -> list[dict]:
    """The N i.i.d. uniform draws of ``_draws`` as the ``equidist`` report
    rows: per sample s (as f64), t, the certified first minimum ``lambda1``,
    ``certified``, ``escalated`` and one ``count_key(r)`` per radius, the
    nonzero-point count at r, all from one ``ReducedLattice`` of the
    sample's basis.  Radii are counted in the order given.

    A result computed off the f64 lattice path (every bigfloat sample, and
    bases too skewed for f64) is marked ``escalated``; ``shortest_vector``
    certifies every minimum, so ``certified`` is always true.
    """
    tf = float(t.t)
    counts = [(count_key(r), r) for r in map(float, radii)]
    rows = []
    for s in _draws(line, N, seed):
        lat = translate_basis(line, s, t)
        res = shortest_vector(lat)
        row = {"s": float(s), "t": tf, "lambda1": res.lambda1,
               "certified": True, "escalated": res.escalated}
        for key, r in counts:
            row[key] = count_points(lat, r)
        rows.append(row)
    return rows


def check_delta(delta: float) -> None:
    """Refuse a threshold delta of K_delta outside (0, 1)."""
    if not 0 < delta < 1:
        raise InvalidInputError("delta must satisfy 0 < delta < 1")


def escape_mass_fraction(line: LineSegmentSpec, t: FlowTime, delta: float,
                         N: int, seed: int) -> float:
    """Fraction of the translates of ``sample_translate``'s draws outside
    the compact set K_delta, i.e. with the f64 lambda_1 below delta, asked
    without a lambda_1: ``minimum`` within delta finds the first minimum
    where it is at most delta, and that norm rounded once to f64, as
    lambda_1 is (ties to even), decides the strict test.  An escalated
    translate whose f64 transform shows that it has no point within delta
    (``translate_basis`` within delta gives None) is no hit, and is not
    reduced exactly."""
    check_delta(delta)
    hits = 0
    for s in _draws(line, N, seed):
        lat = translate_basis(line, s, t, delta)
        found = None if lat is None else lat.minimum(delta)
        hits += found is not None and float(found[0]) < delta
    return hits / N


# -- exhaustive segment-minimum search --------------------------------------

def segment_minimum(line: LineSegmentSpec, t: FlowTime, R_cap: float) -> tuple | None:
    """Minimize sup_{s in I} ||g_t phi(s) v||_inf over nonzero integer v,
    reporting (v, value) for the minimizer v = (p1, p2, q) when its value
    is <= R_cap (else None).

    The sup over I is the sup norm of the rank-3 lattice vector

        (E2 (p1 + s1 p2 + (b + a s1) q), E2 (p1 + s2 p2 + (b + a s2) q),
         Em p2, Em q)  in R^4,   E2 = e^{2t}, Em = e^{-t},

    so the minimum is that lattice's first sup-norm minimum.  E2 and Em are
    the values that ``t.factor`` gives, and the ends (s_i, b + a s_i) the
    exact ratios of ``line.point``; all are taken in integers
    (``translate_rows``), so ``ReducedLattice.exact`` solves it exactly;
    ties go to the sign-normalised vector smallest in (q, p2, p1).
    Rows 1, 3 and 4 are those of the translate at s1, so the reduction
    starts from the U of its f64 ``translate_reduction`` where it gives one;
    the minimum does not depend on the start.  The value is that exact
    minimum, ``segment_sup`` of the minimizer, rounded once into the line's
    scalars (exact in rational mode), so at most R_cap too.
    """
    if not 1 <= R_cap < math.inf:
        raise InvalidInputError("R_cap must be finite and >= 1")
    e2, em = t.factor(2, line.mode), t.factor(-1, line.mode)
    if e2 == 0 or em == 0:
        # an f64 e^{2t} (or e^{-t}) that underflows leaves a singular lattice
        raise PrecisionError(f"e^(kt) underflows f64 at t = {t.t:g}")
    ends = [line.point(s) for s in (line.s1, line.s2)]
    reduced = translate_reduction(line.s1, line.a * line.s1 + line.b, t)
    found = ReducedLattice.exact(*integer_rows(translate_rows(e2, em, ends)),
                                 None if reduced is None else reduced[1]).minimum(R_cap)
    return None if found is None else (found[1], line.mode.from_fraction(found[0]))


# -- trajectory probes -------------------------------------------------------

def probe_times(delta: float, t_max: float, dt: float = 0.05) -> list[float]:
    """The grid t = 0, dt, 2 dt, ... <= t_max for ``trajectory_probe``,
    after checking its arguments."""
    check_delta(delta)
    if not 0 < dt <= 0.05 + 1e-12:
        raise InvalidInputError("probe grid step must be in (0, 0.05]")
    if not 0 <= t_max < math.inf:
        raise InvalidInputError("probe horizon must be finite and >= 0")
    return [i * dt for i in range(int(math.floor(t_max / dt + 1e-9)) + 1)]


def trajectory_probe(line: LineSegmentSpec, s, t: float) -> float:
    """The first minimum of g_t phi(s) Z^3 at one flow time t (of a grid
    from ``probe_times``), against which a caller tests membership of the
    Mahler set K_{delta^{1/3}}; ``dirichlet`` asks it only at the times its
    report reads."""
    return shortest_vector(translate_basis(line, s, FlowTime.of(t))).lambda1


def ks_distance(sample_a, sample_b) -> float:
    """Two-sample Kolmogorov-Smirnov statistic of empirical lambda_1 laws.

    The ECDF gap at each pooled point x is an integer h = |i n2 - j n1|
    over n1 n2, with i and j the counts of each sample at most x; the
    result is max h / (n1 n2), correctly rounded, the exact statistic.  One
    merge of the two sorted samples visits the distinct pooled points in
    order, moving i and j past each; once a sample is used up the gap only
    shrinks, so the merge stops there.
    """
    a, b = sorted(map(float, sample_a)), sorted(map(float, sample_b))
    n1, n2 = len(a), len(b)
    if not n1 or not n2:
        raise InvalidInputError("KS distance needs nonempty samples")
    i = j = h = 0
    while i < n1 and j < n2:
        x = a[i] if a[i] <= b[j] else b[j]
        while i < n1 and a[i] <= x:
            i += 1
        while j < n2 and b[j] <= x:
            j += 1
        gap = abs(i * n2 - j * n1)
        if gap > h:
            h = gap
    return h / (n1 * n2)
