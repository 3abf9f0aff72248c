"""Witness searches and semi-decision procedures for the simultaneous
approximation classes of a pair (a, b), plus the interval machinery that
estimates how often the translated segment re-enters a fixed bounded region.

The classes, for solutions (p1, p2; q) in Z^2 x Z_+:

* W2(C):    |q b + p1| <= C q^-2 and |q a + p2| <= C q^-2,
* W2eps:    the same with bound q^-(2+eps),
* W2inf:    a witness for *every* C > 0 (semi-decided through a descending
            C-list),
* Q^2:      an exact rational certificate (p1, p2, q) with b = p1/q, a = p2/q.

All searches run over exact integers: every supported scalar (Fraction,
float, mpf) is a rational number, so residuals are computed with modular
arithmetic and no rounding.  Searches are bounded by q_max and report
witnesses / non-witnesses up to that bound only; membership language for
irrational inputs must keep that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import BudgetError, InvalidInputError, PrecisionError
from .scalars import F64_MAX_DENOM, IntegerVec3, exact_ratio

DIRICHLET_T_BUDGET = 1000  # default cap on floor(T) in dirichlet_direct


def _ratio_float(n: int, d: int) -> float:
    """n/d as a float, safe for arbitrarily large integers."""
    try:
        return n / d
    except OverflowError:
        shift = max(n.bit_length(), d.bit_length()) - 900
        return (n >> shift) / (d >> shift)


class _ResidualScan:
    """Incremental exact residues of q*a and q*b modulo 1 for q = 1, 2, ...

    Maintains rb = (q * num_b) mod den_b and ra likewise with two integer
    additions per step; the nearest-integer distances are min(r, den - r).
    """

    def __init__(self, a, b):
        self.na, self.da = exact_ratio(a)
        self.nb, self.db = exact_ratio(b)
        self._step_a = self.na % self.da
        self._step_b = self.nb % self.db
        self.da_f = float(self.da) if self.da.bit_length() < 1020 else None
        self.db_f = float(self.db) if self.db.bit_length() < 1020 else None

    def iterate(self, q_max: int):
        ra = 0
        rb = 0
        da, db = self.da, self.db
        sa, sb = self._step_a, self._step_b
        for q in range(1, q_max + 1):
            ra += sa
            if ra >= da:
                ra -= da
            rb += sb
            if rb >= db:
                rb -= db
            yield q, rb, ra

    def dist_floats(self, rb: int, ra: int) -> tuple[float, float]:
        db_f = self.db_f if self.db_f is not None else None
        fb = (min(rb, self.db - rb) / db_f) if db_f else _ratio_float(min(rb, self.db - rb), self.db)
        da_f = self.da_f if self.da_f is not None else None
        fa = (min(ra, self.da - ra) / da_f) if da_f else _ratio_float(min(ra, self.da - ra), self.da)
        return fb, fa

    def nearest_b(self, q: int, rb: int) -> tuple[int, Fraction]:
        """Nearest integer p1 to -q*b and the signed residual q*b + p1."""
        return _nearest_from_residue(q, self.nb, self.db, rb)

    def nearest_a(self, q: int, ra: int) -> tuple[int, Fraction]:
        return _nearest_from_residue(q, self.na, self.da, ra)


def _nearest_from_residue(q: int, num: int, den: int, r: int) -> tuple[int, Fraction]:
    """Given r = (q*num) mod den, the round-half-even nearest integer p to
    -q*num/den and the signed residual q*num/den + p."""
    floor_val = (q * num - r) // den
    if 2 * r < den:
        return -floor_val, Fraction(r, den)
    if 2 * r > den:
        return -(floor_val + 1), Fraction(r - den, den)
    # exact tie: round -q num/den = -(floor + 1/2) to the even neighbour
    if floor_val % 2 == 0:
        return -floor_val, Fraction(r, den)
    return -(floor_val + 1), Fraction(r - den, den)


@dataclass(frozen=True)
class NearestResiduals:
    p1: int
    p2: int
    residual1: Fraction  # |q b + p1|, in [0, 1/2]
    residual2: Fraction  # |q a + p2|


def nearest_residuals(a, b, q: int) -> NearestResiduals:
    """Best single-q approximation: p_i nearest to -q b, -q a (ties to even)."""
    if q < 1:
        raise InvalidInputError("q must be a positive integer")
    scan = _ResidualScan(a, b)
    rb = (q * scan.nb) % scan.db
    ra = (q * scan.na) % scan.da
    p1, res_b = scan.nearest_b(q, rb)
    p2, res_a = scan.nearest_a(q, ra)
    return NearestResiduals(p1=p1, p2=p2, residual1=abs(res_b), residual2=abs(res_a))


@dataclass(frozen=True)
class DiophantineWitness:
    """A solution record for one of the approximation classes."""

    p1: int
    p2: int
    q: int
    residual1: Fraction
    residual2: Fraction
    bound_used: Fraction
    class_tag: str

    def vector(self) -> IntegerVec3:
        return IntegerVec3(self.p1, self.p2, self.q)


def _guard_f64_qmax(a, b, q_max: int):
    # binary doubles stop resolving q*x residuals reliably past |q| ~ 2^20
    if q_max > F64_MAX_DENOM and (isinstance(a, float) or isinstance(b, float)):
        raise PrecisionError(
            f"f64 inputs are only trusted up to q_max = 2^20; "
            f"rerun in bigfloat or rational mode for q_max = {q_max}")


def w2_witness_search(a, b, C, q_max: int) -> list[DiophantineWitness]:
    """All q in [1, q_max] whose nearest residuals satisfy both inequalities
    with the fixed bound C q^-2.  Exhaustive in q; an empty list is a valid
    outcome (bounded search, not a proof of non-membership)."""
    cn, cd = exact_ratio(C)
    if cn <= 0:
        raise InvalidInputError("C must be positive")
    if q_max < 1:
        raise InvalidInputError("q_max must be >= 1")
    _guard_f64_qmax(a, b, q_max)
    scan = _ResidualScan(a, b)
    c_f = _ratio_float(cn, cd)
    hits = []
    for q, rb, ra in scan.iterate(q_max):
        thresh = c_f / (q * q)
        fb, fa = scan.dist_floats(rb, ra)
        if fb > thresh * (1 + 1e-9) or fa > thresh * (1 + 1e-9):
            continue
        # exact confirmation: min(r, den - r) * cd * q^2 <= cn * den
        qq = q * q
        if (min(rb, scan.db - rb) * cd * qq <= cn * scan.db
                and min(ra, scan.da - ra) * cd * qq <= cn * scan.da):
            p1, res_b = scan.nearest_b(q, rb)
            p2, res_a = scan.nearest_a(q, ra)
            hits.append(DiophantineWitness(
                p1=p1, p2=p2, q=q,
                residual1=abs(res_b), residual2=abs(res_a),
                bound_used=Fraction(cn, cd) / qq,
                class_tag=f"W2(C={float(C)!r})"))
    return hits


def _pow_bound_check(r: int, den: int, q: int, two_plus_eps: Fraction) -> bool:
    """Exact-ish test of min-residue r/den <= q^-(2+eps)."""
    if r == 0:
        return True
    if two_plus_eps.denominator == 1:
        k = two_plus_eps.numerator
        return r * q ** k <= den
    # irrational-exponent comparison: logs with a高 precision fallback
    lhs = math.log(r) - math.log(den)
    rhs = -float(two_plus_eps) * math.log(q)
    if abs(lhs - rhs) > 1e-9 * (abs(rhs) + 1):
        return lhs <= rhs
    with mpmath.workprec(300):
        lhs_m = mpmath.log(r) - mpmath.log(den)
        rhs_m = -mpmath.mpf(two_plus_eps.numerator) / two_plus_eps.denominator * mpmath.log(q)
        return lhs_m <= rhs_m


def w2eps_witness_search(a, b, eps, q_max: int) -> list[DiophantineWitness]:
    """Witnesses at quality q^-(2+eps) for q in [1, q_max]."""
    en, ed = exact_ratio(eps)
    if en <= 0:
        raise InvalidInputError("eps must be positive")
    if q_max < 1:
        raise InvalidInputError("q_max must be >= 1")
    _guard_f64_qmax(a, b, q_max)
    two_plus_eps = 2 + Fraction(en, ed)
    exponent = float(two_plus_eps)
    scan = _ResidualScan(a, b)
    hits = []
    for q, rb, ra in scan.iterate(q_max):
        thresh = q ** -exponent
        fb, fa = scan.dist_floats(rb, ra)
        if fb > thresh * (1 + 1e-9) or fa > thresh * (1 + 1e-9):
            continue
        if (_pow_bound_check(min(rb, scan.db - rb), scan.db, q, two_plus_eps)
                and _pow_bound_check(min(ra, scan.da - ra), scan.da, q, two_plus_eps)):
            p1, res_b = scan.nearest_b(q, rb)
            p2, res_a = scan.nearest_a(q, ra)
            hits.append(DiophantineWitness(
                p1=p1, p2=p2, q=q,
                residual1=abs(res_b), residual2=abs(res_a),
                bound_used=Fraction(thresh),
                class_tag=f"W2o(eps={float(eps)!r})"))
    return hits


@dataclass(frozen=True)
class W2InfEntry:
    C: Fraction
    witness: DiophantineWitness | None


def w2inf_profile(a, b, C_list, q_max: int) -> list[W2InfEntry]:
    """Minimal witness per C for a descending list of constants.

    The profile is the artifact's semi-decision for membership in the
    every-C class up to q_max: a witness for each listed C is evidence, a
    gap is only a bounded-search non-result.
    """
    cs = [Fraction(*exact_ratio(C)) for C in C_list]
    if any(c <= 0 for c in cs):
        raise InvalidInputError("C values must be positive")
    if any(cs[i] <= cs[i + 1] for i in range(len(cs) - 1)):
        raise InvalidInputError("C_list must be strictly descending")
    _guard_f64_qmax(a, b, q_max)
    scan = _ResidualScan(a, b)
    found: dict[int, DiophantineWitness] = {}
    c_floats = [_ratio_float(c.numerator, c.denominator) for c in cs]
    pending = list(range(len(cs)))
    for q, rb, ra in scan.iterate(q_max):
        if not pending:
            break
        fb, fa = scan.dist_floats(rb, ra)
        worst = max(fb, fa)
        qq = q * q
        still = []
        for idx in pending:
            if worst > c_floats[idx] / qq * (1 + 1e-9):
                still.append(idx)
                continue
            c = cs[idx]
            if (min(rb, scan.db - rb) * c.denominator * qq <= c.numerator * scan.db
                    and min(ra, scan.da - ra) * c.denominator * qq <= c.numerator * scan.da):
                p1, res_b = scan.nearest_b(q, rb)
                p2, res_a = scan.nearest_a(q, ra)
                found[idx] = DiophantineWitness(
                    p1=p1, p2=p2, q=q,
                    residual1=abs(res_b), residual2=abs(res_a),
                    bound_used=c / qq,
                    class_tag=f"W2inf(C={float(c)!r})")
            else:
                still.append(idx)
        pending = still
    return [W2InfEntry(C=cs[i], witness=found.get(i)) for i in range(len(cs))]


def rational_certificate(a, b) -> IntegerVec3 | None:
    """Exact-rational certificate (p1, p2, q) with b = p1/q and a = p2/q in
    lowest common form; None when the inputs are not exact rationals.

    The vector v = (-p1, -p2, q) kills the s-dependence: phi(s) v has first
    coordinate (b q - p1) + (a q - p2) s = 0 for every s, so the translate
    norm is q e^{-t} and the segment diverges.
    """
    if not all(isinstance(x, (int, Fraction)) for x in (a, b)):
        return None
    a = Fraction(a)
    b = Fraction(b)
    q = math.lcm(a.denominator, b.denominator)
    return IntegerVec3(p1=int(b * q), p2=int(a * q), q=q)


# -- the E_q interval family and I_R density ---------------------------------

@dataclass(frozen=True)
class EqInterval:
    """Open window of flow times that contains every time at which a vector
    (p1, p2, q) with this q stays below the norm threshold R over the
    segment: (log q - log R, -1/2 log<q(b,a)> + 1/2 log R1), clipped to
    [0, inf).  hi is None for an exact rational hit.

    E_q is wider than the vector's true window
    (log(max(|p2|, q) / R), 1/2 log(R / max_i |c0 + c1 s_i|)), with
    c0 = q b + p1 and c1 = q a + p2: its right end comes from the residual
    bound R1 e^{-2t} on max(|c0|, |c1|).  On I = [0, 1] with a = b it runs
    1/2 log 4 past the true window, so the union of the E_q over-covers I_R.
    """

    q: int
    lo: float
    hi: float | None
    rational_hit: bool = False

    def measure_upto(self, T: float) -> float:
        hi = T if self.hi is None else min(self.hi, T)
        return max(0.0, hi - min(self.lo, T))


def sup_operator_norm_R1(line, R: float) -> float:
    """R1 = ||inv([[1, s1], [1, s2]])||_sup * R, the residual threshold that a
    norm bound R over the segment forces on both coordinates."""
    s1 = float(line.s1)
    s2 = float(line.s2)
    return max(abs(s1) + abs(s2), 2.0) / (s2 - s1) * R


def eq_interval(q: int, a, b, R, R1) -> EqInterval | None:
    """The interval E_q, or None when empty.

    Emptiness is decided exactly: E_q is nonempty iff <q(b,a)> < R1 R^2 q^-2,
    where <.> is the sup-norm distance to Z^2 (max of the two coordinate
    distances).
    """
    if q < 1:
        raise InvalidInputError("q must be >= 1")
    r_fr = Fraction(*exact_ratio(R))
    r1_fr = Fraction(*exact_ratio(R1))
    if r_fr < 1 or r1_fr < r_fr:
        raise InvalidInputError("need R >= 1 and R1 >= R")
    scan = _ResidualScan(a, b)
    rb = (q * scan.nb) % scan.db
    ra = (q * scan.na) % scan.da
    dist = max(Fraction(min(rb, scan.db - rb), scan.db),
               Fraction(min(ra, scan.da - ra), scan.da))
    lo = math.log(q) - math.log(float(r_fr))
    if dist == 0:
        return EqInterval(q=q, lo=max(lo, 0.0), hi=None, rational_hit=True)
    if dist * q * q >= r1_fr * r_fr * r_fr:
        return None
    hi = 0.5 * math.log(float(r1_fr)) - 0.5 * (math.log(dist.numerator) - math.log(dist.denominator))
    if hi <= 0.0:
        return None
    return EqInterval(q=q, lo=max(lo, 0.0), hi=hi)


@dataclass(frozen=True)
class DensityProfile:
    """Both estimates of |I_R intersect [0, T]| / T: the union of stored E_q
    (an upper estimate) and direct grid sampling of the segment minimum."""

    R: float
    R1: float
    T: float
    q_max: int
    grid_dt: float
    intervals: tuple
    union_measure: float
    union_density: float
    direct_measure: float
    direct_density: float
    coverage_warning: bool
    rational_hit: bool


def _merged_measure(intervals, T: float) -> float:
    spans = []
    for iv in intervals:
        hi = T if iv.hi is None else min(iv.hi, T)
        lo = min(iv.lo, T)
        if hi > lo:
            spans.append((lo, hi))
    spans.sort()
    total = 0.0
    cur = None
    for lo, hi in spans:
        if cur is None:
            cur = [lo, hi]
        elif lo <= cur[1]:
            cur[1] = max(cur[1], hi)
        else:
            total += cur[1] - cur[0]
            cur = [lo, hi]
    if cur is not None:
        total += cur[1] - cur[0]
    return total


def ir_density(line, R, T, q_max: int, dt: float = 0.01) -> DensityProfile:
    """Estimate the density of return times I_R = {t : some nonzero integer
    vector stays below R along the whole translated segment}.

    Two estimators are recorded: the measure of the union of nonempty E_q
    for q <= q_max (upper estimate, by the containment of I_R in that
    union), and direct sampling of t on a grid of step dt, deciding
    membership through the segment-minimum search restricted to the same
    residual candidates (the necessary conditions that define E_q; see the
    experiments module for the unrestricted search).
    """
    T = float(T)
    if T <= 0:
        raise InvalidInputError("T must be positive")
    if dt > 0.01 + 1e-12:
        raise InvalidInputError("direct sampling requires a grid step <= 0.01")
    R_f = float(R)
    R1_f = sup_operator_norm_R1(line, R_f)
    r_fr = Fraction(*exact_ratio(R))
    r1_fr = Fraction(R1_f)
    if r_fr <= 0:
        raise InvalidInputError("R must be positive")

    scan = _ResidualScan(line.a, line.b)
    intervals = []
    candidates = []  # (q, log q, p1, p2, signed res_b float, signed res_a float)
    rational_hit = False
    for q, rb, ra in scan.iterate(q_max):
        bound_f = R1_f * R_f * R_f / (q * q)
        fb, fa = scan.dist_floats(rb, ra)
        if max(fb, fa) > bound_f * (1 + 1e-9):
            continue
        dist = max(Fraction(min(rb, scan.db - rb), scan.db),
                   Fraction(min(ra, scan.da - ra), scan.da))
        p1, res_b = scan.nearest_b(q, rb)
        p2, res_a = scan.nearest_a(q, ra)
        if dist == 0:
            iv = EqInterval(q=q, lo=max(math.log(q) - math.log(R_f), 0.0),
                            hi=None, rational_hit=True)
            rational_hit = True
        else:
            if dist * q * q >= r1_fr * r_fr * r_fr:
                continue
            hi = 0.5 * math.log(R1_f) - 0.5 * (math.log(dist.numerator) - math.log(dist.denominator))
            if hi <= 0.0:
                continue
            iv = EqInterval(q=q, lo=max(math.log(q) - math.log(R_f), 0.0), hi=hi)
        intervals.append(iv)
        candidates.append((q, math.log(q), p1, p2, float(res_b), float(res_a)))

    union_measure = _merged_measure(intervals, T)

    s1 = float(line.s1)
    s2 = float(line.s2)
    log_r = math.log(R_f)
    n_grid = int(math.floor(T / dt + 1e-9)) + 1
    inside = 0
    for i in range(n_grid):
        t = i * dt
        if _in_ir_at(t, R_f, R1_f, candidates, s1, s2, log_r):
            inside += 1
    direct_measure = inside * dt

    coverage = math.log(q_max) - log_r >= T
    return DensityProfile(
        R=R_f, R1=R1_f, T=T, q_max=q_max, grid_dt=dt,
        intervals=tuple(intervals),
        union_measure=union_measure,
        union_density=union_measure / T,
        direct_measure=direct_measure,
        direct_density=direct_measure / T,
        coverage_warning=not coverage,
        rational_hit=rational_hit,
    )


def _in_ir_at(t, R, R1, candidates, s1, s2, log_r) -> bool:
    """Membership of t in I_R, decided over the residual candidates.

    Sound and complete: a vector with segment sup-norm < R forces
    |q| < R e^t, |q b + p1| <= R1 e^{-2t} and |q a + p2| <= R1 e^{-2t},
    so its q has a nonempty E_q and its p's lie within the scanned window
    around the nearest integers; the q = 0 sheets are checked separately.
    """
    e2t = math.exp(2 * t)
    emt = math.exp(-t)
    # q = 0, p2 = 0 sheet: vector (p1, 0, 0) with |p1| >= 1
    if e2t < R:
        return True
    # q = 0, p2 != 0 sheet
    p2_cap = int(2 * R / (e2t * (s2 - s1))) + 1
    for p2 in range(1, p2_cap + 1):
        if emt * p2 >= R:
            break
        for p1 in _p1_window(p2, s1, s2):
            first = e2t * max(abs(p1 + p2 * s1), abs(p1 + p2 * s2))
            if first < R:
                return True
    # q >= 1 candidates
    w = int(R1 / e2t + 0.5)
    for q, logq, p1n, p2n, res_b, res_a in candidates:
        if logq - log_r >= t:
            continue
        if emt * q >= R:
            continue
        for d2 in range(-w, w + 1):
            p2v = p2n + d2
            if emt * abs(p2v) >= R:
                continue
            ca = res_a + d2
            for d1 in range(-w, w + 1):
                cb = res_b + d1
                first = e2t * max(abs(cb + ca * s1), abs(cb + ca * s2))
                if first < R:
                    return True
    return False


def _p1_window(p2: int, s1: float, s2: float):
    mid = -p2 * (s1 + s2) / 2.0
    base = math.floor(mid)
    return range(base - 1, base + 3)


@dataclass(frozen=True)
class DirichletVerdict:
    T: float
    solvable: bool
    best_q: tuple[int, int]
    best_p: int
    best_residual: float
    bound: float


def dirichlet_direct(x1, x2, delta, T_list,
                     T_budget: int = DIRICHLET_T_BUDGET) -> list[DirichletVerdict]:
    """Brute-force solvability of the improved linear-form system at each T:
    |x . q + p| <= delta T^-2 with 0 < ||q||_inf <= T, p the nearest integer.

    Exhaustive over the (2 floor(T) + 1)^2 - 1 integer pairs.  Quadratic in
    T, so floor(T) beyond ``T_budget`` is refused, for every T before any
    grid is built.
    """
    delta = float(delta)
    if not 0 < delta < 1:
        raise InvalidInputError("delta must satisfy 0 < delta < 1")
    x1 = float(x1)
    x2 = float(x2)
    T_list = [float(T) for T in T_list]
    for T in T_list:
        if T < 1:
            raise InvalidInputError("each T must be >= 1")
        if math.floor(T) > T_budget:
            raise BudgetError(f"dirichlet_direct: T = {T} exceeds the budget {T_budget}")
    out = []
    for T in T_list:
        tb = int(math.floor(T))
        rng = np.arange(-tb, tb + 1)
        q1 = rng[:, None]
        q2 = rng[None, :]
        vals = x1 * q1 + x2 * q2
        dist = np.abs(vals - np.rint(vals))
        dist[tb, tb] = np.inf  # exclude q = 0
        bound = delta * T ** -2
        flat = int(np.argmin(dist))
        i, j = divmod(flat, 2 * tb + 1)
        best = float(dist[i, j])
        bq = (int(rng[i]), int(rng[j]))
        best_p = -int(np.rint(x1 * bq[0] + x2 * bq[1]))
        out.append(DirichletVerdict(
            T=T, solvable=bool(best <= bound),
            best_q=bq, best_p=best_p, best_residual=best, bound=bound))
    return out
