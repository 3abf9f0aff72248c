"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Each criterion asserts the claim that the
definitions in the library's docstrings actually give, with the exact
numbers in its docstring.  Two claims were corrected from readings that no
correct program can meet: criterion 3 asserts the minima at
e^t = q C^{-1/3}, where the W2inf construction bounds them by 2 C^{1/3}
(at e^t = q they are 1.998, 2.000 and 1, not decaying); criterion 5 checks
direct sampling against an independent exact I_R measure, and the E_q union
only as the upper estimate it is documented to be.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from latflow import diophantine as dio
from latflow import experiments as exp
from latflow.flow import FlowTime, LineSegmentSpec, segment_sup
from latflow.lattice import (ReducedLattice, lll_reduce, shortest_vector,
                             translate_basis)
from latflow.scalars import F64, RATIONAL, liouville_partial, named_scalar

from util import (brute_force_lambda1, exact_ir_measure, exact_time, ext2_constant,
                  f64_lattice, flow_ext2, random_unimodular_columns, scaled_columns, vandermonde_check)

RATIONAL_LINE = LineSegmentSpec(Fraction(1, 2), Fraction(1, 3),
                                Fraction(0), Fraction(1), RATIONAL)
GENERIC_LINE = LineSegmentSpec(named_scalar("sqrt2", F64), named_scalar("sqrt3", F64),
                               0.0, 1.0, F64)
LAM4 = liouville_partial(4)
LIOUVILLE_LINE = LineSegmentSpec(LAM4, LAM4, Fraction(0), Fraction(1), RATIONAL)

SEED = 1


def _report(num: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_rational_divergence():
    """Certified lambda1 of the rational-line translates is dominated by the
    s-independent witness, and mass fully escapes K_0.2 once 6 e^-t < 0.2."""
    start = time.time()
    failures = []
    for t in range(0, 9):
        bound = 6 * math.exp(-t) + 1e-9
        for j in range(100):
            s = Fraction(j, 99)
            res = shortest_vector(translate_basis(RATIONAL_LINE, s, FlowTime.of(float(t))))
            if res.lambda1 > bound:
                failures.append((t, j, res.lambda1, bound))
    t_min = math.log(30)
    for t in range(0, 9):
        if t < t_min:
            continue
        frac = exp.escape_mass_fraction(RATIONAL_LINE, FlowTime.of(float(t)), 0.2,
                                        100, seed=SEED)
        if frac != 1.0:
            failures.append(("escape", t, frac))
    elapsed = time.time() - start
    ok = not failures and elapsed < 10.0
    _report(1, ok, f"violations={len(failures)} runtime={elapsed:.2f}s (< 10 s)")
    assert not failures, failures[:5]
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10 s"


def test_criterion_2_exterior_square_lower_bound():
    """The segment sup of the exterior-square action dominates C_I e^t for
    every nonzero integer vector: 1000 random w, t in 0..8, I in {[0,1],
    [-1,1]}."""
    start = time.time()
    rng = np.random.default_rng(SEED)
    violations = 0
    for s1, s2 in ((0.0, 1.0), (-1.0, 1.0)):
        line = LineSegmentSpec(GENERIC_LINE.a, GENERIC_LINE.b, s1, s2, F64)
        c_i = float(ext2_constant(line))
        ws = rng.integers(-100, 101, size=(1000, 3))
        for w in ws:
            v = (int(w[0]), int(w[1]), int(w[2]))
            if not any(v):
                continue
            for t in range(0, 9):
                ft = FlowTime.of(float(t))
                sup = max(abs(x) for s in (line.s1, line.s2) for x in flow_ext2(line, s, ft, v))
                if sup < c_i * math.exp(t):
                    violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 5.0
    _report(2, ok, f"violations={violations} runtime={elapsed:.2f}s (< 5 s)")
    assert violations == 0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5 s"


def test_criterion_3_w2inf_construction():
    """Liouville line: every-C witnesses exist up to q_max = 10^6 for
    C_k in {1, 10^-3, 10^-6}, and the translates diverge along the times the
    construction picks.  A witness (p1, p2, q) of W2(C) with |p2| <= q has,
    at e^t = q C^{-1/3} on I = [0, 1], contracted coordinates at most
    C^{1/3} and first coordinate at most e^{2t} 2 C q^-2 = 2 C^{1/3}, so
    the exact segment minimum there is at most 2 C_k^{1/3}: bounds 2, 1/5
    and 1/50, falling by a factor 10 per step.  The profile's witnesses are
    q = 1, p = (0, 0) and twice q = 10^6, p = (-110001, -110001) (residuals
    exactly 10^-18), so e^{t_k} = 1, 10^7, 10^8; the minima there are 1,
    1/10 and 1/50.  (At e^t = q_k itself the contracted coordinate e^-t q_k
    is exactly 1, which floors the minima at 1.998, 2.000 and 1.)"""
    start = time.time()
    cs = [Fraction(1), Fraction(1, 10 ** 3), Fraction(1, 10 ** 6)]
    cube_roots = [Fraction(1), Fraction(1, 10), Fraction(1, 100)]
    assert [r ** 3 for r in cube_roots] == cs
    profile = dio.w2inf_profile(LAM4, LAM4, cs, 10 ** 6)
    witnesses_ok = all(e.witness is not None for e in profile)
    assert witnesses_ok

    values, bounds = [], []
    for entry, root in zip(profile, cube_roots):
        _, p2, q, _, _, _ = entry.witness
        assert abs(p2) <= q  # the construction's hypothesis
        t = exact_time(q / root)
        sm = exp.segment_minimum(LIOUVILLE_LINE, t, 6.0)
        assert sm is not None
        vector, value = sm
        assert isinstance(value, Fraction)  # exact-arithmetic path
        assert value == segment_sup(LIOUVILLE_LINE, t, vector)
        values.append(value)
        bounds.append(2 * root)
    below = all(v <= bd for v, bd in zip(values, bounds))
    elapsed = time.time() - start
    ok = below and elapsed < 60.0
    detail = (f"witnesses={witnesses_ok} minima={[str(v) for v in values]} "
              f"bounds 2 C^(1/3)={[str(bd) for bd in bounds]} "
              f"within-bounds={below} runtime={elapsed:.2f}s (< 60 s)")
    _report(3, ok, detail)
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60 s"
    assert below, (
        "segment minima at e^t_k = q_k C_k^(-1/3) exceed 2 C_k^(1/3): "
        f"minima {[str(v) for v in values]}, bounds {[str(bd) for bd in bounds]}")


def test_criterion_4_vandermonde_bound():
    """Weight-0 grid maximum dominates e^{mt} (C_I m)^-m ||w|| for all tested
    m <= 6, 500 random integer w per m, t in {0, 1, 2}, I = [0, 1]."""
    start = time.time()
    rng = np.random.default_rng(SEED)
    line = LineSegmentSpec(0.0, 0.0, 0.0, 1.0, F64)
    violations = 0
    for m in range(1, 7):
        ws = rng.integers(-50, 51, size=(500, m + 1))
        for w in ws:
            if not w.any():
                continue
            for t in (0.0, 1.0, 2.0):
                chk = vandermonde_check([int(c) for c in w], FlowTime.of(t), line)
                if not chk.passed:
                    violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 5.0
    _report(4, ok, f"violations={violations} runtime={elapsed:.2f}s (< 5 s)")
    assert violations == 0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5 s"


def test_criterion_5_ir_density_dual_oracle():
    """Liouville line, R = 2, T = ln 10^6: both density estimators positive
    and above the construction's lower bound (c2 - c1) eps / (1 + c2 eps)
    with c1 = 0.1, c2 = 0.4, eps = 1; direct sampling within 0.05 of the
    independent exact measure of I_R; and the E_q union, which the code
    documents as an upper estimate, at least that measure.  I_R has four
    components here, [0, 1.10363), (ln 4.5, 2.30304), (ln 50, ln 100) and
    (ln(5 10^5), T], of total 3.28889 (density 0.238057); direct sampling
    gives 0.238138 and the union 0.367386, because each E_q extends
    (1/2) ln 4 past its vector's true window."""
    T_exp = 10 ** 6
    T = math.log(T_exp)
    profile = dio.ir_density(LIOUVILLE_LINE, 2, T, 10 ** 6)
    union = profile.union_measure / T
    direct = profile.direct_measure / T
    exact = exact_ir_measure(LAM4, LAM4, Fraction(0), Fraction(1), Fraction(2),
                             Fraction(T_exp)) / T
    lower = (0.4 - 0.1) * 1 / (1 + 0.4 * 1)
    positive = union > 0 and direct > 0
    meets_lower = union >= lower - 0.05 and direct >= lower - 0.05
    agree = abs(direct - exact) <= 0.05
    contains = union >= exact - 1e-9
    ok = positive and meets_lower and agree and contains
    _report(5, ok, f"union={union:.6f} direct={direct:.6f} exact={exact:.6f} "
                   f"lower={lower:.4f} direct-within-0.05={agree} "
                   f"union>=exact={contains}")
    assert positive
    assert meets_lower, (union, direct, lower)
    assert agree, (
        f"direct {direct:.6f} and the exact I_R density {exact:.6f} differ by "
        f"{abs(direct - exact):.6f} > 0.05")
    assert contains, f"union {union:.6f} below the exact I_R density {exact:.6f}"


@pytest.fixture(scope="module")
def equidist_run():
    t0 = time.time()
    s5 = exp.sample_translate(GENERIC_LINE, FlowTime.of(5.0), 1000, seed=SEED,
                              radii=(1.5,))
    s7 = exp.sample_translate(GENERIC_LINE, FlowTime.of(7.0), 1000, seed=SEED,
                              radii=(1.5,))
    return s5, s7, time.time() - t0


def test_criterion_6_equidistribution_stability_proxy(equidist_run):
    """KS distance between the lambda1 samples at t = 5 and t = 7 stays below
    0.08 and escape at delta = 0.05 below 0.02 (N = 1000, fixed seeds)."""
    s5, s7, elapsed = equidist_run
    ks = exp.ks_distance([row["lambda1"] for row in s5], [row["lambda1"] for row in s7])
    esc5 = sum(1 for row in s5 if row["lambda1"] < 0.05) / len(s5)
    esc7 = sum(1 for row in s7 if row["lambda1"] < 0.05) / len(s7)
    ok = ks <= 0.08 and esc5 <= 0.02 and esc7 <= 0.02 and elapsed < 120.0
    _report(6, ok, f"ks={ks:.4f} escape(t=5)={esc5:.4f} escape(t=7)={esc7:.4f} "
                   f"runtime={elapsed:.2f}s (< 120 s)")
    assert ks <= 0.08
    assert esc5 <= 0.02 and esc7 <= 0.02
    assert elapsed < 120.0


def test_criterion_7_siegel_volume_validation(equidist_run):
    """Mean nonzero-point count in the sup-ball r = 1.5 at t = 7 against the
    volume target (2r)^3 = 27 (external validation; a miss while criterion 6
    passes is flagged for investigation, not failed)."""
    s5, s7, _ = equidist_run
    mean_count = sum(row[exp.count_key(1.5)] for row in s7) / len(s7)
    target = (2 * 1.5) ** 3
    within = abs(mean_count - target) <= 0.15 * target
    ks = exp.ks_distance([row["lambda1"] for row in s5], [row["lambda1"] for row in s7])
    criterion6_passes = ks <= 0.08
    if within:
        _report(7, True, f"mean count={mean_count:.3f} within 15% of {target}")
    elif criterion6_passes:
        _report(7, True, f"mean count={mean_count:.3f} outside 15% of {target}; "
                         "flagged for investigation (criterion 6 passes)")
    else:
        _report(7, False, f"mean count={mean_count:.3f} outside 15% of {target}")
    assert within or criterion6_passes


def test_criterion_8_dani_correspondence():
    """200 probes on (sqrt2, sqrt3): the dynamical verdict against
    K_{delta^{1/3}} agrees with direct solvability of the improved Dirichlet
    system at the exactly-corresponding horizon T = e^t delta^{1/3} on at
    least 95% of probes outside the marginal band |lambda1 - delta^{1/3}| <= 0.02."""
    start = time.time()
    rng = np.random.default_rng(8)
    deltas = (0.3, 0.6, 0.9)
    grid = [0.5 * k for k in range(1, 13)]  # e^t horizon up to t = 6
    agree = considered = 0
    for i in range(200):
        s = float(rng.random())
        delta = deltas[i % 3]
        t = float(grid[int(rng.integers(len(grid)))])
        lam = shortest_vector(translate_basis(GENERIC_LINE, s, FlowTime.of(t))).lambda1
        threshold = delta ** (1 / 3)
        horizon = math.exp(t) * threshold
        if horizon < 1.0:
            continue
        solvable = dio.dirichlet_direct(
            s, float(GENERIC_LINE.a) * s + float(GENERIC_LINE.b), delta,
            [horizon])[0]
        if abs(lam - threshold) <= 0.02:
            continue  # marginal band
        considered += 1
        agree += (lam < threshold) == solvable
    elapsed = time.time() - start
    rate = agree / considered
    ok = rate >= 0.95 and elapsed < 300.0
    _report(8, ok, f"agreement={agree}/{considered}={rate:.3f} "
                   f"runtime={elapsed:.2f}s (< 300 s)")
    assert rate >= 0.95
    assert elapsed < 300.0


def test_criterion_9_enumeration_correctness():
    """Certified shortest vectors match brute force over the coefficient box
    |c_i| <= 25 after LLL, on 200 random unimodular bases (condition <= 1e6)."""
    start = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        cols = random_unimodular_columns(rng, math.log(1e6))
        matrix = tuple(zip(*cols))
        res = shortest_vector(f64_lattice(matrix))
        rows, _, _, _, _ = lll_reduce(scaled_columns(matrix))
        lam_bf, _ = brute_force_lambda1(list(zip(*rows)), box=25)
        rel = abs(res.lambda1 - lam_bf) / lam_bf
        worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(9, ok, f"worst relative gap={worst:.2e} runtime={elapsed:.2f}s (< 30 s)")
    assert worst <= 1e-10
    assert elapsed < 30.0
