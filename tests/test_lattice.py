import inspect
import linecache
import math
import time
import traceback
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latflow import diophantine, experiments, lattice
from latflow.errors import BudgetError, InvalidInputError, PrecisionError
from latflow.experiments import sample_uniform
from latflow.flow import FlowTime, LineSegmentSpec, segment_sup
from latflow.lattice import (
    ENUMERATION_BUDGET,
    ReducedLattice,
    count_points,
    enumeration_budget,
    lll_reduce,
    lll_reduce_integral,
    shortest_vector,
    translate_basis,
)
from latflow.scalars import F64, RATIONAL, bigfloat, named_scalar

from util import (brute_force_count, brute_force_lambda1, count_leaf_by_leaf,
                  count_points_f64, count_points_mp, count_refused, exact_scaled_rows,
                  f64_lattice, from_int, gram_schmidt_full, integer_scaled, lll_reduce_full,
                  lll_reduce_integral_cohen, mat_det, phi, points_leaf_by_leaf,
                  random_unimodular_columns, scaled_columns, shortest_vector_f64,
                  shortest_vector_mp)

RATIONAL_LINE = LineSegmentSpec(Fraction(1, 2), Fraction(1, 3),
                                Fraction(0), Fraction(1), RATIONAL)
GENERIC_LINE = LineSegmentSpec(named_scalar("sqrt2", F64), named_scalar("sqrt3", F64),
                               0.0, 1.0, F64)
IDENTITY = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _rows_of(cols):
    """The row matrix whose columns are ``cols``."""
    return tuple(zip(*cols))


def _det(u):
    return (u[0][0] * (u[1][1] * u[2][2] - u[1][2] * u[2][1])
            - u[1][0] * (u[0][1] * u[2][2] - u[0][2] * u[2][1])
            + u[2][0] * (u[0][1] * u[1][2] - u[0][2] * u[1][1]))


def _lll(matrix, log_scale=0.0):
    """The reduced columns and U of the f64 reduction of ``matrix``."""
    rows, u, _, _, _ = lll_reduce(scaled_columns(matrix, log_scale))
    return [list(col) for col in zip(*rows)], u


def test_lll_identity_unchanged():
    cols, u = _lll(IDENTITY)
    assert cols == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    assert u == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_lll_shrinks_translate_basis():
    basis = phi(RATIONAL_LINE, Fraction(1, 3)), 6.0
    raw_cols = scaled_columns(*basis)
    red_cols, u = _lll(*basis)
    max_before = max(max(abs(x) for x in c) for c in raw_cols)
    max_after = max(max(abs(x) for x in c) for c in red_cols)
    assert max_after < max_before


def test_lll_transform_unimodular_on_random_bases():
    rng = np.random.default_rng(42)
    for _ in range(100):
        cols = random_unimodular_columns(rng, math.log(1e6))
        red, u = _lll(_rows_of(cols))
        assert _det(u) in (1, -1)
        # reduced columns really are basis . u
        base = np.array(cols, dtype=float).T
        for j in range(3):
            want = base @ np.array(u[j], dtype=float)
            assert np.allclose(want, red[j], rtol=1e-9, atol=1e-12)


def test_lll_lambda1_invariance():
    rng = np.random.default_rng(7)
    for _ in range(25):
        cols = random_unimodular_columns(rng, math.log(1e4))
        lam_before = shortest_vector(f64_lattice(_rows_of(cols))).lambda1
        red, _ = _lll(_rows_of(cols))
        lam_after = shortest_vector(f64_lattice(_rows_of(red))).lambda1
        assert lam_after == pytest.approx(lam_before, rel=1e-10)


def _f64_spread(cols):
    """The spread of ``cols`` that the f64 entry test weighs: the longest
    column over the least Gram-Schmidt length (by the full recompute), or
    inf where a Gram-Schmidt length is not in (0, inf)."""
    try:
        _, _, norm2 = gram_schmidt_full(cols)
    except InvalidInputError:
        return math.inf
    if not all(0 < n < math.inf for n in norm2):
        return math.inf
    longest = max(sum(x * x for x in col) for col in cols)
    return (longest / min(norm2)) ** 0.5


def _f64_refused(cols):
    """Whether f64 leaves ``cols`` unresolved: a spread above GSO_RANGE_CAP."""
    return _f64_spread(cols) > lattice.GSO_RANGE_CAP


def _reduction_or_error(reduce, cols):
    """``reduce(cols)``, OverflowError where it raises that, and None where
    it meets singular columns (the full-recompute oracle raises
    InvalidInputError there, and ``lll_reduce`` returns None)."""
    try:
        return reduce(cols)
    except OverflowError:
        return OverflowError
    except InvalidInputError:
        return None


def _assert_same_reduction(cols):
    """``lll_reduce(cols)`` against the full-recompute oracles: None where
    the spread of the columns is past SPREAD_CAP = 2^53 or the reduced
    Gram-Schmidt data are not finite, else bit for bit the oracle's reduced
    rows, U and Gram-Schmidt data (the row-wise updates evaluate the same
    expressions as a full recompute), with ``resolved`` true exactly when
    the spread is at most GSO_RANGE_CAP; OverflowError where a step
    overflows, and None where a step meets singular columns.  ``cols`` is
    left as it was."""
    before = [list(col) for col in cols]
    got = _reduction_or_error(lll_reduce, cols)
    assert cols == before
    spread = _f64_spread(cols)
    if spread > 2.0 ** 53:
        assert got is None
        return
    want = _reduction_or_error(lll_reduce_full, cols)
    if want is None or want is OverflowError:
        assert got is want
        return
    red, u = want
    _, mu, norm2 = gram_schmidt_full(red)
    if not all(map(math.isfinite, norm2 + mu[1] + mu[2])):
        assert got is None
        return
    assert got == (_rows_of(red), u, mu, norm2, spread <= lattice.GSO_RANGE_CAP)
    assert _det(u) in (1, -1)


def test_gram_schmidt_identity():
    cols = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    _assert_same_reduction(cols)
    _, _, mu, norm2, _ = lll_reduce(cols)
    assert norm2 == [1.0, 1.0, 1.0]
    assert all(mu[i][j] == 0 for i in range(3) for j in range(i))


def test_gram_schmidt_unipotent_columns():
    # phi(s)-style shear: GSO lengths stay 1
    s, c = 0.7, 1.9
    cols = [[1.0, 0.0, 0.0], [s, 1.0, 0.0], [c, 0.0, 1.0]]
    _assert_same_reduction(cols)
    _, _, _, norm2, _ = lll_reduce(cols)
    assert norm2 == pytest.approx([1.0, 1.0, 1.0], rel=1e-12)


def test_gram_schmidt_orthogonal_diagonal():
    e2, em = math.exp(2), math.exp(-1)
    cols = [[e2, 0.0, 0.0], [0.0, em, 0.0], [0.0, 0.0, em]]
    _assert_same_reduction(cols)
    # the reduced columns come back shortest first
    _, _, _, norm2, _ = lll_reduce(cols)
    assert norm2 == pytest.approx([em ** 2, em ** 2, e2 ** 2], rel=1e-12)


# |a|, |b|, |s| up to 10^3 and t up to 9.1 make both size-reduction
# multipliers at k = 2 nonzero in most examples (and the longest columns
# refused past t = 9.21 - ln max(1, |s|, |a s + b|) / 3)
_wide = st.floats(-1e3, 1e3, allow_nan=False)
_SQRT2, _SQRT3 = math.sqrt(2), math.sqrt(3)


def _f64_translate_columns(a, b, s, t):
    return scaled_columns(phi(LineSegmentSpec(a, b, -1.0, 1.0, F64), s), t)


@settings(max_examples=150, deadline=None)
@given(a=_wide, b=_wide, s=_wide, t=st.floats(0.0, 9.1))
# the flow times the equidist benchmark samples, and t = 8.9, where the f64
# columns of the README pair at s = 0.3 are still short enough (|a s + b| =
# 2.16 moves the cap from t = 9.21 to 8.95)
@example(a=_SQRT2, b=_SQRT3, s=0.3, t=3.0)
@example(a=_SQRT2, b=_SQRT3, s=0.3, t=5.0)
@example(a=_SQRT2, b=_SQRT3, s=0.3, t=6.5)
@example(a=_SQRT2, b=_SQRT3, s=0.3, t=8.0)
@example(a=_SQRT2, b=_SQRT3, s=0.3, t=8.9)
def test_lll_reduce_matches_full_recompute_on_translates(a, b, s, t):
    _assert_same_reduction(_f64_translate_columns(a, b, s, t))


_huge = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(a=_huge, b=_huge, s=_huge, t=st.floats(9.0, 12.5))
# columns over the least GSO length about e^{3t} max(1, |s|, |a s + b|),
# near GSO_RANGE_CAP at t = 9.2 and near SPREAD_CAP = 2^53 at t = 12.25
# where that maximum is 1
@example(a=_SQRT2, b=_SQRT3, s=0.3, t=9.1)
@example(a=_SQRT2, b=_SQRT3, s=0.3, t=9.3)
@example(a=0.3, b=0.2, s=0.5, t=9.2)
@example(a=_SQRT2, b=_SQRT3, s=0.3, t=11.5)
@example(a=0.3, b=0.2, s=0.5, t=12.24)
@example(a=0.3, b=0.2, s=0.5, t=12.25)
# a first column of length e^2 whose second and third lengths are NaN
@example(a=1.0, b=1.0, s=1e308, t=1.0)
# columns whose squared length overflows, which a size reduction by a
# multiplier near 10^289 would leave with an infinite reduced n2
@example(a=-2e219, b=-2e289, s=0.6386839963153215, t=1.0)
def test_lll_reduce_refuses_exactly_where_f64_fails(a, b, s, t):
    _assert_same_reduction(_f64_translate_columns(a, b, s, t))


@pytest.mark.parametrize("cols", [
    # nearly dependent columns of spread 7.0e15, 4.0e15 and 8.3e15 (under
    # 2^53), whose second Gram-Schmidt length a size reduction takes to 0,
    # whose third is 0 once k reaches 2, and whose second is 0 after a swap
    [[-0.9982861958282183, 0.4965188032671597, 0.7162941326194954],
     [2.5431752790656574, -1.2649021406258052, -1.8247888613809335],
     [2.8699307529800415, -1.427420902827424, -2.059243699827333]],
    [[0.29638169760048894, 0.7150493034615606, -0.43092316057618696],
     [1.11239676018734, 2.683763994148678, -1.617365483751275],
     [0.6610242209877064, 1.5947844034067646, -0.9610939164988576]],
    [[-0.1377711018051988, 0.7837720210359582, 0.810267987993377],
     [-0.12895372900908075, 0.7336104849366647, 0.7584107057238342],
     [-0.16124364433883245, 0.9173059904924199, 0.9483161676378153]],
])
def test_lll_reduce_refuses_columns_singular_in_its_loop(cols):
    assert lll_reduce(cols) is None
    _assert_same_reduction(cols)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_cond=st.floats(0.0, math.log(1e8)))
def test_lll_reduce_matches_full_recompute_on_random_bases(seed, log_cond):
    cols = random_unimodular_columns(np.random.default_rng(seed), log_cond)
    _assert_same_reduction(cols)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_gram_schmidt_matches_full_recompute_on_random_bases(seed):
    # Gaussian columns, not unimodular
    _assert_same_reduction(np.random.default_rng(seed).normal(size=(3, 3)).tolist())


def test_shortest_vector_identity():
    res = shortest_vector(f64_lattice(IDENTITY))
    assert res.lambda1 == 1.0
    assert sorted(abs(c) for c in res.vector) == [0, 0, 1]


def test_results_and_lattices_are_immutable_values():
    lat = f64_lattice(IDENTITY)
    res = shortest_vector(lat)
    for value, field in ((lat, "rows"), (lat, "escalated"), (res, "lambda1")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    # ``count`` is the lattice count: {-1, 0, 1}^3 without the origin
    assert lat.count(1.5) == count_points(lat, 1.5) == 26


def test_shortest_vector_skewed_diagonal():
    # diag(M^-2, M, M), M = 10: lambda1 = 1e-2 via e1 (brute force confirms)
    m = 10.0
    matrix = ((m ** -2, 0.0, 0.0), (0.0, m, 0.0), (0.0, 0.0, m))
    res = shortest_vector(f64_lattice(matrix))
    assert res.lambda1 == pytest.approx(1e-2, rel=1e-12)
    lam_bf, vec_bf = brute_force_lambda1(scaled_columns(matrix), box=2)
    assert res.lambda1 == pytest.approx(lam_bf, rel=1e-12)
    assert sorted(abs(c) for c in res.vector) == [0, 0, 1]


def test_shortest_vector_rational_translate_bound():
    # lattice g_t phi(s) Z^3 with witness (-2,-3,6): lambda1 <= 6 e^-t
    for t in (0.0, 2.0, 5.0, 8.0):
        for s in (Fraction(0), Fraction(2, 7), Fraction(1)):
            res = shortest_vector(translate_basis(RATIONAL_LINE, s, FlowTime.of(t)))
            assert res.lambda1 <= 6 * math.exp(-t) + 1e-12


def test_shortest_vector_agrees_with_brute_force():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        cols = random_unimodular_columns(rng, math.log(1e6))
        res = shortest_vector(f64_lattice(_rows_of(cols)))
        red, _ = _lll(_rows_of(cols))
        lam_bf, _ = brute_force_lambda1(red, box=25)
        assert res.lambda1 == pytest.approx(lam_bf, rel=1e-10)


def test_shortest_vector_coefficients_reproduce_lambda1():
    rng = np.random.default_rng(11)
    for _ in range(25):
        cols = random_unimodular_columns(rng, math.log(1e5))
        res = shortest_vector(f64_lattice(_rows_of(cols)))
        b = np.array(cols, dtype=float)  # row i is basis vector i
        v = np.array(res.vector, dtype=float) @ b
        assert np.max(np.abs(v)) == pytest.approx(res.lambda1, rel=1e-12)


def test_shortest_vector_escalates_at_extreme_skew():
    res = shortest_vector(translate_basis(RATIONAL_LINE, Fraction(1, 3), FlowTime.of(12.0)))
    assert res.escalated
    assert res.lambda1 <= 6 * math.exp(-12) * (1 + 1e-9)
    # the expanding coordinate of the minimizer must vanish exactly at s = 1/3
    # for the norm to reach the e^-12 scale
    p1, p2, q = res.vector
    # first coordinate residual must vanish to reach ~e^-12 scale
    first = Fraction(1, 3) * q + p1 + (Fraction(1, 2) * q + p2) * Fraction(1, 3)
    assert first == 0


@pytest.mark.parametrize("t", [9.5, 10.0, 11.5, 12.0, 20.0])
def test_exact_fallback_matches_256bit_oracle(t):
    for line, points in ((RATIONAL_LINE, (Fraction(2, 7), Fraction(1, 3))),
                         (GENERIC_LINE, (0.71, 0.5772156649))):
        for s in points:
            lat = translate_basis(line, s, FlowTime.of(t))
            res = shortest_vector(lat)
            lam, x = shortest_vector_mp(phi(line, s), t)
            assert res.escalated
            assert res.lambda1 == pytest.approx(lam, rel=1e-12)
            assert res.vector in (x, tuple(-c for c in x))
            # radii off the norms e^-t k of the vectors on the rational line
            for r in (1.37 * lam, 2.71 * lam):
                assert count_points(lat, r) == count_points_mp(phi(line, s), t, r)


def test_exact_fallback_past_f64_gram_schmidt_range():
    # at t = 200 the f64 Gram-Schmidt lengths overflow (inf / inf = NaN)
    lat = translate_basis(GENERIC_LINE, 0.71, FlowTime.of(200.0))
    res = shortest_vector(lat)
    assert res.escalated
    x = res.vector
    # the entries of phi(0.71) times the f64 row scales, both exact
    scales = (math.exp(400.0), math.exp(-200.0), math.exp(-200.0))
    rows = [[Fraction(e) * Fraction(scale) for e in row]
            for row, scale in zip(phi(GENERIC_LINE, 0.71), scales)]
    norm = max(abs(sum(row[j] * x[j] for j in range(3))) for row in rows)
    assert res.lambda1 == float(norm)
    assert count_points(lat, res.lambda1 * 0.999) == 0
    assert count_points(lat, res.lambda1 * 1.001) >= 2


def _sampled_translate(pair, seed, t, interval=(0, 1), mode=F64):
    # s is drawn as equidist draws it, uniform on the interval in the line's
    # arithmetic; the lattice, and the (matrix, log-scale) the oracles take
    a, b = pair
    line = LineSegmentSpec(named_scalar(a, mode), named_scalar(b, mode),
                           from_int(mode, interval[0]), from_int(mode, interval[1]), mode)
    s = line.s1 + mode.from_fraction(Fraction(sample_uniform(seed, 0))) * (line.s2 - line.s1)
    return translate_basis(line, s, FlowTime.of(t)), (phi(line, s), t)


_pairs = st.sampled_from([("sqrt2", "sqrt3"), ("golden", "sqrt2"), ("liouville:3", "golden")])
# and the rational line 1/7, 22/9, in f64 and in rational mode, whose
# entries translate_basis rounds to f64 itself
_lines = st.one_of(st.tuples(_pairs, st.just(F64)),
                   st.tuples(st.just(("1/7", "22/9")), st.sampled_from([F64, RATIONAL])))
_intervals = st.integers(-50, 49).flatmap(
    lambda s1: st.tuples(st.just(s1), st.integers(s1 + 1, 50)))
_radii = st.lists(st.floats(0.5, 2.0), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(line=_lines, interval=_intervals, seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(0.0, 9.0), radii=_radii, below=st.floats(0.05, 0.999))
# at t = 9 the golden pair is refused from s = 0.29 on (its columns reach
# e^{2t} (golden s + sqrt2) > 1.88 e^{2t}) and kept below
@example(line=(("golden", "sqrt2"), F64), interval=(0, 1), seed=2, t=9.0, radii=[1.5],
         below=0.5)
@example(line=(("golden", "sqrt2"), F64), interval=(0, 1), seed=4, t=9.0, radii=[1.5],
         below=0.5)
def test_f64_translates_match_f64_oracle(line, interval, seed, t, radii, below):
    # the reduction is f64 exactly where the entry test keeps the columns
    # (t <= 9.21 - ln max(1, |s|, |a s + b|) / 3), and the shared
    # enumeration then evaluates candidates exactly as the oracle does; a
    # refused draw is the exact reduction of the same rounded columns.  One
    # radius is below lambda1, where the count is 0.
    lat, basis = _sampled_translate(line[0], seed, t, interval, line[1])
    assert lat.escalated == _f64_refused(scaled_columns(*basis))
    if lat.escalated:
        exact = ReducedLattice.exact(*integer_scaled(exact_scaled_rows(*basis)))
        assert shortest_vector(lat) == shortest_vector(exact)
        radii = radii + [below * shortest_vector(exact).lambda1]
        for r in radii:
            assert count_points(lat, r) == count_points(exact, r)
        return
    lam = shortest_vector(lat).lambda1
    assert lam == shortest_vector_f64(*basis)[0]
    assert count_points(lat, below * lam) == 0
    for r in radii + [below * lam]:
        assert count_points(lat, r) == count_points_f64(*basis, r)


def test_large_slope_translates_equal_the_exact_reduction():
    # a = 123456789.5 makes the columns e^{2t} |a s + b| long, which the
    # Gram-Schmidt lengths e^{2t}, e^{-t}, e^{-t} do not show: at t = 5 every
    # sample is refused by the entry test, and each row's lambda1 and count
    # are those of the exact reduction of its rounded columns (in f64, up to
    # 3.6% off in lambda1, with 15 counts wrong)
    line = LineSegmentSpec.from_strings("123456789.5", "0.25", "0", "1", F64)
    rows = experiments.sample_translate(line, FlowTime.of(5.0), 200, 1, (1.5,))
    for row in rows:
        exact = ReducedLattice.exact(*integer_scaled(exact_scaled_rows(phi(line, row["s"]), 5.0)))
        assert row["escalated"]
        assert row["lambda1"] == shortest_vector(exact).lambda1
        assert row[experiments.count_key(1.5)] == count_points(exact, 1.5)


@settings(max_examples=25, deadline=None)
@given(pair=_pairs, seed=st.integers(0, 2 ** 32 - 1), t=st.floats(9.5, 12.0), radii=_radii)
def test_escalated_translates_match_256bit_oracle(pair, seed, t, radii):
    lat, basis = _sampled_translate(pair, seed, t)
    assert lat.escalated
    assert shortest_vector(lat).lambda1 == pytest.approx(shortest_vector_mp(*basis)[0],
                                                         rel=1e-12)
    for r in radii:
        assert count_points(lat, r) == count_points_mp(*basis, r)


@settings(max_examples=25, deadline=None)
@given(pair=_pairs, seed=st.integers(0, 2 ** 32 - 1), t=st.floats(3.0, 12.0))
def test_bigfloat_translates_match_256bit_phi_oracle(pair, seed, t):
    # every entry of a bigfloat translate is taken at the mode's 256 bits and
    # the basis is reduced exactly: e^{3t} amplifies a 53-bit a s + b past
    # rel 1e-4 at t = 9.5, and an f64 reduction errs by 1e-6 at t = 7
    mode = bigfloat(256)
    line = LineSegmentSpec.from_strings(*pair, "-5", "5", mode)
    s = mode.from_fraction(Fraction(-5 + 10 * sample_uniform(seed, 0)))
    oracle = shortest_vector_mp(phi(line, s), t)[0]
    assert shortest_vector(translate_basis(line, s, FlowTime.of(t))).lambda1 == \
        pytest.approx(oracle, rel=1e-12)


def _random_integer_basis(rng, n, entry):
    """Three integer columns in Z^n whose first 3x3 minor is nonsingular."""
    while True:
        cols = [[int(x) for x in rng.integers(-entry, entry + 1, size=n)]
                for _ in range(3)]
        if round(np.linalg.det(np.array(cols, dtype=float)[:, :3])) != 0:
            return cols


def _gram_det(cols):
    g = [[Fraction(sum(x * y for x, y in zip(a, b))) for b in cols] for a in cols]
    if len(g) == 1:
        return g[0][0]
    if len(g) == 2:
        return g[0][0] * g[1][1] - g[0][1] * g[1][0]
    return (g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0]))


def test_lll_reduce_integral_exact_invariants():
    rng = np.random.default_rng(17)
    for n in (3, 4, 5):
        for _ in range(30):
            cols = _random_integer_basis(rng, n, 10 ** int(rng.integers(1, 12)))
            red, u, d, lam = lll_reduce_integral(cols)
            # same lattice: reduced = cols . U with U unimodular
            for k in range(3):
                assert red[k] == [sum(u[k][j] * cols[j][i] for j in range(3))
                                  for i in range(n)]
            assert round(np.linalg.det(np.array(u, dtype=float))) in (1, -1)
            # d[i] are the Gram determinants of the reduced prefixes
            assert d[0] == 1
            for i in range(1, 4):
                assert d[i] == _gram_det(red[:i])
            # size-reduced and Lovasz at delta = 0.99, checked exactly
            for i in range(3):
                for j in range(i):
                    assert 2 * abs(lam[i][j]) <= d[j + 1]
            for k in range(1, 3):
                assert 100 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= 99 * d[k] ** 2


def _integral_outcome(reduce, cols):
    """``reduce(cols)`` on a copy of the columns, or the message it raised."""
    try:
        return reduce([list(col) for col in cols])
    except InvalidInputError as e:
        return str(e)


_entry200 = st.integers(-2 ** 200, 2 ** 200)


@settings(max_examples=300, deadline=None)
@given(cols=st.integers(3, 5).flatmap(
    lambda n: st.lists(st.lists(_entry200, min_size=n, max_size=n), min_size=3, max_size=3)))
def test_lll_reduce_integral_matches_cohen_on_random_columns(cols):
    # small draws also reach dependent columns, where both raise
    assert (_integral_outcome(lll_reduce_integral, cols)
            == _integral_outcome(lll_reduce_integral_cohen, cols))


@st.composite
def _translate_columns(draw):
    """(e^3, 0, 0), (s e^2, e, 0), (w, 0, 1): the shape of a translate basis
    scaled to integers, whose skew gives long swap chains."""
    e = draw(st.integers(1, 2 ** 120))
    s = draw(st.integers(-e, e))
    w = draw(st.integers(-e ** 3, e ** 3))
    return [[e ** 3, 0, 0], [s * e * e, e, 0], [w, 0, 1]]


@settings(max_examples=300, deadline=None)
@given(cols=_translate_columns())
@example(cols=[[2 ** 360, 0, 0], [2 ** 239 + 1, 2 ** 120, 0], [2 ** 359 - 3, 0, 1]])
def test_lll_reduce_integral_matches_cohen_on_translates(cols):
    assert lll_reduce_integral([list(c) for c in cols]) == lll_reduce_integral_cohen(cols)


@pytest.mark.parametrize("cols", [
    [[0, 0, 0], [1, 2, 3], [4, 5, 7]],     # d_1 = 0
    [[1, 2, 3, 4], [2, 4, 6, 8], [0, 0, 1, 5]],  # b_1 = 2 b_0: d_2 = 0
    [[1, 2, 3], [4, 5, 7], [5, 7, 10]],    # b_2 = b_0 + b_1: d_3 = 0
])
def test_lll_reduce_integral_rejects_dependent_columns(cols):
    # a library caller's mistake, invalid input, raised by the check of the
    # first Gram determinant d_k of the columns that is 0 (the steps before
    # d_3 is computed change the first two columns unimodularly), and so by
    # the exact engine's one entry
    k = next(i for i in (1, 2, 3) if _gram_det(cols[:i]) == 0)
    for reduce in (lll_reduce_integral, lll_reduce_integral_cohen,
                   lambda cols: ReducedLattice.exact([list(row) for row in zip(*cols)])):
        with pytest.raises(InvalidInputError) as info:
            reduce([list(c) for c in cols])
        assert str(info.value) == "integral LLL needs independent columns"
        if reduce is not lll_reduce_integral_cohen:
            raised = traceback.extract_tb(info.tb)[-1]
            assert raised.name == "lll_reduce_integral"
            assert linecache.getline(raised.filename, raised.lineno - 1).strip() == (
                f"if d{k} == 0:")


def test_exact_scales_mixed_int_and_fraction_rows(monkeypatch):
    # ``integer_rows`` scales the ratios of mixed int and Fraction rows as
    # Fractions do, and ``exact`` reduces the integer columns it is given
    rows = [[3, Fraction(-7, 6), Fraction(5, 4)],
            [Fraction(2, 9), 0, -11],
            [Fraction(1, 3), Fraction(10, 5), 1],
            [0, Fraction(-1, 12), Fraction(7, 18)]]
    seen = []

    def recording(cols):
        seen.append([list(col) for col in cols])
        return lll_reduce_integral(cols)

    monkeypatch.setattr(lattice, "lll_reduce_integral", recording)
    ints, den = lattice.integer_rows([[x.as_integer_ratio() for x in row] for row in rows])
    assert (ints, den) == integer_scaled(rows)
    lat = ReducedLattice.exact(ints, den)
    den = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    assert lat.den == den == 36
    assert seen == [[[int(row[j] * den) for row in rows] for j in range(3)]]
    assert all(type(x) is int for col in seen[0] for x in col)


# entries in lowest terms whose denominators share powers of 2, 3 and 5
_shared_fractions = st.builds(Fraction, st.integers(-60, 60),
                              st.sampled_from([1, 2, 4, 8, 3, 9, 6, 12, 36, 5, 10, 50, 600]))


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(3, 5).flatmap(lambda n: st.lists(
    st.lists(_shared_fractions, min_size=3, max_size=3), min_size=n, max_size=n)))
def test_exact_integer_rows_are_primitive(rows):
    # for each prime p of den, the entry whose denominator holds the most
    # p's scales to an integer prime to p, so no gcd of den and the scaled
    # rows is left to divide out (and the reduction keeps that gcd)
    try:
        lat = ReducedLattice.exact(*lattice.integer_rows(
            [[x.as_integer_ratio() for x in row] for row in rows]))
    except InvalidInputError:  # dependent columns
        assume(False)
    assert lat.den == math.lcm(*(x.denominator for row in rows for x in row))
    assert math.gcd(lat.den, *(x for row in lat.rows for x in row)) == 1


_EXACT_LINES = [
    LineSegmentSpec.from_strings("sqrt2", "0.123456789012345", "-0.3", "0.45", F64),
    LineSegmentSpec.from_strings("1/7", "22/9", "-1/3", "5/11", RATIONAL),
    LineSegmentSpec.from_strings("liouville:4", "1/3", "0", "1", RATIONAL),
    LineSegmentSpec.from_strings("sqrt2", "sqrt3", "-0.3", "0.45", bigfloat(256)),
    LineSegmentSpec.from_strings("golden", "sqrt2", "-2", "3", bigfloat(53)),
]


@settings(max_examples=80, deadline=None)
@given(line=st.sampled_from(_EXACT_LINES), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(-20.0, 14.0))
@example(line=_EXACT_LINES[0], seed=1, t=11.0)
@example(line=_EXACT_LINES[4], seed=1, t=-20.0)
@example(line=_EXACT_LINES[0], seed=1, t=13.0)
def test_of_exact_arm_matches_fraction_rows(line, seed, t):
    # the exact arm of ``translate_basis`` reduces the Fraction products of
    # phi(s) and the f64 row scales, in every mode (f64 lattices forced off
    # by a zero GSO range cap, so that it takes the exact arm on every
    # line): the lattice of those rows, in a reduced basis reached from
    # them by a unimodular transform, which is the cold reduction's where
    # the f64 pass gives no start
    s = line.s1 + line.mode.from_fraction(Fraction(sample_uniform(seed, 0))) * (
        line.s2 - line.s1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "GSO_RANGE_CAP", 0.0)
        lat = translate_basis(line, s, FlowTime.of(t))
    reduced = lattice.translate_reduction(s, line.a * s + line.b, FlowTime.of(t))
    basis, den = integer_scaled(exact_scaled_rows(phi(line, s), t))
    cold = ReducedLattice.exact(basis, den)
    assert lat.escalated
    assert (lat.den, lat.gram_det) == (den, cold.gram_det)
    assert _det(lat.transform) in (1, -1)
    assert [list(row) for row in lat.rows] == [
        [sum(x * u for x, u in zip(row, col)) for col in lat.transform] for row in basis]
    # the rows built in integers are the Fraction rows' field for field
    assert lat == ReducedLattice.exact(basis, den, None if reduced is None else reduced[1])
    if reduced is None:
        assert lat == cold


@settings(max_examples=60, deadline=None)
@given(line=st.sampled_from(_EXACT_LINES), t=st.floats(-20.0, 14.0))
@example(line=_EXACT_LINES[1], t=10.0)
@example(line=_EXACT_LINES[4], t=-20.0)
def test_segment_rows_match_fraction_rows(line, t):
    # segment_minimum's lattice is ``exact`` of the Fraction rows of the
    # segment, from the same start, and its value is ``segment_sup`` of
    # its minimizer
    ft, seen, minimum = FlowTime.of(t), [], ReducedLattice.minimum
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReducedLattice, "minimum",
                   lambda lat, limit: seen.append(lat) or minimum(lat, limit))
        found = experiments.segment_minimum(line, ft, 6.0)
    e2, em, a, b = (Fraction(x) for x in (
        ft.factor(2, line.mode), ft.factor(-1, line.mode), line.a, line.b))
    rows = [[e2, e2 * Fraction(s), e2 * (b + a * Fraction(s))] for s in (line.s1, line.s2)]
    reduced = lattice.translate_reduction(line.s1, line.a * line.s1 + line.b, ft)
    assert seen == [ReducedLattice.exact(*integer_scaled(rows + [[0, em, 0], [0, 0, em]]),
                                         None if reduced is None else reduced[1])]
    if found is not None:
        assert found[1] == segment_sup(line, ft, found[0])


_WARM_LINES = {
    "f64": LineSegmentSpec.from_strings("sqrt2", "sqrt3", "-0.3", "0.45", F64),
    "rational": LineSegmentSpec.from_strings("1/7", "22/9", "-1/3", "5/11", RATIONAL),
    "bigfloat": LineSegmentSpec.from_strings("sqrt2", "sqrt3", "-0.3", "0.45", bigfloat(256)),
}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(_WARM_LINES)), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(9.0, 12.5), low=st.floats(0.0, 9.0), radii=_radii)
# spreads past GSO_RANGE_CAP (t >= 9.2) and past SPREAD_CAP (t >= 12.25)
@example(kind="f64", seed=1, t=9.5, low=0.0, radii=[1.5])
@example(kind="rational", seed=1, t=10.0, low=0.0, radii=[1.5])
@example(kind="bigfloat", seed=1, t=12.4, low=0.0, radii=[1.5])
def test_warm_started_translates_equal_the_cold_reduction(kind, seed, t, low, radii):
    # an escalated translate starts its exact reduction from the f64 U where
    # the f64 pass gives one, and cold otherwise; its minimum, minimizer
    # and counts are those of the cold reduction of the same rows and of the
    # 256-bit oracle (a bigfloat line also below t = 9, where every
    # translate is warm started)
    line = _WARM_LINES[kind]
    if kind == "bigfloat" and low < 4.5:
        t = 2 * low
    s = line.s1 + line.mode.from_fraction(Fraction(sample_uniform(seed, 0))) * (
        line.s2 - line.s1)
    lat = translate_basis(line, s, FlowTime.of(t))
    cold = ReducedLattice.exact(*integer_scaled(exact_scaled_rows(phi(line, s), t)))
    if not lat.escalated:  # the f64 lattice below the GSO range cap
        assume(False)
    got = shortest_vector(lat)
    # the minimizer, ties broken alike, and lambda1 (the oracle may break a
    # tie otherwise)
    assert got == shortest_vector(cold)
    assert got.lambda1 == pytest.approx(shortest_vector_mp(phi(line, s), t)[0], rel=1e-12)
    for r in radii + [0.999 * got.lambda1, got.lambda1]:
        assert count_points(lat, r) == count_points(cold, r)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(_WARM_LINES)), seed=st.integers(0, 2 ** 32 - 1),
       t=st.floats(0.0, 12.5), radius=st.floats(0.05, 1.5))
@example(kind="f64", seed=1, t=9.5, radius=0.5)
@example(kind="bigfloat", seed=1, t=3.0, radius=0.5)
def test_translate_within_a_radius_is_none_only_where_no_point_is(kind, seed, t, radius):
    # asked within a radius, translate_basis gives the same lattice, or None
    # where its f64 start shows that no nonzero point lies within it; at
    # lambda_1 itself a point does
    line = _WARM_LINES[kind]
    s = line.s1 + line.mode.from_fraction(Fraction(sample_uniform(seed, 0))) * (
        line.s2 - line.s1)
    ft = FlowTime.of(t)
    lat = translate_basis(line, s, ft)
    lam = shortest_vector(lat).lambda1
    for r in (radius, lam, math.nextafter(lam, 0)):
        within = translate_basis(line, s, ft, r)
        assert within == lat or (within is None and lat.minimum(r) is None)
    assert translate_basis(line, s, ft, lam) == lat


def _cold_arm_seen(monkeypatch, line, s, t):
    """The lattice ``translate_basis`` makes, asserting that its exact
    reduction was the cold one: one integral LLL of the integer basis
    columns themselves, no start applied."""
    seen = []

    def recording(cols):
        seen.append([list(col) for col in cols])
        return lll_reduce_integral(cols)

    monkeypatch.setattr(lattice, "lll_reduce_integral", recording)
    lat = translate_basis(line, s, FlowTime.of(t))
    basis, den = integer_scaled(exact_scaled_rows(phi(line, s), t))
    assert seen == [[list(col) for col in zip(*basis)]]
    assert lat == ReducedLattice.exact(basis, den)
    return lat


@pytest.mark.parametrize("error", [OverflowError, PrecisionError])
@pytest.mark.parametrize("kind", ["f64", "bigfloat"])
def test_failed_f64_pass_takes_the_cold_arm(monkeypatch, error, kind):
    # an f64 pass that raises one of the two errors translate_reduction
    # catches gives no start, at t = 5 (an f64 lattice otherwise) and at
    # t = 10 (a warm start otherwise)
    def failing(cols):
        raise error("the f64 pass fails")

    monkeypatch.setattr(lattice, "lll_reduce", failing)
    line = _WARM_LINES[kind]
    for t in (5.0, 10.0):
        assert _cold_arm_seen(monkeypatch, line, 0.3, t).escalated


@pytest.mark.parametrize("kind", sorted(_WARM_LINES))
def test_translate_past_the_spread_cap_takes_the_cold_arm(monkeypatch, kind):
    # SPREAD_CAP = 1/u = 2^53 ~ 9.0e15: the longest column of the translate
    # at s = 0.3, (a s + b) e^{2t} with a s + b ~ 2.16, over its least
    # Gram-Schmidt length e^{-t}, is 1.9e17 at t = 13 and 9.3e15 at t = 12,
    # past the cap, and lll_reduce refuses them; at t = 11.5 (2.1e15) it
    # reduces them, without resolving them
    assert lattice.SPREAD_CAP == 2.0 ** 53 == 1 / lattice._U
    line = _WARM_LINES[kind]
    x = line.a * 0.3 + line.b
    assert lattice.translate_reduction(0.3, x, FlowTime.of(13.0)) is None
    assert lattice.translate_reduction(0.3, x, FlowTime.of(12.0)) is None
    assert lattice.translate_reduction(0.3, x, FlowTime.of(11.5))[4] is False
    _cold_arm_seen(monkeypatch, line, line.mode.from_fraction(Fraction(3, 10)), 13.0)


def _box_members(cols, r):
    """Independent oracle: every v in Z^n with ||v||_inf <= r is tested for
    lattice membership by exact solving on the first three coordinates;
    returns (sup norm, coefficients) of each nonzero member."""
    n = len(cols[0])
    m = [[cols[j][i] for j in range(3)] for i in range(3)]  # rows of the minor
    det = round(np.linalg.det(np.array(m, dtype=float)))
    adj = np.array([[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
                     - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
                     for j in range(3)] for i in range(3)], dtype=np.int64)
    grid = np.arange(-r, r + 1)
    vs = np.stack(np.meshgrid(*[grid] * n, indexing="ij"), axis=-1).reshape(-1, n)
    num = vs[:, :3] @ adj.T  # det * coefficients
    ok = np.all(num % det == 0, axis=1) & np.any(vs != 0, axis=1)
    c = num[ok] // det
    full = c @ np.array(cols, dtype=np.int64)
    ok2 = np.all(full == vs[ok], axis=1)
    return [(int(np.max(np.abs(v))), tuple(int(x) for x in coeffs))
            for coeffs, v in zip(c[ok2], vs[ok][ok2])]


def _box_minimum(cols, r):
    """The least sup norm of ``_box_members`` and its sign-normalised
    coefficients, smallest read from the last coefficient."""
    best = None
    for norm, coeffs in _box_members(cols, r):
        key = coeffs[::-1]
        if key < (0, 0, 0):
            key = tuple(-x for x in key)
        if best is None or (norm, key) < best:
            best = (norm, key)
    return best[0], best[1][::-1]


def _rows(cols, den=1):
    """The n x 3 rows of the columns, divided by den."""
    return [[Fraction(x, den) for x in row] for row in zip(*cols)]


def test_sup_norm_minimum_matches_box_oracle():
    # on integer rows and on the same rows over a common denominator 12,
    # radii and the minimum in the rows' own units
    rng = np.random.default_rng(23)
    for n in (3, 4):
        for _ in range(25):
            cols = _random_integer_basis(rng, n, 5)
            r = min(max(abs(x) for x in col) for col in cols)
            norm, coeffs = _box_minimum(cols, r)
            for den in (1, 12):
                lat = ReducedLattice.exact(*integer_scaled(_rows(cols, den)))
                want = (Fraction(norm, den), coeffs)
                assert lat.minimum(10 ** 6) == want
                assert lat.minimum(math.inf) == want
                assert lat.minimum(Fraction(norm, den)) == want
                assert lat.minimum(Fraction(2 * norm - 1, 2 * den)) is None


def test_sup_norm_count_matches_box_oracle():
    rng = np.random.default_rng(29)
    for _ in range(25):
        cols = _random_integer_basis(rng, 3, 5)
        for r in (1, 3, 6):
            want = len(_box_members(cols, r))
            assert ReducedLattice.exact(*integer_scaled(_rows(cols))).count(r) == want
            assert ReducedLattice.exact(*integer_scaled(_rows(cols, 12))).count(
                Fraction(r, 12)) == want


def test_sup_norm_count_budget_guard():
    # (2 r)^3 / det = 10^6 / 1 expected points
    lat = ReducedLattice.exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with enumeration_budget(10_000), pytest.raises(BudgetError):
        lat.count(500)
    with enumeration_budget(200):
        assert lat.count(2) == 124


def test_count_points_z3():
    ident = f64_lattice(IDENTITY)
    assert count_points(ident, 1.0) == 26  # 3^3 - 1, brute force below agrees
    assert brute_force_count([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1.0, box=2) == 26
    assert count_points(ident, 0.5) == 0
    assert count_points(ident, 2.0) == 124  # 5^3 - 1
    assert brute_force_count([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2.0, box=3) == 124


def test_count_points_below_lambda1_is_zero():
    rng = np.random.default_rng(3)
    for _ in range(10):
        cols = random_unimodular_columns(rng, math.log(100))
        lat = f64_lattice(_rows_of(cols))
        lam = shortest_vector(lat).lambda1
        assert count_points(lat, lam * 0.999) == 0


def test_count_points_even_and_monotone():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cols = random_unimodular_columns(rng, math.log(100))
        lat = f64_lattice(_rows_of(cols))
        prev = 0
        for r in (0.5, 1.0, 1.5, 2.0):
            n = count_points(lat, r)
            assert n % 2 == 0
            assert n >= prev
            prev = n


def test_count_points_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(20):
        cols = random_unimodular_columns(rng, math.log(50))
        red, _ = _lll(_rows_of(cols))
        assert count_points(f64_lattice(_rows_of(cols)), 1.3) == \
            brute_force_count(red, 1.3, box=12)


@pytest.mark.parametrize("make", [
    lambda: ReducedLattice.exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    lambda: f64_lattice(IDENTITY),
], ids=["exact", "f64"])
def test_count_refusal_at_its_exact_boundary(make):
    # at r = 5, (2r)^6 = 10^6 = budget^2 det(L)^2 for budget 1000: the count
    # is not refused, but the half ball of radius 5 sqrt(3) holds more than
    # 1000 leaves
    lat = make()
    with enumeration_budget(1000):
        with pytest.raises(BudgetError, match="visited more than its budget"):
            lat.count(5)
    with enumeration_budget(999):
        with pytest.raises(BudgetError, match="expected point count exceeds the budget"):
            lat.count(5)
    with enumeration_budget(2000):
        assert lat.count(5) == 1330  # 11^3 - 1


@pytest.mark.parametrize("lat, r, want", [
    # (2 r)^3 / det(L) = 11^3 at r = 5.5; an integer norm within 5.5 is
    # within 5, so the exact lattice expects 10^3
    (f64_lattice(IDENTITY), 5.5, "1331"),
    (ReducedLattice.exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 5.5, "1000"),
    # det(L) = 1/8: 10648 in either unit
    (ReducedLattice.exact(*integer_scaled([[Fraction(1, 2), 0, 0], [0, Fraction(1, 2), 0],
                                           [0, 0, Fraction(1, 2)]])), 5.5, "1.065e+4"),
    (f64_lattice(IDENTITY), 1e200, "8.000e+600"),
], ids=["f64", "exact", "exact-scaled", "past-f64"])
def test_count_refusal_names_expected_count_and_cap(lat, r, want):
    with enumeration_budget(999), pytest.raises(BudgetError) as err:
        lat.count(r)
    assert str(err.value).endswith(f"(2r)^3/det(L) = {want} against a cap of 999 points")


def test_enumeration_walks_only_the_half_ball_it_yields():
    # at t = -10 the first minimum of the translate is about 2e-9, so a
    # radius-1.5 search reaches x0 up to about 10^9 with x1 = x2 = 0; the
    # negative x0 of that line, which the half ball leaves out, must not be
    # walked (that walk takes about a minute) but skipped, so that the leaf
    # cap ends the count at once
    lat = translate_basis(GENERIC_LINE, 0.71, FlowTime.of(-10.0))
    start = time.perf_counter()
    with enumeration_budget(1000), pytest.raises(BudgetError, match="budget of 1000 nodes"):
        count_points(lat, 1.5)
    assert time.perf_counter() - start < 5.0


def test_lll_iteration_cap_refuses(monkeypatch):
    # the cap is read when lll_reduce is called; a translate needs more than
    # one step (it swaps at t = 5), so lll_reduce refuses it, and
    # translate_basis then reduces its rows exactly, cold
    cols = scaled_columns(phi(GENERIC_LINE, 0.71), 5.0)
    assert lll_reduce(cols) is not None
    monkeypatch.setattr(lattice, "LLL_ITERATION_CAP", 1)
    assert lll_reduce(cols) is None
    lat = translate_basis(GENERIC_LINE, 0.71, FlowTime.of(5.0))
    assert lat == ReducedLattice.exact(
        *integer_scaled(exact_scaled_rows(phi(GENERIC_LINE, 0.71), 5.0)))


def test_count_points_past_f64_gram_determinant():
    # det(L)^2 = 1e660 overflows f64; the expected count refuses nothing
    lat = f64_lattice(((1e110, 0.0, 0.0), (0.0, 1e110, 0.0), (0.0, 0.0, 1e110)))
    assert count_points(lat, 1.0) == 0
    assert count_points(lat, 1e110) == 26


def _assert_counts_leaf_by_leaf(lat, radius):
    """``count`` is the leaf-by-leaf count, and the leaf cap stops it at
    exactly the leaves the walk visits, unless the expected count is
    refused first."""
    want, leaves = count_leaf_by_leaf(lat, radius)
    limit = lat._limit(radius)
    assert lat.count(radius) == want
    for budget in (leaves, leaves - 1):
        if budget < 0:
            continue
        with enumeration_budget(budget):
            if count_refused(limit, lat.gram_det, budget):
                with pytest.raises(BudgetError, match="expected point count"):
                    lat.count(radius)
            elif budget < leaves:
                with pytest.raises(BudgetError, match=f"budget of {budget} nodes"):
                    lat.count(radius)
            else:
                assert lat.count(radius) == want


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), log_cond=st.floats(0, 6),
       radius=st.floats(0.05, 3))
def test_count_is_leaf_by_leaf_on_f64_lattices(seed, log_cond, radius):
    cols = random_unimodular_columns(np.random.default_rng(seed), log_cond)
    _assert_counts_leaf_by_leaf(f64_lattice(_rows_of(cols)), radius)


@settings(max_examples=150, deadline=None)
@given(s=st.floats(0, 1), t=st.floats(-2, 9), radius=st.floats(0.25, 3))
def test_count_is_leaf_by_leaf_on_translates(s, t, radius):
    _assert_counts_leaf_by_leaf(translate_basis(GENERIC_LINE, s, FlowTime.of(t)), radius)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([3, 4]),
       den=st.sampled_from([1, 12]),
       radius=st.fractions(Fraction(1, 10), 6, max_denominator=24))
def test_count_is_leaf_by_leaf_on_exact_lattices(seed, n, den, radius):
    cols = _random_integer_basis(np.random.default_rng(seed), n, 5)
    _assert_counts_leaf_by_leaf(ReducedLattice.exact(*integer_scaled(_rows(cols, den))), radius)


@pytest.mark.parametrize("exact", [False, True], ids=["f64", "exact"])
@pytest.mark.parametrize("k", [0, 1, 3, 10, -400])
def test_count_of_dyadic_cubic_lattices_on_the_box_faces(k, exact):
    # 2^-k Z^3 at radii m 2^-k puts points on every face of the box; at
    # k = -400 the entries are in the range of the f64 count's margin and
    # the radii above it, and the f64 Gram determinant overflows
    h = 2.0 ** -k
    rows = ((h, 0.0, 0.0), (0.0, h, 0.0), (0.0, 0.0, h))
    lat = (ReducedLattice.exact(*integer_scaled(exact_scaled_rows(rows))) if exact
           else f64_lattice(rows))
    for m in (1, 2, 3, 5):
        for radius in (m * h, (m + 0.5) * h, (m - 2 ** -20) * h):
            assert lat.count(radius) == (2 * math.floor(radius / h) + 1) ** 3 - 1
            _assert_counts_leaf_by_leaf(lat, radius)


def test_a_walk_radius_past_the_f64_range_is_refused():
    # the first row is 10^-400 of the others, det = 1: a count at radius 1
    # expects 8 points, but its squared walk radius 3 (10^200)^2 is past the
    # f64 range, and the line x1 = x2 = 0 holds 10^200 leaves
    lat = ReducedLattice.exact(*integer_scaled([[Fraction(1, 10 ** 200), 0, 0],
                                                [0, 10 ** 100, 0], [0, 0, 10 ** 100]]))
    with pytest.raises(BudgetError, match="over 10\\^154 leaves"):
        lat.count(1.0)
    with enumeration_budget(10 ** 154), pytest.raises(PrecisionError):
        lat.count(1.0)
    # an f64 Gram determinant past the f64 range refuses no count, and the
    # squared radius 3 (10^160)^2 is inf in f64
    lat = f64_lattice(((1e110, 0.0, 0.0), (0.0, 1e110, 0.0), (0.0, 0.0, 1e110)))
    with pytest.raises(PrecisionError, match="past the f64 range"):
        lat.count(1e160)


def _unreduced(rows):
    # the f64 lattice of ``rows`` as given, with the Gram-Schmidt data of
    # their columns: its walk meets the large coefficients that a reduction
    # would take away
    _, mu, norm2 = gram_schmidt_full([list(col) for col in zip(*rows)])
    return ReducedLattice(rows, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), mu, norm2, 1.0,
                          norm2[0] * norm2[1] * norm2[2])


@pytest.mark.parametrize("lat, limit, want", [
    (f64_lattice(((1.3, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 10.0))), 9.1, 14),
    (f64_lattice(((1.1, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 10.0))), 7.7, 12),
    (_unreduced(((0.79, 790.225, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 10.0))),
     1.0149999999999861, 6),
], ids=["1.3", "1.1", "unreduced"])
def test_count_where_a_slab_end_rounds_across_the_leaf_test(lat, limit, want):
    # fl(9.1 / 1.3) = 6.999999999999999, yet 1.3 * 7 is 9.1 and passes;
    # fl(7.7 / 1.1) = 7.0, yet 1.1 * 7 = 7.700000000000001 fails: only the
    # margin sends x0 = 7 to the leaf test.  On the unreduced basis the
    # line x1 = 1 has its slab's end near x0 = -999, whose value
    # 1.0149999999999864 is one ulp past the limit; the end's rounding
    # error grows with the coefficients (its centre is -1000.28), and only
    # the X term of the margin sends x0 = -999 to the leaf test
    assert lat.count(limit) == want
    _assert_counts_leaf_by_leaf(lat, limit)


@pytest.mark.parametrize("tiny", [0.0, 1e-17, 2.0 ** -60, 1e-200, 5e-324, 4.45e-13])
def test_count_on_rows_with_zero_or_tiny_first_entry(tiny):
    # a zero r0 is tested once per line; a tiny one has a slab wider than
    # the walk, and a margin too wide for any other row's; entries under
    # 2^-400 leave every leaf to the leaf test.  The last basis is reduced
    # as given, with the row (4.45e-13, -0.996, -0.946) of an f64 translate
    # whose exact r0 is 0
    for matrix in (((1.0, 0.0, 0.0), (tiny, 1.0, 0.0), (0.0, 0.0, 1.0)),
                   ((1.0, 0.5, 0.25), (tiny, 1.0, 0.3), (-tiny, 0.0, 1.0)),
                   ((1.0, tiny, 0.0), (0.0, 1.0, tiny), (0.0, 0.0, 1.0)),
                   ((1.0, 0.2, 0.3), (tiny, -0.996, -0.946), (0.0, -0.6, 0.9))):
        lat = f64_lattice(matrix)
        assert any(abs(row[0]) in (0.0, tiny) for row in lat.rows)
        for radius in (0.5, 1.0, 1.5, 2.0, 2.75):
            _assert_counts_leaf_by_leaf(lat, radius)


@st.composite
def _near_the_cap(draw):
    """(limit, gram_det, budget) within a few ulps or units of the cap,
    (2 limit)^6 = budget^2 gram_det at limit = p q / 2, gram_det = q^6 and
    budget = p^3: f64 values as an f64 lattice has them, or integers as an
    exact lattice has them (2 limit = p q, gram_det = 64 q^6)."""
    p, q = draw(st.integers(1, 10 ** 6)), draw(st.integers(1, 400))
    budget = max(p ** 3 + draw(st.integers(-1, 1)), 0)
    if draw(st.booleans()):
        limit, gram_det = p * q / 2, float(q ** 6)
        for _ in range(draw(st.integers(0, 2))):
            limit = math.nextafter(limit, draw(st.sampled_from([0, math.inf])))
        for _ in range(draw(st.integers(0, 2))):
            gram_det = math.nextafter(gram_det, draw(st.sampled_from([0, math.inf])))
        return limit, gram_det, budget
    return (p * q + draw(st.integers(-1, 1)), 64 * q ** 6 + draw(st.integers(-1, 1)),
            budget)


@settings(max_examples=500, deadline=None)
@given(case=st.one_of(_near_the_cap(), st.tuples(
    st.one_of(st.floats(0, 1e300), st.integers(0, 10 ** 400),
              st.fractions(0, 10 ** 6, max_denominator=10 ** 30)),
    st.one_of(st.floats(0, math.inf), st.integers(1, 10 ** 700)),
    st.one_of(st.integers(0, 10 ** 8), st.integers(0, 10 ** 400)))))
def test_count_refusal_is_the_exact_rule(case):
    limit, gram_det, budget = case
    with enumeration_budget(budget):
        refusal = lattice._refusal(limit, gram_det)
    assert (refusal is not None) == count_refused(limit, gram_det, budget)


def test_count_points_budget_error():
    with enumeration_budget(10_000), pytest.raises(BudgetError):
        count_points(f64_lattice(IDENTITY), 500.0)


_small_rows = st.integers(3, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(rows=_small_rows, radius=st.fractions(0, 8, max_denominator=3))
# reduced rows (1, 0, 0), (0, 3, 0), (0, 0, 5): two rows with r0 = 0 that
# cut lines off; (-2, 1, 1), (1, 3, 3), (0, -1, 6), (0, 0, 0): r0 < 0, r0 = 0
# and a zero row; 2 I at radius 4: limits on slab ends; and a radius 3/2
# below lambda1 = 2
@example(rows=[[1, 0, 0], [0, 3, 0], [0, 0, 5]], radius=Fraction(6))
@example(rows=[[-2, 1, 0], [1, 3, 0], [0, -1, 7], [0, 0, 0]], radius=Fraction(7))
@example(rows=[[2, 0, 0], [0, 2, 0], [0, 0, 2]], radius=Fraction(4))
@example(rows=[[2, 0, 0], [0, 3, 0], [0, 0, 5]], radius=Fraction(3, 2))
def test_points_cut_equals_the_leaf_by_leaf_points(rows, radius):
    # the integer line cut yields the points of the full leaf test, in the
    # same order, and ``count`` counts them
    try:
        lat = ReducedLattice.exact(rows)
    except InvalidInputError:  # dependent columns
        assume(False)
    want = points_leaf_by_leaf(lat, radius)
    assert list(lat.points(radius)) == want
    assert lat.count(radius) == 2 * len(want)


def _unimodular(steps):
    """The columns of the product of the elementary column steps (i, j, k),
    each adding k times column i to column j (i != j), or negating column i
    where i = j."""
    cols = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for i, j, k in steps:
        cols[j] = [-x for x in cols[j]] if i == j else [
            x + k * y for x, y in zip(cols[j], cols[i])]
    return cols


# integer bases of 3 and 4 rows: free ones, and the shape of the diophantine
# box blocks, two forms and L / m on q (and L / (2Q - 1) on p2)
_box_rows = st.one_of(
    _small_rows,
    st.builds(lambda forms, m, p2: forms + [[0, 0, m]] + ([[0, p2, 0]] if p2 else []),
              st.lists(st.lists(st.integers(-40, 40), min_size=3, max_size=3),
                       min_size=2, max_size=2),
              st.integers(1, 40), st.integers(0, 40)))
_steps = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-3, 3)),
                  max_size=6)


def _box_has_point_by_rule(rows, start, limit):
    # the rule, independently: a start column with every row within limit,
    # else Cramer's coefficients |y_i| <= limit sum_j |det M_i(e_j)| / |det M|
    # all below 1
    cols = [[sum(r * c for r, c in zip(row, col)) for row in rows] for col in start]
    if any(all(abs(x) <= limit for x in col) for col in cols):
        return True
    m = [[col[i] for col in cols] for i in range(3)]
    det = abs(mat_det(m))

    def replaced(i, j):
        return [[int(k == j) if c == i else m[k][c] for c in range(3)] for k in range(3)]

    if det and all(limit * sum(abs(mat_det(replaced(i, j))) for j in range(3)) < det
                   for i in range(3)):
        return False
    return None


@settings(max_examples=200, deadline=None)
@given(rows=_box_rows, start_kind=st.sampled_from(["cold", "warm", "random"]),
       steps=_steps, scale=st.lists(st.integers(1, 4), min_size=4, max_size=4),
       limit_kind=st.sampled_from(["free", "column"]), free=st.integers(0, 60),
       column=st.integers(0, 2))
# a start column at exactly the limit; and dual bounds of exactly 1 on all
# three coefficients, which the point (-1, -1, 1), at exactly the limit,
# reaches
@example(rows=[[3, 0, 0], [0, 5, 0], [0, 0, 7], [1, 2, 9]], start_kind="cold", steps=[],
         scale=[1, 1, 1, 1], limit_kind="column", free=0, column=0)
@example(rows=[[-1, 2, 3], [-2, 3, -1], [-4, -1, -3]], start_kind="cold", steps=[],
         scale=[1, 1, 1, 1], limit_kind="free", free=2, column=0)
# a dual rule that holds on the first two rows of adj(M) alone
@example(rows=[[5, 0, 0], [0, 5, 0], [0, 4, 4]], start_kind="cold", steps=[],
         scale=[1, 1, 1, 1], limit_kind="free", free=3, column=0)
# block_p2 rows whose p2 row alone puts a column past the limit
@example(rows=[[5, 0, 1], [0, 2, 1], [0, 0, 4], [0, 9, 0]], start_kind="cold", steps=[],
         scale=[1, 1, 1, 1], limit_kind="free", free=3, column=0)
def test_box_has_point_against_the_leaf_by_leaf_points(rows, start_kind, steps, scale,
                                                       limit_kind, free, column):
    # True only where a start column is a point within the limit, False only
    # where the dual rule holds; and each answer is that of the points of
    # the cold reduction, leaf by leaf.  A warm start is the transform of
    # the rows with scaled rows, as a block before gives it
    try:
        cold = ReducedLattice.exact(rows)
    except InvalidInputError:  # dependent columns
        assume(False)
    if start_kind == "cold":
        start = _unimodular([])
    elif start_kind == "random":
        start = _unimodular(steps)
    else:
        start = ReducedLattice.exact([[x * k for x in row]
                                      for row, k in zip(rows, scale)]).transform
    limit = free if limit_kind == "free" else max(
        abs(sum(r * c for r, c in zip(row, start[column]))) for row in rows)
    got = lattice.box_has_point(rows, start, limit)
    assert got is _box_has_point_by_rule(rows, start, limit)
    points = points_leaf_by_leaf(cold, limit)
    if got is not None:
        assert bool(points) is got


def test_enumeration_budget_nests_and_restores():
    # the half ball of radius 2 sqrt(3) around 0 in Z^3 holds 89 leaves
    lat = ReducedLattice.exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert lattice._budget.get() == ENUMERATION_BUDGET
    with enumeration_budget(200):
        with enumeration_budget(10):
            with pytest.raises(BudgetError, match="budget of 10 nodes"):
                list(lat.points(2))
        assert len(list(lat.points(2))) == 62
        with pytest.raises(BudgetError), enumeration_budget(10):
            list(lat.points(2))
        assert len(list(lat.points(2))) == 62
        points = lat.points(2)
    # a generator reads the cap in force when its enumeration starts
    with enumeration_budget(10), pytest.raises(BudgetError):
        list(points)
    assert lattice._budget.get() == ENUMERATION_BUDGET


def _functions(module):
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            for member in vars(obj).values():
                fn = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(fn):
                    yield fn


@pytest.mark.parametrize("module", [lattice, diophantine, experiments])
def test_no_function_takes_a_budget(module):
    # the cap is set once, by enumeration_budget, and never passed down
    functions = list(_functions(module))
    assert functions
    for fn in functions:
        assert "budget" not in inspect.signature(fn).parameters, fn.__qualname__


@pytest.mark.parametrize("t", [0.0, 9.5])
def test_count_points_rejects_infinite_radius(t):
    # t = 9.5 takes the exact fallback, t = 0 the f64 path
    lat = translate_basis(GENERIC_LINE, 0.71, FlowTime.of(t))
    with pytest.raises(InvalidInputError, match="positive and finite"):
        count_points(lat, math.inf)


def test_count_points_rejects_nonpositive_radius():
    with pytest.raises(InvalidInputError):
        count_points(f64_lattice(IDENTITY), 0.0)
    with pytest.raises(InvalidInputError):
        count_points(f64_lattice(IDENTITY), math.nan)


def test_in_k_delta():
    # K_delta membership is lambda1 >= delta
    assert shortest_vector(f64_lattice(IDENTITY)).lambda1 >= 0.9
    # rational-line lattice at t = 3: lambda1 <= 6 e^-3 ~ 0.2987 < 0.5
    lat = translate_basis(RATIONAL_LINE, Fraction(1, 2), FlowTime.of(3.0))
    assert shortest_vector(lat).lambda1 < 0.5


def test_in_k_delta_boundary_inclusive():
    # diag(M^-2, M, M) with M = 10 has lambda1 exactly 1e-2
    lat = f64_lattice(((10.0 ** -2, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 10.0)))
    assert shortest_vector(lat).lambda1 == 10.0 ** -2


def test_mahler_proxy_rational_line():
    # once 6 e^-t < delta, the whole segment is outside K_delta
    delta = 0.5
    t = math.log(6 / delta) + 0.05
    for s in (Fraction(0), Fraction(1, 3), Fraction(9, 10)):
        lat = translate_basis(RATIONAL_LINE, s, FlowTime.of(t))
        assert shortest_vector(lat).lambda1 < delta


def test_unimodular_determinant_of_translates():
    for t in (0.0, 1.0, 4.0):
        cols = scaled_columns(phi(RATIONAL_LINE, Fraction(1, 5)), t)
        assert abs(np.linalg.det(cols) - 1) <= 1e-9
