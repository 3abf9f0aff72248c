"""Shared test oracles: the dense matrix path of the flow (g_t and the 3x3
helpers), exact flow times (e^t kept as a ``Fraction``), the standard and
exterior-square actions, the interval constant and the Vandermonde check
of the proof lemmas, brute-force lattice searches, random unimodular bases
with controlled conditioning, the full-recompute f64 LLL, the generic-rank
integral LLL, a 256-bit float lattice path and the f64 shortest vector and
point count on it, the q-scan segment minimum, the q-scan witness and E_q
searches, the cold box search of ``diophantine._box_points`` and an exact
LLL-reducedness check, the float p-window decision of I_R on a grid, the numpy
Dirichlet grid, an exact I_R measure, the segment element phi(s) and the
exact translate rows that ``translate_basis`` reduces exactly, number rows
scaled to the integer rows of ``ReducedLattice.exact``, the per-sample
translate route through ``Fraction``, the escape fraction counted from each
sample's lambda_1, the per-cell CSV writer, the leaf-by-leaf points and
point count of a lattice, the exact expected-count refusal of
``ReducedLattice.count``, and the two-sample KS statistic by bisection."""

from __future__ import annotations

import csv
import io
from bisect import bisect_right
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from latflow import diophantine as dio
from latflow.errors import BudgetError, InvalidInputError
from latflow.experiments import sample_translate
from latflow.flow import FlowTime, LineSegmentSpec, segment_sup
from latflow.lattice import LLL_DELTA_EXACT, ReducedLattice, lll_reduce
from latflow.scalars import F64, ScalarMode

SEGMENT_MINIMUM_SCAN_BUDGET = 100_000_000


def from_int(mode: ScalarMode, n: int):
    """The integer n as a scalar of ``mode``."""
    return mode.from_fraction(Fraction(n))


# -- the dense matrix path of the flow ---------------------------------------

def g(t: FlowTime, mode: ScalarMode = F64):
    """The diagonal flow element diag(e^{2t}, e^{-t}, e^{-t}) as a dense matrix."""
    zero = from_int(mode, 0)
    e2 = t.factor(2, mode)
    em = t.factor(-1, mode)
    return ((e2, zero, zero), (zero, em, zero), (zero, zero, em))


def mat_identity(mode: ScalarMode = F64):
    one, zero = from_int(mode, 1), from_int(mode, 0)
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def mat_mul(A, B):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat_vec(A, v):
    return tuple(sum(A[i][k] * v[k] for k in range(3)) for i in range(3))


def mat_det(A):
    return (
        A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
        - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
        + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
    )


# -- exact flow times and the actions behind the proof lemmas -------------

class ExactFlowTime(FlowTime):
    """A flow time t = ln(u) with u = e^t kept exact: the powers e^{kt} are
    the rationals u^k, which keeps the segment actions, ``segment_sup`` and
    ``segment_minimum`` exact in rational mode (``translate_reduction`` and
    ``translate_basis`` take the f64 powers, u^k rounded once)."""

    def __new__(cls, t: float, u: Fraction):
        self = super().__new__(cls, t)
        self.u = u
        return self

    def factor(self, k: int, mode: ScalarMode = F64):
        return mode.from_fraction(self.u ** k)


def exact_time(u) -> ExactFlowTime:
    """The flow time t = ln(u), u > 0, with e^t = u exact."""
    u = Fraction(u)
    return ExactFlowTime(math.log(u), u)


def _require_nonzero(v: tuple):
    if not any(v):
        raise InvalidInputError("the zero vector is not a valid witness or orbit seed")


def flow_standard(line: LineSegmentSpec, s, t: FlowTime, v: tuple):
    """g_t phi(s) applied to (p1, p2, q) in the standard representation:
    (e^{2t} ((b q + p1) + (a q + p2) s), e^{-t} p2, e^{-t} q)."""
    _require_nonzero(v)
    em = t.factor(-1, line.mode)
    p1, p2, q = v
    first = t.factor(2, line.mode) * (line.b * q + p1 + (line.a * q + p2) * s)
    return (first, em * p2, em * q)


def flow_ext2(line: LineSegmentSpec, s, t: FlowTime, w: tuple):
    """g_t phi(s) on the exterior square, coordinates (p, q, r) in the basis
    (e12, e23, e13).

    phi(s) fixes e12 and e13 and sends e23 to s*e13 - (a s + b)*e12 + e23,
    so the image is (e^t(-(a s + b)q + p), e^{-2t} q, e^t(s q + r)).
    """
    _require_nonzero(w)
    p, q, r = w
    et = t.factor(1, line.mode)
    em2 = t.factor(-2, line.mode)
    first = et * (-(line.a * s + line.b) * q + p)
    third = et * (s * q + r)
    return (first, em2 * q, third)


def ext2_constant(line: LineSegmentSpec):
    """The interval constant C_I = min{(s2-s1)/2, (s2-s1)/(|s1|+|s2|), 1}.

    For any nonzero integer w and t >= 0, the sup over s in I of the
    sup-norm of ``flow_ext2`` is bounded below by C_I * e^t.
    """
    s1, s2 = line.s1, line.s2
    length = s2 - s1
    terms = [length / from_int(line.mode, 2), from_int(line.mode, 1)]
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
    coeffs = [from_int(line.mode, c) if isinstance(c, int) else c for c in w]
    if all(c == 0 for c in coeffs):
        raise InvalidInputError("all-zero coefficient vector")
    s1, s2 = line.s1, line.s2
    emt = t.factor(m, line.mode)
    grid_max = None
    for j in range(m + 1):
        tau = s1 + line.mode.from_fraction(Fraction(j, m)) * (s2 - s1)
        acc = coeffs[0]
        power = from_int(line.mode, 1)
        for k in range(1, m + 1):
            power = power * tau
            acc = acc + coeffs[k] * power
        val = abs(acc)
        if grid_max is None or val > grid_max:
            grid_max = val
    lhs = grid_max * emt
    c_i = (from_int(line.mode, 1) + max(abs(s1), abs(s2))) / (s2 - s1)
    w_norm = max(abs(c) for c in coeffs)
    rhs = emt * w_norm / ((c_i * m) ** m)
    return VandermondeCheck(lhs=lhs, rhs=rhs, passed=lhs >= rhs)


def brute_force_lambda1(cols, box: int = 25):
    """Independent SVP oracle: minimum sup-norm over all nonzero integer
    coefficient triples with |c_i| <= box, against the given basis columns."""
    b = np.asarray(cols, dtype=float)  # row i is basis vector i
    rng = np.arange(-box, box + 1)
    c1, c2, c3 = np.meshgrid(rng, rng, rng, indexing="ij")
    coeffs = np.stack([c1.ravel(), c2.ravel(), c3.ravel()], axis=1)
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    vecs = coeffs @ b
    sups = np.max(np.abs(vecs), axis=1)
    i = int(np.argmin(sups))
    return float(sups[i]), tuple(int(x) for x in coeffs[i])


def brute_force_count(cols, r: float, box: int = 30) -> int:
    """Independent point-count oracle over a coefficient box."""
    b = np.asarray(cols, dtype=float)  # row i is basis vector i
    rng = np.arange(-box, box + 1)
    c1, c2, c3 = np.meshgrid(rng, rng, rng, indexing="ij")
    coeffs = np.stack([c1.ravel(), c2.ravel(), c3.ravel()], axis=1)
    coeffs = coeffs[np.any(coeffs != 0, axis=1)]
    vecs = coeffs @ b
    sups = np.max(np.abs(vecs), axis=1)
    return int(np.sum(sups <= r))


def random_unimodular_columns(rng: np.random.Generator, log_cond_cap: float):
    """A random real unimodular 3x3 basis (det = +1) whose condition number
    is at most e^{log_cond_cap}: rotate a unit-determinant diagonal."""
    def rotation():
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        return q

    L = log_cond_cap / 3.0
    u1, u2 = rng.uniform(-L, L, size=2)
    d = np.diag(np.exp([u1, u2, -u1 - u2]))
    m = rotation() @ d @ rotation()
    return [list(m[:, j]) for j in range(3)]


# -- full-recompute f64 LLL ------------------------------------------------

def gram_schmidt_full(cols):
    """(bstar, mu, norm2) of three columns, every row computed afresh."""
    bstar = []
    mu = [[0.0] * 3 for _ in range(3)]
    norm2 = []
    for i in range(3):
        v = list(cols[i])
        for j in range(i):
            if norm2[j] <= 0:
                raise InvalidInputError("numerically singular basis in Gram-Schmidt")
            mu[i][j] = (cols[i][0] * bstar[j][0] + cols[i][1] * bstar[j][1]
                        + cols[i][2] * bstar[j][2]) / norm2[j]
            for k in range(3):
                v[k] = v[k] - mu[i][j] * bstar[j][k]
        bstar.append(v)
        norm2.append(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    if norm2[2] <= 0:
        raise InvalidInputError("numerically singular basis in Gram-Schmidt")
    return bstar, mu, norm2


def scaled_columns(matrix, log_scale: float = 0.0):
    """Columns of the 3x3 row ``matrix``, row i times the f64 flow scale
    e^{2l}, e^{-l}, e^{-l} (l = ``log_scale``), each product rounded to f64:
    the columns ``f64_lattice(matrix, log_scale)`` reduces in f64, and
    those ``translate_basis`` makes of phi(s)."""
    scale = (math.exp(2 * log_scale), math.exp(-log_scale), math.exp(-log_scale))
    return [[float(matrix[i][j]) * scale[i] for i in range(3)] for j in range(3)]


def f64_lattice(matrix, log_scale: float = 0.0):
    """``ReducedLattice.f64`` of the ``lll_reduce`` of
    ``scaled_columns(matrix, log_scale)``: the f64 reduction
    ``translate_basis`` makes of a translate's columns, of a basis that
    ``lll_reduce`` resolves."""
    reduced = lll_reduce(scaled_columns(matrix, log_scale))
    assert reduced is not None and reduced[4], "lll_reduce does not resolve these columns"
    return ReducedLattice.f64(reduced)


def exact_scaled_rows(matrix, log_scale: float = 0.0):
    """The rows of ``matrix`` times the f64 flow scales of ``scaled_columns``,
    as exact ``Fraction`` products: for phi(s), the rows that
    ``translate_basis`` reduces exactly."""
    scale = (math.exp(2 * log_scale), math.exp(-log_scale), math.exp(-log_scale))
    return [[Fraction(x) * Fraction(scale[i]) for x in matrix[i]]
            for i in range(3)]


def integer_scaled(rows) -> tuple[list, int]:
    """(integer rows, den): the rational matrix ``rows`` (int, float or
    ``Fraction`` entries) times the least common denominator ``den`` of its
    entries, computed in ``Fraction``s, so that
    ``ReducedLattice.exact(*integer_scaled(rows))`` is the exact lattice of
    number rows."""
    rows = [[Fraction(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return [[int(x * den) for x in row] for row in rows], den


def translate_sample_s(line: LineSegmentSpec, u: float):
    """s = s1 + u (s2 - s1) with u taken into the line's mode through its
    ``Fraction``, as every mode took it before f64 lines used u itself."""
    return line.s1 + line.mode.from_fraction(Fraction(u)) * (line.s2 - line.s1)


def phi(line: LineSegmentSpec, s) -> tuple:
    """The unipotent segment element phi(s), in the line's scalars; upper
    triangular, det = 1."""
    mode = line.mode
    one, zero = from_int(mode, 1), from_int(mode, 0)
    return ((one, s, line.a * s + line.b), (zero, one, zero), (zero, zero, one))


def escape_fraction_by_lambda1(line: LineSegmentSpec, t: FlowTime, delta, N: int,
                               seed: int) -> float:
    """The share of ``sample_translate``'s N rows with lambda1 < delta: the
    escape fraction as counted from each sample's full first minimum."""
    return sum(row["lambda1"] < delta for row in sample_translate(line, t, N, seed)) / N


def csv_per_cell(rows, columns, fmt) -> str:
    """A report's CSV text written a row at a time with ``fmt`` of every cell
    (``""`` for a missing key)."""
    f = io.StringIO(newline="")
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([fmt(row.get(c, "")) for c in columns])
    return f.getvalue()


def lll_reduce_full(cols, delta: float = 0.99):
    """f64 LLL of the three columns ``cols`` that recomputes all Gram-Schmidt
    rows after every size-reduction pass and every swap; returns
    (reduced_columns, transform), U as in ``latflow.lattice.lll_reduce``."""
    cols = [list(col) for col in cols]
    u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    _, mu, norm2 = gram_schmidt_full(cols)
    k = 1
    while k < 3:
        for j in range(k - 1, -1, -1):
            m = round(mu[k][j])  # the mu from before this pass
            if m != 0:
                for i in range(3):
                    cols[k][i] = cols[k][i] - m * cols[j][i]
                    u[k][i] = u[k][i] - m * u[j][i]
        _, mu, norm2 = gram_schmidt_full(cols)
        if norm2[k] >= (delta - mu[k][k - 1] ** 2) * norm2[k - 1]:
            k += 1
        else:
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            _, mu, norm2 = gram_schmidt_full(cols)
            k = max(k - 1, 1)
    return cols, u


# -- generic-rank integral LLL ----------------------------------------------

def lll_reduce_integral_cohen(cols):
    """Cohen's Alg. 2.6.7 for any number of independent integer columns,
    with the rows, size reductions and swaps as generic-rank loops; returns
    (reduced_columns, transform, d, lam) like
    ``latflow.lattice.lll_reduce_integral``, which must match it bit for
    bit on three columns."""
    b = [list(c) for c in cols]
    n = len(b)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    dn, dd = LLL_DELTA_EXACT.numerator, LLL_DELTA_EXACT.denominator
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def dot(x, y):
        return sum(xi * yi for xi, yi in zip(x, y))

    def add_gso_row(k):
        for j in range(k + 1):
            acc = dot(b[k], b[j])
            for i in range(j):
                acc = (d[i + 1] * acc - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = acc
            elif acc == 0:
                raise InvalidInputError("integral LLL needs independent columns")
            else:
                d[k + 1] = acc

    def size_reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            m = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - m * y for x, y in zip(b[k], b[l])]
            u[k] = [x - m * y for x, y in zip(u[k], u[l])]
            lam[k][l] -= m * d[l + 1]
            for i in range(l):
                lam[k][i] -= m * lam[l][i]

    def swap(k, k_max):
        b[k], b[k - 1] = b[k - 1], b[k]
        u[k], u[k - 1] = u[k - 1], u[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        new_d = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new_d * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new_d

    add_gso_row(0)
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            add_gso_row(k)
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        if dd * (d[k + 1] * d[k - 1] + lk * lk) < dn * d[k] * d[k]:
            swap(k, k_max)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return b, u, d, lam


# -- 256-bit float lattice path --------------------------------------------

MP_BITS = 256


def _mp_columns(matrix, log_scale):
    """Columns of the 3x3 row ``matrix`` with the flow scaling applied: the
    exact stored entries times e^{2l}, e^{-l}, e^{-l} at working precision."""
    ell = mpmath.mpf(log_scale)
    scale = (mpmath.exp(2 * ell), mpmath.exp(-ell), mpmath.exp(-ell))
    cols = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            n, d = matrix[i][j].as_integer_ratio()
            cols[j][i] = mpmath.mpf(n) / mpmath.mpf(d) * scale[i]
    return cols


def _combine(cols, x):
    # in the arithmetic of the entries; on f64 columns it rounds as
    # cols[0][i] * x[0] + cols[1][i] * x[1] + cols[2][i] * x[2] does
    return [sum(cols[j][i] * x[j] for j in range(3)) for i in range(3)]


def _sup(v):
    return max(abs(c) for c in v)


def _mp_gso(cols):
    """(mu, norm2) of the Euclidean Gram-Schmidt process on three columns."""
    bstar, norm2 = [], []
    mu = [[0] * 3 for _ in range(3)]
    for i in range(3):
        v = list(cols[i])
        for j in range(i):
            mu[i][j] = sum(a * b for a, b in zip(cols[i], bstar[j])) / norm2[j]
            v = [v[k] - mu[i][j] * bstar[j][k] for k in range(3)]
        bstar.append(v)
        norm2.append(sum(c * c for c in v))
    return mu, norm2


def _mp_lll(cols):
    """LLL (delta = 0.99) of three columns; (reduced, U) with reduced = cols . U."""
    cols = [list(c) for c in cols]
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    k = 1
    while k < 3:
        for j in range(k - 1, -1, -1):
            m = int(mpmath.nint(_mp_gso(cols)[0][k][j]))
            cols[k] = [a - m * b for a, b in zip(cols[k], cols[j])]
            u[k] = [a - m * b for a, b in zip(u[k], u[j])]
        mu, norm2 = _mp_gso(cols)
        if norm2[k] >= (0.99 - mu[k][k - 1] ** 2) * norm2[k - 1]:
            k += 1
        else:
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            k = max(k - 1, 1)
    return cols, u


def _mp_half_ball(cols, bound2):
    """Coefficients x != 0, one per +-pair, with ||cols . x||_2^2 <= bound2
    (Fincke-Pohst)."""
    mu, norm2 = _mp_gso(cols)
    for x2 in range(int(mpmath.floor(mpmath.sqrt(bound2 / norm2[2]))) + 1):
        r2 = bound2 - x2 * x2 * norm2[2]
        c1 = mu[2][1] * x2
        h1 = mpmath.sqrt(max(r2, 0) / norm2[1])
        for x1 in range(int(mpmath.ceil(-h1 - c1)), int(mpmath.floor(h1 - c1)) + 1):
            r1 = r2 - (x1 + c1) ** 2 * norm2[1]
            if (x2 == 0 and x1 < 0) or r1 < 0:
                continue
            c0 = mu[1][0] * x1 + mu[2][0] * x2
            h0 = mpmath.sqrt(r1 / norm2[0])
            for x0 in range(int(mpmath.ceil(-h0 - c0)), int(mpmath.floor(h0 - c0)) + 1):
                if x2 != 0 or x1 != 0 or x0 > 0:
                    yield (x0, x1, x2)


def half_ball_leaves(mu, norm2, bound2):
    """The leaves of the walk of ``lattice._enumerate_half_ball``, one at a
    time and in its order, with no leaf cap: the walk as it was written
    before it yielded whole lines."""
    for x2 in range(0, math.floor(math.sqrt(bound2 / norm2[2])) + 1):
        r2 = bound2 - x2 * x2 * norm2[2]
        if r2 < 0:
            continue
        c1 = mu[2][1] * x2
        half1 = math.sqrt(r2 / norm2[1])
        lo1 = math.ceil(-half1 - c1)
        for x1 in range(lo1 if x2 else max(lo1, 0), math.floor(half1 - c1) + 1):
            t1 = x1 + c1
            r1 = r2 - t1 * t1 * norm2[1]
            if r1 < 0:
                continue
            c0 = mu[1][0] * x1 + mu[2][0] * x2
            half0 = math.sqrt(r1 / norm2[0])
            lo0 = math.ceil(-half0 - c0)
            for x0 in range(lo0 if x1 or x2 else max(lo0, 1), math.floor(half0 - c0) + 1):
                yield (x0, x1, x2)


def _tested_leaves(lat, radius):
    """Each leaf x of ``half_ball_leaves`` of the walk of ``lat`` within
    ``radius``, in order, with whether every row is within the limit at x
    in the rows' own arithmetic: the leaf test, made leaf by leaf."""
    limit = lat._limit(radius)
    bound2 = float(len(lat.rows) * limit * limit / lat.scale2) * (1 + 1e-9) ** 2
    for x in half_ball_leaves(lat.mu, lat.norm2, bound2):
        yield x, all(abs(r0 * x[0] + r1 * x[1] + r2 * x[2]) <= limit
                     for r0, r1, r2 in lat.rows)


def count_leaf_by_leaf(lat, radius) -> tuple[int, int]:
    """Oracle for ``ReducedLattice.count`` below its refusal: (twice the
    leaves that pass the leaf test, and the number of leaves walked)."""
    hits = leaves = 0
    for _, hit in _tested_leaves(lat, radius):
        leaves += 1
        hits += hit
    return 2 * hits, leaves


def points_leaf_by_leaf(lat, radius) -> list[tuple]:
    """Oracle for ``ReducedLattice.points`` of an exact lattice: the
    coefficients w.r.t. the basis of each leaf that passes the leaf test,
    in the walk's order, each leaf tested in full rather than cut a line
    at a time."""
    u = lat.transform
    return [tuple(sum(col[i] * c for col, c in zip(u, x)) for i in range(3))
            for x, hit in _tested_leaves(lat, radius) if hit]


def count_refused(limit, gram_det, budget: int) -> bool:
    """Oracle for the expected-count refusal of ``ReducedLattice.count``:
    (2 limit)^6 / gram_det > budget^2, decided in integers; an f64 Gram
    determinant past the f64 range refuses nothing."""
    ln, ld = limit.as_integer_ratio()
    gn, gd = (1, 0) if gram_det == math.inf else gram_det.as_integer_ratio()
    return (2 * ln) ** 6 * gd > budget ** 2 * gn * ld ** 6


def shortest_vector_mp(matrix, log_scale: float = 0.0):
    """Independent oracle for ``shortest_vector`` of
    ``f64_lattice(matrix, log_scale)``: LLL and Fincke-Pohst
    enumeration in ``MP_BITS``-bit floats.  Returns (lambda1,
    coefficients with respect to the basis columns)."""
    with mpmath.workprec(MP_BITS):
        red, u = _mp_lll(_mp_columns(matrix, log_scale))
        best_x = min(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                     key=lambda x: _sup(_combine(red, x)))
        best = _sup(_combine(red, best_x))
        for x in _mp_half_ball(red, 3 * best * best * (1 + 1e-9)):
            if _sup(_combine(red, x)) < best:
                best, best_x = _sup(_combine(red, x)), x
        return float(best), tuple(int(c) for c in _combine(u, best_x))


def count_points_mp(matrix, log_scale: float, r: float) -> int:
    """Independent oracle for ``count_points``, as ``shortest_vector_mp``."""
    with mpmath.workprec(MP_BITS):
        red, _ = _mp_lll(_mp_columns(matrix, log_scale))
        return 2 * sum(1 for x in _mp_half_ball(red, 3 * r * r * (1 + 1e-12))
                       if _sup(_combine(red, x)) <= r)


def _f64_half_ball(cols, bound2):
    """``_mp_half_ball`` of f64 columns, their Gram-Schmidt data taken at
    ``MP_BITS`` bits from the exact column entries."""
    with mpmath.workprec(MP_BITS):
        return list(_mp_half_ball([[mpmath.mpf(x) for x in c] for c in cols],
                                  mpmath.mpf(bound2)))


def shortest_vector_f64(matrix, log_scale: float = 0.0):
    """Independent oracle for ``shortest_vector`` on the f64 path: the
    full-recompute LLL, the shortest reduced column as the incumbent, and
    every vector of the Euclidean ball of radius sqrt(3) incumbent compared
    by its f64 sup norm.  Returns (lambda1, coefficients with respect to the
    basis columns)."""
    red, u = lll_reduce_full(scaled_columns(matrix, log_scale))
    best_x = min(((1, 0, 0), (0, 1, 0), (0, 0, 1)), key=lambda x: _sup(_combine(red, x)))
    best = _sup(_combine(red, best_x))
    for x in _f64_half_ball(red, 3 * best * best * (1 + 1e-9)):
        if _sup(_combine(red, x)) < best:
            best, best_x = _sup(_combine(red, x)), x
    return best, tuple(_combine(u, best_x))


def count_points_f64(matrix, log_scale: float, r: float) -> int:
    """Independent oracle for ``count_points`` on the f64 path, as
    ``shortest_vector_f64``."""
    red, _ = lll_reduce_full(scaled_columns(matrix, log_scale))
    return 2 * sum(1 for x in _f64_half_ball(red, 3 * r * r * (1 + 1e-12))
                   if _sup(_combine(red, x)) <= r)


def log_fraction(x: Fraction) -> float:
    """ln x for a positive Fraction of any size."""
    return math.log(x.numerator) - math.log(x.denominator)


def _open_int_range(centre: Fraction, half_width: Fraction):
    """The integers p with |centre + p| < half_width."""
    lo = math.floor(-centre - half_width) + 1
    hi = math.ceil(-centre + half_width) - 1
    return range(lo, hi + 1)


def exact_ir_measure(a: Fraction, b: Fraction, s1: Fraction, s2: Fraction,
                     R: Fraction, exp_T: Fraction) -> float:
    """Independent oracle for |I_R intersect [0, T]|, T = ln exp_T.

    A nonzero v = (p1, p2, q) has segment sup-norm
    max(e^{2t} m, e^{-t} |p2|, e^{-t} |q|) with m = max_i |c0 + c1 s_i|,
    c0 = q b + p1, c1 = q a + p2, so it stays below R exactly on the open
    window (ln(max(|p2|, |q|) / R), 1/2 ln(R / m)).  I_R is the union of
    these windows.  A window meeting [0, T] needs q < R e^T (v and -v give
    the same window, so q >= 0), and m < min(R, R^3 / q^2) at a time
    t >= 0; that bounds |c1| < 2 M / (s2 - s1) and |c0| < M (1 + 2|s1| /
    (s2 - s1)) with M = min(R, R^3 / q^2).  Every q in range is filtered
    with exact integer residues and every (p1, p2) in those boxes is
    tried in Fractions, so no candidate is skipped; only the window end
    points are rounded to floats.
    """
    ka = 2 / (s2 - s1)
    kb = 1 + abs(s1) * ka
    windows = []

    def add(p1: int, p2: int, q: int):
        c0 = q * b + p1
        c1 = q * a + p2
        m = max(abs(c0 + c1 * s1), abs(c0 + c1 * s2))
        lo = log_fraction(max(abs(p2), q) / R) if (p2, q) != (0, 0) else -math.inf
        hi = math.inf if m == 0 else 0.5 * log_fraction(R / m)
        if hi > max(lo, 0.0):
            windows.append((max(lo, 0.0), hi))

    def sweep(q: int, bound: Fraction):
        for p2 in _open_int_range(q * a, ka * bound):
            for p1 in _open_int_range(q * b, kb * bound):
                if (p1, p2, q) != (0, 0, 0):
                    add(p1, p2, q)

    sweep(0, R)  # the q = 0 sheets
    # q >= 1: the nearest residues must satisfy dist(q b) < kb R^3 / q^2 and
    # dist(q a) < ka R^3 / q^2; the residues advance by one addition per q
    R3 = R ** 3
    nb, db = (b % 1).numerator, (b % 1).denominator
    na, da = (a % 1).numerator, (a % 1).denominator
    bb, ba = kb * R3, ka * R3
    lim_b, mul_b = bb.numerator * db, bb.denominator
    lim_a, mul_a = ba.numerator * da, ba.denominator
    rb = ra = 0
    for q in range(1, math.ceil(R * exp_T)):  # q < R e^T
        rb += nb
        if rb >= db:
            rb -= db
        ra += na
        if ra >= da:
            ra -= da
        qq = q * q
        if (min(rb, db - rb) * qq * mul_b < lim_b
                and min(ra, da - ra) * qq * mul_a < lim_a):
            sweep(q, min(R, R3 / qq))

    T = log_fraction(exp_T)
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((lo, min(hi, T)) for lo, hi in windows if lo < T):
        if cur_hi is not None and lo <= cur_hi:
            cur_hi = max(cur_hi, hi)
            continue
        if cur_hi is not None:
            total += cur_hi - cur_lo
        cur_lo, cur_hi = lo, hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# -- the cold box search and exact LLL-reducedness ---------------------------

def box_points_cold(forms, bound, q_max: int, block_p2: bool = False):
    """Oracle for ``diophantine._box_points`` on the rational forms
    ``forms``: the same blocks, each with its rows built from ``Fraction``s
    and reduced from the identity, as the search was written before each
    block started from the basis of the block before, and its points taken
    leaf by leaf (``points_leaf_by_leaf``)."""
    Q = 1
    while (B := bound(Q)) is not None:
        end = 2 * Q - 1
        rows = [[x / B for x in f] for f in forms] + [[0, 0, Fraction(1, min(end, q_max))]]
        if block_p2:
            rows.append([0, Fraction(1, end), 0])
        block = []
        for p1, p2, q in points_leaf_by_leaf(ReducedLattice.exact(*integer_scaled(rows)), 1):
            if q < 0:
                p1, p2, q = -p1, -p2, -q
            n = max(abs(p2), q) if block_p2 else q
            if n >= Q or (n == 0 and Q == 1):
                block.append((p1, p2, q))
        yield block
        Q *= 2


def integral_gso(cols):
    """(d, lam) of independent integer columns, from their Gram matrix in
    ``Fraction``s: d[i] is the Gram determinant of the first i columns and
    lam[i][j] = d[j+1] mu[i][j], both integers."""
    n = len(cols)
    gram = [[Fraction(sum(x * y for x, y in zip(u, v))) for v in cols] for u in cols]
    mu = [[Fraction(0)] * n for _ in range(n)]
    norm2 = []
    for i in range(n):
        for j in range(i):
            mu[i][j] = (gram[i][j] - sum(mu[j][k] * mu[i][k] * norm2[k]
                                         for k in range(j))) / norm2[j]
        norm2.append(gram[i][i] - sum(mu[i][k] ** 2 * norm2[k] for k in range(i)))
    d = [1]
    for b2 in norm2:
        d.append(d[-1] * b2)
    assert all(x.denominator == 1 for x in d)
    lam = [[d[j + 1] * mu[i][j] for j in range(i)] for i in range(n)]
    assert all(x.denominator == 1 for row in lam for x in row)
    return [int(x) for x in d], [[int(x) for x in row] for row in lam]


def is_lll_reduced(cols) -> bool:
    """Whether the integer columns are LLL-reduced at ``LLL_DELTA_EXACT``,
    decided in integers from their d and lam: size-reduced,
    2 |lam_ij| <= d_{j+1}, and the Lovasz condition
    d_{k+1} d_{k-1} + lam_{k,k-1}^2 >= delta d_k^2."""
    d, lam = integral_gso(cols)
    dn, dd = LLL_DELTA_EXACT.numerator, LLL_DELTA_EXACT.denominator
    return (all(2 * abs(lam[i][j]) <= d[j + 1] for i in range(len(cols)) for j in range(i))
            and all(dd * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) >= dn * d[k] ** 2
                    for k in range(1, len(cols))))


# -- q-scan witness and E_q searches ---------------------------------------

def _ratio_float(n: int, d: int) -> float:
    """n/d as a float, safe for arbitrarily large integers."""
    try:
        return n / d
    except OverflowError:
        shift = max(n.bit_length(), d.bit_length()) - 900
        return (n >> shift) / (d >> shift)


def _nearest_signed(q: int, num: int, den: int, r: int) -> tuple[int, Fraction]:
    """Given r = (q*num) mod den, the round-half-even nearest integer p to
    -q*num/den and the signed residual q*num/den + p."""
    floor_val = (q * num - r) // den
    if 2 * r < den or (2 * r == den and floor_val % 2 == 0):
        return -floor_val, Fraction(r, den)
    return -(floor_val + 1), Fraction(r - den, den)


class ResidualScan:
    """Incremental exact residues of q*a and q*b modulo 1 for q = 1, 2, ...

    Maintains rb = (q * num_b) mod den_b and ra likewise with two integer
    additions per step; the nearest-integer distances are min(r, den - r).
    """

    def __init__(self, a, b):
        self.na, self.da = a.as_integer_ratio()
        self.nb, self.db = b.as_integer_ratio()

    def iterate(self, q_max: int):
        ra = rb = 0
        da, db = self.da, self.db
        sa, sb = self.na % da, self.nb % db
        for q in range(1, q_max + 1):
            ra += sa
            if ra >= da:
                ra -= da
            rb += sb
            if rb >= db:
                rb -= db
            yield q, rb, ra

    def dist_floats(self, rb: int, ra: int) -> tuple[float, float]:
        return (_ratio_float(min(rb, self.db - rb), self.db),
                _ratio_float(min(ra, self.da - ra), self.da))

    def nearest_b(self, q: int, rb: int) -> tuple[int, Fraction]:
        """Nearest integer p1 to -q*b and the signed residual q*b + p1."""
        return _nearest_signed(q, self.nb, self.db, rb)

    def nearest_a(self, q: int, ra: int) -> tuple[int, Fraction]:
        return _nearest_signed(q, self.na, self.da, ra)

    def witness(self, q: int, rb: int, ra: int, bound):
        """The witness (p1, p2, q, |q b + p1|, |q a + p2|, bound) of q."""
        p1, res_b = self.nearest_b(q, rb)
        p2, res_a = self.nearest_a(q, ra)
        return (p1, p2, q, abs(res_b), abs(res_a), bound)

    def both_within(self, rb: int, ra: int, bound: Fraction) -> bool:
        """Both nearest residuals at most ``bound``, compared in integers."""
        n, d = bound.numerator, bound.denominator
        return (min(rb, self.db - rb) * d <= n * self.db
                and min(ra, self.da - ra) * d <= n * self.da)


def w2_witness_search_scan(a, b, C, q_max: int):
    """Oracle for ``w2_witness_search``: one step per q, a float filter and
    the exact integer test."""
    cn, cd = C.as_integer_ratio()
    scan = ResidualScan(a, b)
    c_f = _ratio_float(cn, cd)
    hits = []
    for q, rb, ra in scan.iterate(q_max):
        fb, fa = scan.dist_floats(rb, ra)
        if max(fb, fa) > c_f / (q * q) * (1 + 1e-9):
            continue
        bound = Fraction(cn, cd) / (q * q)
        if scan.both_within(rb, ra, bound):
            hits.append(scan.witness(q, rb, ra, bound))
    return hits


def w2eps_witness_search_scan(a, b, eps, q_max: int):
    """Oracle for ``w2eps_witness_search``: one step per q and the exact test
    r^d q^n <= 1 of each residual r, with 2 + eps = n/d; only for eps of
    small denominator d."""
    two_plus_eps = 2 + Fraction(eps)
    n, d = two_plus_eps.numerator, two_plus_eps.denominator
    exponent = float(two_plus_eps)
    scan = ResidualScan(a, b)
    hits = []
    for q, rb, ra in scan.iterate(q_max):
        if all(min(r, den - r) ** d * q ** n <= den ** d
               for r, den in ((rb, scan.db), (ra, scan.da))):
            hits.append(scan.witness(q, rb, ra, Fraction(q ** -exponent)))
    return hits


def w2inf_profile_scan(a, b, C_list, q_max: int):
    """Oracle for ``w2inf_profile``: the first q of the scan that meets each C."""
    cs = [Fraction(C) for C in C_list]
    scan = ResidualScan(a, b)
    found = {}
    for q, rb, ra in scan.iterate(q_max):
        if len(found) == len(cs):
            break
        for i, c in enumerate(cs):
            if i not in found and scan.both_within(rb, ra, c / (q * q)):
                found[i] = scan.witness(q, rb, ra, c / (q * q))
    return [dio.W2InfEntry(C=c, witness=found.get(i)) for i, c in enumerate(cs)]


def ir_density_scan(line, R, T, q_max: int, dt: float = 0.01):
    """Oracle for ``ir_density``: the nonempty E_q found one step per q, their
    union, and the grid count decided per grid time by ``in_ir_at`` over
    the same E_q candidates."""
    T = float(T)
    R_f = float(R)
    r_fr = Fraction(R)
    r1_fr = dio.sup_operator_norm_R1(line, R)
    R1_f = float(r1_fr)
    scan = ResidualScan(line.a, line.b)
    intervals = []
    candidates = []
    for q, rb, ra in scan.iterate(q_max):
        fb, fa = scan.dist_floats(rb, ra)
        if max(fb, fa) > R1_f * R_f * R_f / (q * q) * (1 + 1e-9):
            continue
        dist = max(Fraction(min(rb, scan.db - rb), scan.db),
                   Fraction(min(ra, scan.da - ra), scan.da))
        lo = max(math.log(q) - math.log(R_f), 0.0)
        if dist == 0:
            iv = {"q": q, "lo": lo, "hi": None, "rational_hit": True}
        elif dist * q * q >= r1_fr * r_fr * r_fr:
            continue
        else:
            hi = 0.5 * math.log(R1_f) - 0.5 * log_fraction(dist)
            if hi <= 0.0:
                continue
            iv = {"q": q, "lo": lo, "hi": hi, "rational_hit": False}
        p1, res_b = scan.nearest_b(q, rb)
        p2, res_a = scan.nearest_a(q, ra)
        intervals.append(iv)
        candidates.append((q, math.log(q), p1, p2, float(res_b), float(res_a)))
    s1, s2 = float(line.s1), float(line.s2)
    n_grid = int(math.floor(T / dt + 1e-9)) + 1
    inside = sum(in_ir_at(i * dt, R_f, R1_f, candidates, s1, s2, math.log(R_f))
                 for i in range(n_grid))
    union = dio._union_length((iv["lo"], T if iv["hi"] is None else min(iv["hi"], T))
                              for iv in intervals)
    return intervals, float(union), inside * dt


def in_ir_at(t, R, R1, candidates, s1, s2, log_r) -> bool:
    """Membership of t in I_R, decided in floats over the residual
    candidates (q, ln q, p1, p2, q b + p1, q a + p2) of the nearest p's.

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
    # q = 0, p2 != 0 sheet: m < R e^{-2t} <= 1 puts p1 within 1 of
    # -p2 (s1 + s2) / 2
    p2_cap = int(2 * R / (e2t * (s2 - s1))) + 1
    for p2 in range(1, p2_cap + 1):
        if emt * p2 >= R:
            break
        base = math.floor(-p2 * (s1 + s2) / 2.0)
        for p1 in range(base - 1, base + 3):
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


# -- numpy Dirichlet grid ----------------------------------------------------

def dirichlet_grid(x1: float, x2: float, delta: float, T: float) -> bool:
    """Oracle for ``dirichlet_direct``: the smallest |x . q + p| over the
    (2 floor(T) + 1)^2 - 1 pairs 0 < ||q||_inf <= T on a numpy grid, compared
    exactly with delta T^-2.  The grid is exact when x1, x2 are floats whose
    products with |q| <= T and sums are exact (dyadics with few bits)."""
    tb = int(math.floor(T))
    rng = np.arange(-tb, tb + 1)
    vals = x1 * rng[:, None] + x2 * rng[None, :]
    dist = np.abs(vals - np.rint(vals))
    dist[tb, tb] = np.inf  # exclude q = 0
    return Fraction(float(dist.min())) <= Fraction(delta) / Fraction(T) ** 2


# -- q-scan segment minimum ------------------------------------------------

def segment_minimum_scan(line: LineSegmentSpec, t: FlowTime, R_cap: float,
                         budget: int = SEGMENT_MINIMUM_SCAN_BUDGET) -> tuple | None:
    """Minimize sup_{s in I} ||g_t phi(s) v||_inf over nonzero integer v,
    reporting (v, value) for the minimizer when its value is <= R_cap (else
    None).

    The search window is the one a norm bound forces: q in [0, R_cap e^t],
    p1 and p2 within ceil(R1 e^{-2t} + 1) of the nearest integers to -q b,
    -q a (with R1 the sup-operator-norm multiple of R_cap), plus the q = 0
    sheets.  Two sound prunings keep it fast without giving up exhaustiveness:
    q's are visited in ascending order and abandoned once e^{-t} q reaches
    the incumbent (the third coordinate alone is already no better), and a
    q is skipped when even its nearest residual violates the necessary
    residual bound for beating the incumbent.
    """
    if R_cap < 1:
        raise InvalidInputError("R_cap must be >= 1")
    # the R_cap bounds are widened by SLACK so that float rounding never cuts
    # off a vector whose exact value is R_cap (at e^t = 44,
    # math.exp(math.log(44)) < 44 would drop q = 44); a vector tying the
    # incumbent later in the scan loses the tie to it anyway
    SLACK = 1 + 1e-9
    e2t = math.exp(2 * t.t)
    emt = math.exp(-t.t)
    s1 = float(line.s1)
    s2 = float(line.s2)
    opn = max(abs(s1) + abs(s2), 2.0) / (s2 - s1)  # ||inv([[1, s1], [1, s2]])||_sup

    best = None  # (value_float, (p1, p2, q))
    near = []  # candidates within 1e-9 of the incumbent, for exact re-ranking

    def consider(val: float, vec):
        nonlocal best, near
        if best is None or val < best[0]:
            if best is not None and val > best[0] * (1 - 1e-9):
                near.append(best)
            best = (val, vec)
            near = [c for c in near if c[0] <= best[0] * (1 + 1e-9)]
        elif val <= best[0] * (1 + 1e-9):
            near.append((val, vec))

    # q = 0, p2 = 0: value e^{2t} |p1|
    consider(e2t, (1, 0, 0))
    # q = 0, p2 != 0: first coordinate is p1 + p2 s
    p2 = 1
    while True:
        lb = max(emt * p2, e2t * p2 * (s2 - s1) / 2)
        if best is not None and lb >= best[0]:
            break
        if emt * p2 > R_cap * SLACK and e2t * p2 * (s2 - s1) / 2 > R_cap * SLACK:
            break
        mid = -p2 * (s1 + s2) / 2.0
        for p1 in range(math.floor(mid) - 1, math.floor(mid) + 3):
            first = e2t * max(abs(p1 + p2 * s1), abs(p1 + p2 * s2))
            consider(max(first, emt * p2), (p1, p2, 0))
        p2 += 1

    scan = ResidualScan(line.a, line.b)
    q_hi = int(math.floor(R_cap * math.exp(t.t) * SLACK)) if t.t < 700 else None
    if q_hi is None:
        raise BudgetError("flow time too large for the q window")
    w = None
    examined = 0
    for q, rb, ra in scan.iterate(q_hi):
        if emt * q >= best[0]:
            break
        if w is None:
            # set on first use: a subnormal s2 - s1 makes opn infinite, but
            # then a q = 0 vector already ends the scan at q = 1
            w = math.ceil(opn * R_cap * emt * emt + 1)
        examined += 1
        if examined > budget:
            raise BudgetError(
                f"segment minimum examined more than {budget} candidates; "
                "reduce R_cap or the flow time")
        fb, fa = scan.dist_floats(rb, ra)
        # necessary condition to beat the incumbent: residuals below
        # opnorm * value * e^{-2t}
        if max(fb, fa) > opn * best[0] / e2t * (1 + 1e-9):
            continue
        p1n, res_b = scan.nearest_b(q, rb)
        p2n, res_a = scan.nearest_a(q, ra)
        rbf = float(res_b)
        raf = float(res_a)
        for d2 in range(-w, w + 1):
            ca = raf + d2
            p2v = p2n + d2
            second = emt * abs(p2v)
            for d1 in range(-w, w + 1):
                cb = rbf + d1
                first = e2t * max(abs(cb + ca * s1), abs(cb + ca * s2))
                consider(max(first, second, emt * q), (p1n + d1, p2v, q))

    # rank the near ties exactly, on the stored values of e^{2t}, e^{-t}, a,
    # b, s1 and s2 (float rounding can tie or swap them); equal values go to
    # the smallest (q, p2, p1)
    fe2, fem, fa, fb, fs1, fs2 = (Fraction(x) for x in (
        t.factor(2, line.mode), t.factor(-1, line.mode),
        line.a, line.b, line.s1, line.s2))

    def exact_key(vec):
        p1, p2, q = vec
        c0, c1 = q * fb + p1, q * fa + p2
        return (max(fe2 * abs(c0 + c1 * fs1), fe2 * abs(c0 + c1 * fs2),
                    fem * abs(p2), fem * abs(q)), vec[::-1])

    best_vec = min((vec for _, vec in [best] + near), key=exact_key)
    best_val = segment_sup(line, t, best_vec)
    exactable = line.mode.kind == "rational" and isinstance(t, ExactFlowTime)
    cap = Fraction(R_cap) if exactable else float(R_cap)
    if best_val > cap:
        return None
    return best_vec, best_val


# -- the two-sample KS statistic by bisection --------------------------------

def ks_distance_bisect(sample_a, sample_b) -> float:
    """Independent oracle for ``experiments.ks_distance``: the ECDF gap
    |i n2 - j n1| at each pooled point, i and j found by bisecting each
    sorted sample, its maximum over n1 n2."""
    a, b = sorted(map(float, sample_a)), sorted(map(float, sample_b))
    h = max(abs(bisect_right(a, x) * len(b) - bisect_right(b, x) * len(a)) for x in a + b)
    return h / (len(a) * len(b))
