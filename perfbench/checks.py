"""Correctness checks on each operation's JSON report.

``check_report`` re-derives what it can independently of the code under
test and returns a list of problems (empty when the report is correct):

* classify: every witness is re-verified exactly, with integer and
  ``Fraction`` arithmetic, from the (a, b) the operation searched -- its
  residuals, that p1 and p2 are the nearest integers, and its class bound;
  the witness sets and minimal W2inf witnesses are recomputed for q <= 2000;
  the Q^2 certificate is checked exactly.
* density: every E_q interval is re-derived exactly (nonemptiness) and in
  floats (end points); the nonempty q <= 2000 are recomputed.
* equidist: Minkowski's bound lambda_1 <= 1, point counts even and
  consistent with lambda_1, the summary (mean counts, escape fractions,
  KS distances) recomputed from the samples, and lambda_1 of the first
  samples at each t <= 5 re-solved by exhaustive search.
* orbit: each minimum vector's segment supremum recomputed from exact
  residuals, cap and escape-fraction consistency.
* dirichlet: horizons T = e^t delta^(1/3) and the verdict flags.

(a, b) are the scalars the CLI parsed (``latflow.scalars.named_scalar`` in
the operation's mode), converted to exact rationals here: the checks cover
the searches and the lattice computations, not number parsing.

``fingerprint`` and ``compare`` give the reference comparison: integers,
vectors, booleans, strings and flags must match exactly, floats to a
relative tolerance of FLOAT_RTOL, so that a rewrite with the same
mathematics but another evaluation order still passes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12
PREFIX_Q = 2000  # q range re-scanned independently
BRUTE_FORCE_MAX_T = 5.0  # equidist samples re-solved by exhaustive search
BRUTE_FORCE_SAMPLES = 4
BRUTE_FORCE_RTOL = 1e-7  # float64 evaluation of a different expression
REFERENCE_HEAD = 16  # sample rows kept in a reference fingerprint (plus tail)
REFERENCE_TAIL = 4


def exact(x) -> Fraction:
    """The exact rational value of an int, Fraction, float or mpmath mpf."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(*x.as_integer_ratio())
    man, exp = x.man_exp  # mpmath.mpf
    return Fraction(int(man)) * (Fraction(2) ** int(exp))


def _opts(argv: list[str]) -> dict:
    out = {}
    i = 3
    while i < len(argv):
        if "=" in argv[i]:
            key, value = argv[i].split("=", 1)
            i += 1
        else:
            key, value = argv[i], argv[i + 1]
            i += 2
        out[key.lstrip("-")] = value
    return out


def _close(x: float, y: float) -> bool:
    return math.isclose(x, y, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)


def _dist(q: int, x: Fraction) -> Fraction:
    """Distance from q*x to the nearest integer."""
    r = (q * x.numerator) % x.denominator
    return Fraction(min(r, x.denominator - r), x.denominator)


class Checker:
    """Checks reports; ``parse(text, mode_spec)`` returns the CLI's scalar."""

    def __init__(self, parse):
        self._parse = parse

    def value(self, text: str, mode: str) -> Fraction:
        return exact(self._parse(text, mode))

    def check_report(self, argv: list[str], rc: int, doc: dict | None) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if doc is None:
            return ["no JSON report written"]
        if doc.get("schema_version") != 1 or doc["config"].get("subcommand") != argv[0]:
            return ["report header does not match the operation"]
        return getattr(self, "_" + argv[0])(argv, _opts(argv), doc)

    # -- classify ------------------------------------------------------------

    def _classify(self, argv, opts, doc):
        mode = opts.get("mode", "f64")
        a, b = self.value(argv[1], mode), self.value(argv[2], mode)
        q_max = int(opts.get("q-max", 10000))
        C = self.value(opts.get("C", "1"), mode)
        eps = self.value(opts.get("eps", "1"), mode)
        c_list = [self.value(c, mode) for c in opts.get("C-list", "1,1e-3,1e-6").split(",")]
        n_exp, d_exp = (2 + eps).numerator, (2 + eps).denominator
        bad = []

        def within(kind, param, q, r):
            if kind == "W2o":
                return r.numerator ** d_exp * q ** n_exp <= r.denominator ** d_exp
            return r * q * q <= param

        rows = {"W2": [], "W2o": [], "W2inf": []}
        for row in doc["samples"]:
            kind = row["class"].split("(")[0]
            q, p1, p2 = row["q"], row["p1"], row["p2"]
            r1, r2 = Fraction(row["residual1"]), Fraction(row["residual2"])
            if not 1 <= q <= q_max:
                bad.append(f"witness q={q} outside [1, {q_max}]")
                continue
            if r1 != abs(q * b + p1) or r2 != abs(q * a + p2):
                bad.append(f"witness q={q}: residuals do not match (a, b)")
            if r1 > Fraction(1, 2) or r2 > Fraction(1, 2):
                bad.append(f"witness q={q}: p1, p2 are not nearest integers")
            if kind == "W2inf":
                cf = float(row["class"].split("=")[1].rstrip(")"))
                param = next((c for c in c_list if float(c) == cf), None)
                if param is None:
                    bad.append(f"witness q={q}: unknown constant {row['class']}")
                    continue
            else:
                param = C
            if not (within(kind, param, q, r1) and within(kind, param, q, r2)):
                bad.append(f"witness q={q}: {row['class']} bound violated")
            rows[kind].append((q, param))

        s = doc["summary"]
        if s["w2_witnesses"] != len(rows["W2"]) or s["w2eps_witnesses"] != len(rows["W2o"]):
            bad.append("witness counts in summary do not match the rows")
        # independent rescan of q <= PREFIX_Q
        top = min(q_max, PREFIX_Q)
        dists = [(q, _dist(q, b), _dist(q, a)) for q in range(1, top + 1)]
        for kind, param in (("W2", C), ("W2o", None)):
            want = [q for q, db, da in dists
                    if within(kind, param, q, db) and within(kind, param, q, da)]
            got = sorted(q for q, _ in rows[kind] if q <= top)
            if want != got:
                bad.append(f"{kind} witnesses for q <= {top} differ from a rescan")
        profile = s["w2inf_profile"]
        for c, entry in zip(c_list, profile):
            first = next((q for q, db, da in dists if max(db, da) * q * q <= c), None)
            got = entry["min_witness_q"]
            if first is not None and got != first:
                bad.append(f"W2inf C={float(c):g}: minimal q {got}, rescan {first}")
            if first is None and got is not None and got <= top:
                bad.append(f"W2inf C={float(c):g}: q={got} not confirmed by rescan")
            if entry["found"] != (got is not None):
                bad.append("W2inf profile found flag inconsistent")
        if len(profile) != len(c_list):
            bad.append("W2inf profile length differs from the C-list")
        cert = s["rational_certificate"]
        if mode == "rational":
            q = math.lcm(a.denominator, b.denominator)
            if cert != [int(b * q), int(a * q), q]:
                bad.append("rational certificate wrong")
        elif cert is not None:
            bad.append("certificate reported for non-rational inputs")
        return bad

    # -- density -------------------------------------------------------------

    def _density(self, argv, opts, doc):
        mode = opts.get("mode", "f64")
        a, b = self.value(argv[1], mode), self.value(argv[2], mode)
        R = self.value(opts.get("R", "2"), mode)
        s = doc["summary"]
        R1 = Fraction(s["R1"])
        cap = R1 * R * R
        bad = []

        def expected(q):
            d = max(_dist(q, b), _dist(q, a))
            lo = max(math.log(q) - math.log(float(R)), 0.0)
            if d == 0:
                return lo, None
            if d * q * q >= cap:
                return None
            hi = 0.5 * math.log(float(R1)) - 0.5 * (math.log(d.numerator) - math.log(d.denominator))
            return (lo, hi) if hi > 0 else None

        seen = []
        for row in doc["samples"]:
            q = row["q"]
            seen.append(q)
            want = expected(q)
            if want is None:
                bad.append(f"E_{q} reported but empty")
                continue
            lo, hi = want
            if not _close(row["lo"], lo) or (hi is None) != (row["hi"] is None) \
                    or (hi is not None and not _close(row["hi"], hi)) \
                    or row["rational_hit"] != (hi is None):
                bad.append(f"E_{q} end points differ")
        top = min(s["q_max"], PREFIX_Q)
        want_q = [q for q in range(1, top + 1) if expected(q) is not None]
        if want_q != [q for q in seen if q <= top]:
            bad.append(f"nonempty E_q for q <= {top} differ from a rescan")
        if s["n_nonempty_Eq"] != len(seen):
            bad.append("interval count in summary does not match the rows")
        T = s["T"]
        if not _close(s["union_density"] * T, s["union_measure"]) \
                or not _close(s["direct_density"] * T, s["direct_measure"]):
            bad.append("densities do not match measures")
        if not 0 <= s["union_measure"] <= T + 1e-9 or not 0 <= s["direct_measure"] <= T + 0.011:
            bad.append("measures outside [0, T]")
        return bad

    # -- equidist ------------------------------------------------------------

    def _equidist(self, argv, opts, doc):
        n = int(opts["N"])
        ts = [float(t) for t in opts["t-list"].split(",")]
        radii = [float(r) for r in opts["radii"].split(",")]
        delta = float(opts.get("delta", 0.05))
        rows = doc["samples"]
        bad = []
        if len(rows) != n * len(ts):
            return [f"{len(rows)} samples, expected {n * len(ts)}"]
        lam = {t: [] for t in ts}
        counts = {(t, r): 0 for t in ts for r in radii}
        for i, row in enumerate(rows):
            t = ts[i // n]
            l1 = row["lambda1"]
            lam[t].append(l1)
            if not 0 < l1 <= 1 + 1e-9:
                bad.append(f"lambda1 {l1} outside (0, 1] (Minkowski)")
            for r in radii:
                c = row[f"count_r{r:g}"]
                counts[(t, r)] += c
                if c < 0 or c % 2 or (c >= 2) != (l1 <= r * (1 + 1e-12)):
                    bad.append(f"count {c} at r={r:g} inconsistent with lambda1 {l1}")
        if bad:
            return bad[:5]
        s = doc["summary"]
        for t in ts:
            for r in radii:
                if not _close(s["mean_counts"][f"t={t:g},r={r:g}"], counts[(t, r)] / n):
                    bad.append(f"mean count t={t:g} r={r:g} differs")
            esc = sum(l1 < delta for l1 in lam[t]) / n
            if not _close(s["escape_fractions"][f"t={t:g}"], esc):
                bad.append(f"escape fraction t={t:g} differs")
        for t1, t2 in zip(ts, ts[1:]):
            if abs(s["ks_distance"][f"{t1:g}->{t2:g}"] - ks_statistic(lam[t1], lam[t2])) > 1e-12:
                bad.append(f"KS distance {t1:g}->{t2:g} differs")
        mode = opts.get("mode", "f64")
        a, b = float(self.value(argv[1], mode)), float(self.value(argv[2], mode))
        for i, t in enumerate(ts):
            if t > BRUTE_FORCE_MAX_T:
                continue
            for row in rows[i * n:i * n + BRUTE_FORCE_SAMPLES]:
                want = brute_force_lambda1(a, b, row["s"], t)
                if not math.isclose(row["lambda1"], want, rel_tol=BRUTE_FORCE_RTOL):
                    bad.append(f"lambda1 {row['lambda1']} at s={row['s']}, t={t:g}; "
                               f"brute force gives {want}")
        return bad

    # -- orbit ---------------------------------------------------------------

    def _orbit(self, argv, opts, doc):
        mode = opts.get("mode", "f64")
        a, b = self.value(argv[1], mode), self.value(argv[2], mode)
        s1_t, s2_t = opts.get("interval", "0,1").split(",")
        s1, s2 = self.value(s1_t, mode), self.value(s2_t, mode)
        r_cap = float(opts.get("R-cap", 6.0))
        n = int(opts.get("N", 50))
        bad = []
        for row in doc["samples"]:
            t, vec = row["t"], row["min_vector"]
            if row["below_cap"] != (vec is not None):
                bad.append(f"t={t}: below_cap inconsistent")
            if vec is not None:
                p1, p2, q = vec
                if p1 == p2 == q == 0:
                    bad.append(f"t={t}: zero minimum vector")
                    continue
                first = max(abs(p1 + p2 * s + q * (a * s + b)) for s in (s1, s2))
                value = max(math.exp(2 * t) * float(first),
                            math.exp(-t) * abs(p2), math.exp(-t) * abs(q))
                if not _close(row["min_value"], value):
                    bad.append(f"t={t}: min_value {row['min_value']} but vector gives {value}")
                if row["min_value"] > r_cap * (1 + 1e-12):
                    bad.append(f"t={t}: minimum above R_cap reported")
            k = row["escape_fraction"] * n
            if not 0 <= row["escape_fraction"] <= 1 or abs(k - round(k)) > 1e-9:
                bad.append(f"t={t}: escape fraction not a multiple of 1/N")
        return bad

    # -- dirichlet -----------------------------------------------------------

    def _dirichlet(self, argv, opts, doc):
        delta = float(opts.get("delta", 0.9))
        step = float(opts.get("direct-step", 0.5))
        thr = delta ** (1.0 / 3.0)
        s = doc["summary"]
        bad = []
        if not _close(s["threshold"], thr):
            bad.append("threshold is not delta^(1/3)")
        agree = considered = 0
        for row in doc["samples"]:
            t, lam = row["t"], row["lambda1"]
            if abs(t / step - round(t / step)) > 1e-9 or not _close(row["T"], math.exp(t) * thr):
                bad.append(f"t={t}: horizon T is not e^t delta^(1/3)")
            if not 0 < lam <= 1 + 1e-9:
                bad.append(f"t={t}: lambda1 {lam} outside (0, 1] (Minkowski)")
            if row["dynamical_outside_K"] != (lam < thr) \
                    or row["marginal"] != (abs(lam - thr) <= 0.02) \
                    or row["agree"] != (row["dynamical_outside_K"] == row["direct_solvable"]):
                bad.append(f"t={t}: verdict flags inconsistent")
            if not row["marginal"]:
                considered += 1
                agree += row["agree"]
        if s["n_checked"] != considered or (
                considered and not _close(s["agreement"], agree / considered)):
            bad.append("agreement summary inconsistent with samples")
        return bad


def brute_force_lambda1(a: float, b: float, s: float, t: float) -> float:
    """Sup-norm first minimum of g_t phi(s) Z^3 by exhaustive search.

    A vector (p1, p2, q) maps to (e^2t (p1 + p2 s + q (a s + b)), e^-t p2,
    e^-t q).  Minkowski gives lambda_1 <= 1, so |p2|, |q| <= e^t, and for
    fixed (p2, q) != 0 the nearest integer p1 is best; (p2, q) = 0 leaves
    (p1, 0, 0) with norm >= e^2t > 1.
    """
    m = math.floor(math.exp(t))
    p2, q = np.meshgrid(np.arange(-m, m + 1), np.arange(-m, m + 1))
    x = p2 * s + q * (a * s + b)
    norm = np.maximum(np.exp(2 * t) * np.abs(x - np.rint(x)),
                      np.exp(-t) * np.maximum(np.abs(p2), np.abs(q)))
    norm[m, m] = np.inf
    return float(norm.min())


def ks_statistic(x, y) -> float:
    """Two-sample Kolmogorov-Smirnov statistic, from the pooled sample."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    pooled = np.concatenate([x, y])
    fx = np.searchsorted(x, pooled, side="right") / x.size
    fy = np.searchsorted(y, pooled, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


# -- reference fingerprints ---------------------------------------------------

def fingerprint(rc: int, doc: dict | None) -> dict:
    """The part of a report compared against the recorded reference."""
    if doc is None:
        return {"rc": rc}
    rows = doc["samples"]
    if len(rows) > REFERENCE_HEAD + REFERENCE_TAIL:
        rows = rows[:REFERENCE_HEAD] + rows[-REFERENCE_TAIL:]
    config = {k: v for k, v in doc["config"].items() if k != "out"}
    return {"rc": rc, "config": config, "summary": doc["summary"],
            "flags": doc["flags"], "n_samples": len(doc["samples"]), "samples": rows}


def compare(got, want, path="") -> list[str]:
    """Differences between two fingerprints: exact except floats (FLOAT_RTOL)."""
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return [] if _close(float(got), want) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        return [d for k in want for d in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in compare(g, w, f"{path}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []
