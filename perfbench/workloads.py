"""Seeded operation lists for the three benchmark workloads.

Each workload is a fixed schedule of operation templates: the template
fixes what drives the cost (subcommand, scalar kind, q_max, sample count,
flow-time window), and the seed draws the numbers inside it (the pair
(a, b), the interval, the radius, the dirichlet delta inside its stratum,
sampling seeds).  Every seed
therefore does about the same amount of work, so run-to-run spread measures
the machine and the program, not the draw.

Every operation stays inside the CLI's documented limits, so none of them
exits non-zero at a correct program:
  * f64 witness searches keep q_max <= 2^20 (exit 4 beyond);
  * dirichlet keeps T = e^t_max * delta^(1/3) <= 1000 (exit 3 beyond);
  * equidist keeps t <= 8, where shortest_vector stays on the f64 path.

An operation is the argv of ``latflow.cli.main`` without ``--out``.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("arith", "translates", "orbit")

# The README's example command of each subcommand a workload runs; each is
# one fixed operation of that workload (its --out is supplied per run).
README_OPS = {
    "arith": [
        ["classify", "liouville:4", "liouville:4", "--mode", "rational",
         "--q-max", "1000000"],
        ["classify", "sqrt2", "sqrt3", "--mode", "bigfloat:256",
         "--q-max", "100000", "--eps", "0.5"],
        ["density", "liouville:4", "liouville:4", "--mode", "rational",
         "--R", "2", "--T", "13.8155"],
    ],
    "translates": [
        ["equidist", "sqrt2", "sqrt3", "--t-list", "5,7", "--N", "1000",
         "--radii", "1.5", "--seed", "1"],
    ],
    "orbit": [
        ["orbit", "1/2", "1/3", "--mode", "rational", "--t-grid", "0:8:1"],
        ["dirichlet", "sqrt2", "sqrt3", "--s", "0.3", "--delta", "0.6",
         "--t-max", "6"],
    ],
}

# arith: (subcommand, scalar kind, q_max).  With the README commands the
# operations fall into three groups of similar cost: the two q_max = 10^6
# README commands, the classify calls at q_max = 10^5, and the density calls
# at q_max = 10^5.  The groups are sized so that the pooled median latency
# falls well inside the density group and the tail inside the classify
# group for every seed.
ARITH_TEMPLATES = [
    ("classify", "rational", 100_000),
    ("classify", "f64", 100_000),
    ("density", "rational", 100_000),
    ("density", "rational", 100_000),
    ("density", "rational", 100_000),
    ("density", "bigfloat", 100_000),
    ("density", "bigfloat", 100_000),
    ("density", "bigfloat", 100_000),
    ("density", "f64", 100_000),
    ("density", "f64", 100_000),
    ("density", "rational", 100_000),
    ("density", "bigfloat", 100_000),
    ("density", "f64", 100_000),
    ("density", "rational", 100_000),
]

# translates: every seeded operation has the same shape, TRANSLATE_N samples
# at each of TRANSLATE_T_LIST, which spans t in [3, 8]; the seed draws the
# pair, the interval, the radius in [1, 2] and the sampling seed.  Operations
# of one shape cost about the same, so the pooled median and tail latencies
# are quantiles of one distribution rather than whichever differently sized
# operations a seed puts at those ranks.
TRANSLATE_OPS = 12
TRANSLATE_N = 200
TRANSLATE_T_LIST = "3,5,6.5,8"

# orbit: (t-grid, N, count).  Segment minima at a single flow time cost
# about the same whatever the pair, so each row is a group of similar
# operations: the t = 12 and t = 11.5 rows (escape fractions on the 256-bit
# path) hold op_tail_s, and the t = 9.5 row (f64 path) is numerous enough
# to hold the median latency, for every seed.  Then dirichlet runs: the
# fixed (7, 0.6) one has T ~ 924; seeded deltas stay below
# DIRICHLET_MAX_DELTA, so it is the largest direct grid and every seed
# reaches the same peak memory.  The seeded deltas are stratified over
# [DIRICHLET_MIN_DELTA, DIRICHLET_MAX_DELTA], one per stratum, so the grid
# sizes barely move with the seed.
ORBIT_TEMPLATES = [
    ("12", 5, 1),
    ("11.5", 5, 5),
    ("9.5", 10, 10),
]
DIRICHLET_FIXED = (7.0, 0.6)
DIRICHLET_T_MAX = 7.0
DIRICHLET_STRATA = 2
DIRICHLET_MIN_DELTA = 0.3
DIRICHLET_MAX_DELTA = 0.55

NAMED_IRRATIONALS = ("sqrt2", "sqrt3", "golden")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _decimal(rng: random.Random, digits: int) -> str:
    return "0." + "".join(str(rng.randrange(10)) for _ in range(digits - 1)) \
        + str(rng.randrange(1, 10))


def _big_ratio(rng: random.Random) -> str:
    q = rng.randrange(10 ** 24, 10 ** 30)
    p = rng.randrange(1, q)
    return f"{p}/{q}"


def _pair(rng: random.Random, kind: str) -> tuple[str, str, str]:
    """(a, b, mode spec) for one of the three arithmetic kinds."""
    if kind == "rational":
        a = "liouville:4" if rng.random() < 0.3 else _big_ratio(rng)
        return a, _big_ratio(rng), "rational"
    if kind == "bigfloat":
        a = rng.choice(NAMED_IRRATIONALS)
        return a, _decimal(rng, 30), "bigfloat:256"
    return _decimal(rng, 12), _decimal(rng, 12), "f64"


def _arith(rng: random.Random) -> list[list[str]]:
    ops = []
    for sub, kind, q_max in ARITH_TEMPLATES:
        a, b, mode = _pair(rng, kind)
        argv = [sub, a, b, "--mode", mode, "--q-max", str(q_max)]
        if sub == "classify":
            argv += ["--C", rng.choice(["1", "0.5", "2"]),
                     "--eps", rng.choice(["0.25", "0.5", "1"])]
        else:
            argv += ["--R", rng.choice(["1.5", "2", "2.5", "3"]),
                     "--T", f"{math.log(q_max):.4f}"]
        ops.append(argv)
    return ops


def _interval(rng: random.Random) -> str:
    s1 = round(rng.uniform(-0.5, 0.3), 3)
    s2 = round(s1 + rng.uniform(0.2, 0.7), 3)
    return f"{s1},{s2}"


def _translates(rng: random.Random) -> list[list[str]]:
    ops = []
    for _ in range(TRANSLATE_OPS):
        a = rng.choice(NAMED_IRRATIONALS) if rng.random() < 0.3 else _decimal(rng, 15)
        ops.append(["equidist", a, _decimal(rng, 15),
                    "--interval=" + _interval(rng),
                    "--t-list", TRANSLATE_T_LIST,
                    "--N", str(TRANSLATE_N),
                    "--radii", f"{rng.uniform(1.0, 2.0):.3f}",
                    "--seed", str(rng.randrange(1, 10 ** 6))])
    return ops


def _dirichlet(rng: random.Random, t_max: float, delta: float) -> list[str]:
    return ["dirichlet", _decimal(rng, 15), _decimal(rng, 15),
            "--s", f"{rng.uniform(0.05, 0.95):.4f}",
            "--delta", f"{delta:g}", "--t-max", f"{t_max:g}"]


def _orbit(rng: random.Random) -> list[list[str]]:
    ops = []
    for grid, n, count in ORBIT_TEMPLATES:
        for _ in range(count):
            ops.append(["orbit", _decimal(rng, 15), _decimal(rng, 15),
                        "--t-grid", grid, "--N", str(n),
                        "--seed", str(rng.randrange(1, 10 ** 6))])
    ops.append(_dirichlet(rng, *DIRICHLET_FIXED))
    width = (DIRICHLET_MAX_DELTA - DIRICHLET_MIN_DELTA) / DIRICHLET_STRATA
    for j in range(DIRICHLET_STRATA):
        delta = round(DIRICHLET_MIN_DELTA + (j + rng.random()) * width, 3)
        ops.append(_dirichlet(rng, DIRICHLET_T_MAX, delta))
    return ops


_GENERATORS = {"arith": _arith, "translates": _translates, "orbit": _orbit}

# One small operation per subcommand, run untimed before measuring so that
# lazy first-call set-up inside the libraries is not charged to one operation.
WARMUP_OPS = {
    "arith": [["classify", "sqrt2", "sqrt3", "--q-max", "2000"],
              ["density", "1/7", "2/9", "--mode", "rational", "--q-max", "2000",
               "--T", "7.6"]],
    "translates": [["equidist", "sqrt2", "sqrt3", "--t-list", "3,4", "--N", "20"]],
    "orbit": [["orbit", "sqrt2", "sqrt3", "--t-grid", "0:4:2", "--N", "5"],
              ["dirichlet", "sqrt2", "sqrt3", "--t-max", "3"]],
}


def operations(workload: str, seed: int) -> list[list[str]]:
    """The workload's operations for ``seed``: README commands first, then the
    seeded templates in template order.  The order is the same for every
    seed because latflow's peak memory depends on it: a dirichlet run leaves
    part of its grid allocated until the next one, so the peak depends on
    which operations ran before the largest grid."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    generated = _GENERATORS[workload](_rng(workload, seed))
    return [list(op) for op in README_OPS[workload]] + generated
