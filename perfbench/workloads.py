"""Seeded operation streams for the benchmark workloads.

Every operation is one ``distqc`` command line (an argv list) plus the facts
its output check needs.  Operation ``i`` of a workload depends only on the
workload, the seed and ``i``, so a run can draw as many operations as its
time allows and two runs with one seed run the same stream.

threshold_sweep starts with anchors with known answers and contour_sweep
with the ROADMAP's resource contour; the rest is drawn from the seed.
Operation 0 is also the one ``setup_s`` launches in a fresh interpreter.
Operations that reach the program's known defects are not in the streams:
``defect_probes`` and ``MC_PROBE`` run them apart, once per run.
"""

from __future__ import annotations

import random
from math import log10

WORKLOADS = ("threshold_sweep", "contour_sweep", "point_queries")

#: schedule presets of the paper's two pumping families (``distqc.threshold``
#: SINGLE_/DOUBLE_SCHEDULE_PRESETS), as CLI strings
PRESETS = (
    "2,4", "3,4", "3,7", "5,6", "5,8", "5,10", "5,11", "5,13",
    "2,5,5", "2,4,8", "3,3,9", "3,3,11", "3,3,13", "3,4,14",
)
PM_RULES = ("equal", "four_fifteenths")
GATE_KINDS = ("I", "II", "III")

#: a point whose Monte Carlo restart loop cannot finish (p_net ~ 5e-24); run
#: once per point_queries run, apart from the timed stream, in a child
#: process killed at a deadline
MC_PROBE = {"kind": "probe", "schedule": "3,4,14",
            "argv": ["resource", "--F", "0.3", "--pg", "0.04", "--schedule", "3,4,14",
                     "--mc-trials", "100"]}


def attempt_base_pairs(schedule: str) -> int:
    """Base pairs one full pumping attempt consumes (the protocol's count,
    written out independently of the library)."""
    c = [int(n) for n in schedule.split(",")]
    if len(c) == 2:
        n1, n2 = c
        return (1 + n1) * (1 + n2)
    n1, m1, m2 = c
    return 1 + 2 * m1 + m2 * (n1 + 2)


def grid_points(text: str) -> list[float]:
    start, stop, count = text.split(":")
    start, stop, count = float(start), float(stop), int(count)
    if count == 1:
        return [start]
    return [start + (stop - start) * i / (count - 1) for i in range(count)]


def _num(x: float) -> str:
    return format(x, ".6g")


def _rng(seed: int, workload: str, i: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{i}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(lo, hi)


def _grid(rng: random.Random, lo: float, lo_span: float, hi: float, hi_span: float,
          count: int = 8) -> str:
    start = lo + lo_span * rng.random()
    stop = hi - hi_span * rng.random()
    return f"{_num(start)}:{_num(stop)}:{count}"


def _op(kind: str, argv: list[str], **facts) -> dict:
    return {"kind": kind, "argv": argv, **facts}


# -- threshold_sweep --------------------------------------------------------

THRESHOLD_COMBOS = [(s, pm) for s in PRESETS for pm in PM_RULES]


def _threshold_op(seed: int, i: int) -> dict:
    if i < 2:  # anchors: the 0.26% / 0.50% thresholds at a perfect channel
        pm = PM_RULES[i]
        return _op("threshold-curve",
                   ["threshold-curve", "--schedule", "1,2,2", "--grid", "1.0:1.0:1", "--pM", pm],
                   grid="1.0:1.0:1", anchor_pg=(0.0026, 0.0050)[i])
    # every preset and rule once per cycle, in a seeded order, so the mix of
    # cheap and expensive schedules is the same in every run
    cycle, pos = divmod(i - 2, len(THRESHOLD_COMBOS))
    order = list(THRESHOLD_COMBOS)
    random.Random(f"{seed}:threshold_sweep:cycle{cycle}").shuffle(order)
    schedule, pm = order[pos]
    grid = _grid(_rng(seed, "threshold_sweep", i), 0.7, 0.04, 1.0, 0.04)
    return _op("threshold-curve",
               ["threshold-curve", "--schedule", schedule, "--grid", grid, "--pM", pm],
               grid=grid)


# -- contour_sweep -----------------------------------------------------------

#: the resource contour of the ROADMAP's measurements, as operation 0
ROADMAP_CONTOUR = ["resource", "--schedule", "1,2,2", "--levels", "30,60,120",
                   "--grid", "0.85:0.99:8"]


def _contour_op(seed: int, i: int) -> dict:
    if i == 0:
        return _op("resource-contour", list(ROADMAP_CONTOUR), schedule="1,2,2",
                   grid="0.85:0.99:8", levels=[30.0, 60.0, 120.0])
    rng = _rng(seed, "contour_sweep", i)
    grid = _grid(rng, 0.8, 0.05, 0.99, 0.02)
    schedules = rng.sample(PRESETS + ("1,2,2",), 1 + (i % 4 == 1))
    if i % 2:  # the two kinds alternate, so every run has the same mix
        level = _log_uniform(rng, -3.0, -2.0)
        argv = ["infidelity-contour", "--level", _num(level), "--grid", grid]
        for schedule in schedules:
            argv += ["--schedule", schedule]
        return _op("infidelity-contour", argv, schedules=schedules, grid=grid)
    # levels 2.5 to 63 times one attempt's cost (K never falls below one
    # attempt's cost); at low F some levels are not crossed on the grid
    schedule = schedules[0]
    cost = attempt_base_pairs(schedule)
    levels = sorted(float(_num(cost * _log_uniform(rng, 0.4, 1.8))) for _ in range(3))
    return _op("resource-contour",
               ["resource", "--schedule", schedule, "--levels", ",".join(_num(x) for x in levels),
                "--grid", grid], schedule=schedule, grid=grid, levels=levels)


# -- point_queries -----------------------------------------------------------

POINT_KINDS = ("pump", "ttg", "qvalues", "resource")


def _point_op(seed: int, i: int) -> dict:
    rng = _rng(seed, "point_queries", i)
    kind = rng.choice(POINT_KINDS) if i else "pump"
    schedule = rng.choice(PRESETS + ("1,2,2",))
    if kind == "qvalues":
        # the region where check_ft meets no known defect (no preset fails
        # an independent-class bound first there, checked on a grid of its
        # corners and edges); qvalues beyond it run as defect probes, apart
        # from the timed stream
        F, pg = rng.uniform(0.85, 1.0), 7e-4 * _log_uniform(rng, -log10(7.0), 0.0)
    else:
        # p_g spans both sides of the ~0.26% best-case threshold, so both
        # fault-tolerant and non-fault-tolerant points occur
        F, pg = rng.uniform(0.7, 1.0), _log_uniform(rng, -4.0, -2.0)
    pm = rng.choice(PM_RULES)
    argv = [kind, "--F", _num(F), "--pg", _num(pg), "--pM", pm, "--schedule", schedule]
    if kind == "ttg":
        argv += ["--kind", rng.choice(GATE_KINDS)]
    return _op(kind, argv, schedule=schedule)


# -- defect probes -------------------------------------------------------------

#: qvalues calls that crash while check_ft returns numpy.bool_ at points
#: where an independent-class bound fails first
QVALUES_EXAMPLES = (
    ["qvalues", "--fbar", "0.99,0.004,0.003,0.003", "--pg", "1e-3"],
    ["qvalues", "--F", "0.91", "--pg", "1.1e-3", "--schedule", "5,13"],
)
QVALUES_PROBES = 16


def defect_probes(workload: str, seed: int) -> list[dict]:
    """Operations that reach the known defects, run once per run outside
    the timed stream: the qvalues examples and seeded qvalues calls over the
    whole (F, p_g) range, fault-tolerant and not.  Run in-process; the Monte
    Carlo probe (MC_PROBE) needs a deadline and runs in a child process."""
    if workload != "point_queries":
        return []
    ops = [_op("qvalues", list(argv), schedule=None) for argv in QVALUES_EXAMPLES]
    for i in range(QVALUES_PROBES):
        rng = _rng(seed, "qvalues-probe", i)
        schedule = rng.choice(PRESETS + ("1,2,2",))
        F, pg, pm = rng.uniform(0.7, 1.0), _log_uniform(rng, -3.3, -2.0), rng.choice(PM_RULES)
        ops.append(_op("qvalues", ["qvalues", "--F", _num(F), "--pg", _num(pg), "--pM", pm,
                                   "--schedule", schedule], schedule=schedule))
    return ops


def cost_points(op: dict) -> int:
    """Points at which an operation evaluates the expected cost K: each
    (level, F) pair a resource contour searches, or the one point of a
    single resource call."""
    if op["kind"] == "resource-contour":
        return len(op["levels"]) * len(grid_points(op["grid"]))
    return int(op["kind"] == "resource")


def operation(workload: str, seed: int, i: int) -> dict:
    """Operation ``i`` of ``workload`` under ``seed``."""
    if workload == "threshold_sweep":
        return _threshold_op(seed, i)
    if workload == "contour_sweep":
        return _contour_op(seed, i)
    if workload == "point_queries":
        return _point_op(seed, i)
    raise ValueError(f"unknown workload {workload!r}")
