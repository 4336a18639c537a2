"""Topological fault-tolerance conditions and threshold tracing.

The surface-code error-correction unit cell sees three classes of independent
Z errors (syndrome edge a, data edges b and c) and three correlated two-edge
classes (a,b), (a,c), (b,b) introduced by the syndrome-extraction two-qubit
gates.  Their probabilities are linear sums over the eight per-gate error
aggregates of the unit cell; sufficient fault-tolerance conditions bound them
by constants calibrated against a minimum-weight-matching threshold study.

``threshold_pg`` runs the full pipeline (entanglement pumping, gate error
aggregates, condition check) and bisects for the largest tolerable local gate
error; ``threshold_curve`` traces it over the channel fidelity and
``contours`` traces loci of a fixed pumped value, such as the infidelity.

A landscape is evaluated as one search over lane arrays: every grid
fidelity (of a contour: every level and fidelity) is a lane holding its own
bracket, and each step pumps the local error rates of all live lanes
(:func:`pump_at`), LANE_BLOCK lanes per batch and one map build per distinct
rate in a batch.  Both sweeps ask where a lane's verdict turns from pass to
fail, and :func:`_crossings` answers both: it scans a fixed rate grid (24
geometric rates for thresholds, the doubling rates 0, 1e-5, 2e-5, ... for
contours), then bisects every bracket together, two steps per pass: one
pass pumps the midpoint and both quarter points of every bracket, the
quarter point on the side the midpoint's verdict keeps being the next
midpoint.  Each point is bitwise the point a search of that fidelity alone
finds; ``threshold_pg`` and ``pipeline_passes`` are the one-lane calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import ChannelParams, NoiseParams, as_fidelity_vector, depolarizing_noise
from .purify import Lanes, PumpSchedule, pump_lanes
from .telegate import SYNDROME_GATE_KINDS, GateAggregates, aggregates, gate_error_table


@dataclass(frozen=True)
class QTuple:
    """Independent (qa, qb, qc) and correlated (qab, qac, qbb) error rates."""

    qa: float
    qb: float
    qc: float
    qab: float
    qac: float
    qbb: float

    @property
    def q_correlated(self):
        return np.maximum(np.maximum(self.qab, self.qac), self.qbb)


#: sufficient fault-tolerance bounds, strict, on qa, on each of qb and qc and on
#: the largest correlated rate
QA_MAX, QBC_MAX, QCOR_MAX = 0.023, 0.022, 0.0040
#: correlated-rate budget of the published resource-analysis operating points
QCOR_BUDGET = 0.040


@dataclass(frozen=True)
class ThresholdConditions:
    """Sufficient fault-tolerance bounds with an operating margin.

    At margin 1 the full four-class sufficient conditions apply (QA_MAX,
    QBC_MAX twice, QCOR_MAX), all strict.  A fractional margin reproduces the
    published resource-analysis operating points, which test the independent
    error rate (the syndrome-class rate qa) against margin*QA_MAX and the
    correlated rate against margin*QCOR_BUDGET; the correlated budget quoted
    there (0.040) is an order of magnitude looser than the strict threshold
    bound, and scaling the strict 0.0040 by the margin instead would exclude
    every published operating point since qcor = (8/15)p_g + p_M alone
    already exceeds 0.0040/3 at p_g = p_M = 1e-3.
    """

    margin: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.margin <= 1.0:
            raise ValueError(f"margin must lie in (0, 1], got {self.margin}")


class NonMonotoneIndicatorError(RuntimeError):
    """The pass/fail indicator is not a single crossing over the scan grid."""


def q_values(f_bar, p_g, p_M) -> QTuple:
    """Error-class rates for the teleported-gate syndrome round, closed form.

    Assumes the uniform gate-noise convention and zero preparation error (the
    syndrome ancilla preparation is folded into the round's first gate).
    ``f_bar`` may also hold one pumped vector per lane, ``f_bar[B, 4]``, with
    p_g and p_M numbers or lane arrays; each rate is then a lane array.
    """
    f = np.asarray(f_bar, dtype=float)
    f = (as_fidelity_vector(f) if f.ndim == 1 else f).T
    return QTuple(
        qa=4.0 * (f[2] + f[3]) + (40.0 / 15.0) * p_g + p_M,
        qb=2.0 * (f[1] + f[2]) + (40.0 / 15.0) * p_g + 2.0 * p_M,
        qc=2.0 * (f[1] + f[2]) + (32.0 / 15.0) * p_g + 2.0 * p_M,
        qab=(8.0 / 15.0) * p_g + p_M,
        qac=(8.0 / 15.0) * p_g + p_M,
        qbb=(8.0 / 15.0) * p_g + p_M,
    )


def q_values_generic(per_gate, p_P: float, p_M: float) -> QTuple:
    """Error-class rates from the eight per-gate aggregates of the unit cell.

    ``per_gate`` lists the :class:`GateAggregates` of gates l = 1..8 in
    order.  Works for any gate noise model, e.g. the non-distributed baseline.
    """
    g = list(per_gate)
    if len(g) != 8:
        raise ValueError(f"expected aggregates for 8 gates, got {len(g)}")
    p = {l + 1: g[l] for l in range(8)}
    return QTuple(
        qa=p[5].p_zxbar + p[6].p_zxbar + p[7].p_zxbar + p[8].p_zxbar + p_P + p_M,
        qb=p[3].p_xbarz + p[3].p_xzbar + p[4].p_xz + p[4].p_xbarz + p[7].p_zx + p[8].p_zbarx,
        qc=p[1].p_xbarz + p[1].p_xzbar + p[2].p_xz + p[2].p_xbarz + p[5].p_zx + p[6].p_zbarx,
        qab=p[7].p_zbarx + p[8].p_zx,
        qac=p[5].p_zbarx + p[6].p_zx,
        qbb=p[2].p_xzbar + p[3].p_xz,
    )


def syndrome_round_aggregates(f_bar, noise: NoiseParams) -> list[GateAggregates]:
    """Aggregates of the eight teleported gates of one syndrome round."""
    return [
        aggregates(gate_error_table(SYNDROME_GATE_KINDS[l], f_bar, noise))
        for l in range(1, 9)
    ]


def raussendorf_gate_table(position: int, p_g: float) -> np.ndarray:
    """Per-gate error table of the non-distributed baseline scheme.

    Even gates carry uniform two-qubit depolarizing noise; odd gates fold in
    the single-qubit Hadamard noise, boosting three specific entries.
    """
    if position not in range(1, 9):
        raise ValueError(f"gate position must be 1..8, got {position}")
    t = np.full((4, 4), p_g / 15.0)
    t[0, 0] = 0.0
    if position % 2 == 1:
        t[0, 3] = t[3, 1] = t[3, 2] = 6.0 * p_g / 15.0
    return t


def raussendorf_q_values(p_g: float) -> QTuple:
    """Baseline error-class rates with p_P = p_M = p_g."""
    per_gate = [aggregates(raussendorf_gate_table(l, p_g)) for l in range(1, 9)]
    return q_values_generic(per_gate, p_P=p_g, p_M=p_g)


def fault_tolerant(q: QTuple, cond: ThresholdConditions):
    """Whether the error rates lie strictly below their (margined) bounds,
    lane by lane when the rates are lane arrays.

    See :class:`ThresholdConditions` for the margin semantics: the full
    four-class test at margin 1, the independent-plus-correlated operating
    test at fractional margins.
    """
    m = cond.margin
    if m == 1.0:
        return (q.qa < QA_MAX) & (q.qb < QBC_MAX) & (q.qc < QBC_MAX) & (q.q_correlated < QCOR_MAX)
    return (q.qa < m * QA_MAX) & (q.q_correlated < m * QCOR_BUDGET)


def check_ft(q: QTuple, cond: ThresholdConditions) -> bool:
    """:func:`fault_tolerant` at one point, as a plain bool."""
    return bool(fault_tolerant(q, cond))


def p_M_of(p_M_rule, p_g: float) -> float:
    """Measurement error under a p_M rule: "equal" (p_M = p_g),
    "four_fifteenths" (p_M = 4 p_g / 15) or a fixed number in [0, 1)."""
    if p_M_rule == "equal":
        return p_g
    if p_M_rule == "four_fifteenths":
        return 4.0 * p_g / 15.0
    if isinstance(p_M_rule, str):
        raise ValueError(
            f"unknown p_M rule {p_M_rule!r}; expected 'equal', 'four_fifteenths' or a number"
        )
    p_M = float(p_M_rule)
    if not 0.0 <= p_M < 1.0:
        raise ValueError(f"p_M must lie in [0, 1), got {p_M}")
    return p_M


#: most lanes pumped in one pass; larger batches are pumped block by block
LANE_BLOCK = 1024


def pump_at(schedule: PumpSchedule, f_ini: np.ndarray, p_g, read, p_M_rule="equal") -> np.ndarray:
    """Pump lane b from ``f_ini[b]`` at the gate error ``p_g[b]`` (p_M by its
    rule), LANE_BLOCK lanes at a time, and return ``read(lanes, p)`` of each
    block's :class:`Lanes` and gate errors ``p``: one value per lane.  Lanes
    of a block that share a gate error share one map build."""
    reads = []
    for b in range(0, len(p_g), LANE_BLOCK):
        p = p_g[b:b + LANE_BLOCK]
        points, index = np.unique(p, return_inverse=True)
        noises = [depolarizing_noise(x, p_M_of(p_M_rule, x)) for x in points]
        reads.append(read(pump_lanes(schedule, f_ini[b:b + LANE_BLOCK], noises, index), p))
    return np.concatenate(reads)


def _passes(schedule: PumpSchedule, f_ini: np.ndarray, p_g, p_M_rule, cond: ThresholdConditions):
    """Pipeline verdict of every lane (see :func:`pump_at`): pump, evaluate
    the error-class rates and check the conditions.  A lane whose pumping
    underflows has a NaN f_out, so it fails every strict bound."""

    def verdict(lanes: Lanes, p):
        return fault_tolerant(q_values(lanes.f_out, p, p_M_of(p_M_rule, p)), cond)

    return pump_at(schedule, f_ini, p_g, verdict, p_M_rule)


def pipeline_passes(
    F: float, p_g: float, schedule: PumpSchedule, p_M_rule, cond: ThresholdConditions
) -> bool:
    """Pump, evaluate the error-class rates and check the conditions."""
    return bool(_passes(schedule, ChannelParams(F).f_ini[None], np.array([p_g]), p_M_rule, cond)[0])


#: upper end of every search over the local error rate: the last rate of
#: both scan grids, the 24 threshold rates and the contours' doubling rates
P_MAX = 0.05

#: relative tolerance of the bisections (the default of the threshold
#: searches, and that of every level crossing)
REL_TOL = 1e-4


def _crossings(passes, n: int, grid: np.ndarray, mean, wide, first_fail: bool):
    """Where the verdict of each of n lanes turns from pass to fail.

    ``passes(lanes, p)`` returns the verdicts of the lanes (an index array)
    at the rates ``p``.  The lanes scan ``grid`` rate by rate, as many rates
    per pass as fit in LANE_BLOCK lanes; with ``first_fail`` a lane leaves at
    its first failing rate.  A lane that passes at ``grid[0]`` and turns once
    is bracketed around its first fail, and all bracketed lanes bisect at
    ``mean(lo, hi)`` together while ``wide(lo, hi)`` and the midpoint moves
    (near 0, subnormal rates stop it before ``wide`` does).  Each pass takes
    two steps: it pumps the midpoint and the two quarter points, and takes
    the second step, at the quarter point inside the new bracket, only
    where the first step leaves the lane bisecting.  Returns the verdicts at
    ``grid[0]``, the bracketed mask and ``mean(lo, hi)`` of every lane."""
    flags = np.zeros((n, grid.size), dtype=bool)
    live, j, step = np.arange(n), 0, max(1, LANE_BLOCK // max(n, 1))
    while live.size and j < grid.size:
        rates = grid[j:j + step]  # lanes rate by rate, so a pump_at block builds few rates' maps
        flags[live, j:j + step] = ok = passes(
            np.tile(live, rates.size), np.repeat(rates, live.size)).reshape(rates.size, -1).T
        live = live[ok.all(axis=1)] if first_fail else live
        j += step
    if first_fail:
        flags = np.logical_and.accumulate(flags, axis=1)
    bracketed = flags[:, 0] & ((flags[:, 1:] != flags[:, :-1]).sum(axis=1) == 1)
    k = np.argmin(flags, axis=1)  # first failing scan rate
    lo, hi = grid[k - 1], grid[k]
    go = bracketed & wide(lo, hi)
    while go.any():  # two bisection steps per pass: the midpoint and both quarter points
        l, h = lo[go], hi[go]
        mid = mean(l, h)
        q1, q3 = mean(l, mid), mean(mid, h)
        ok, ok1, ok3 = passes(np.tile(np.flatnonzero(go), 3), np.concatenate([mid, q1, q3])).reshape(3, -1)
        on = (mid != l) & (mid != h)  # a midpoint rounded onto an end stops its lane
        l, h = np.where(ok, mid, l), np.where(ok, h, mid)
        on &= wide(l, h)
        mid, ok = np.where(ok, q3, q1), np.where(ok, ok3, ok1)  # mean(l, h) of the new bracket
        lo[go], hi[go] = np.where(on & ok, mid, l), np.where(on & ~ok, mid, h)
        go[go] = on & (mid != l) & (mid != h) & wide(lo[go], hi[go])
    return flags[:, 0], bracketed, mean(lo, hi)


def _thresholds(f_ini: np.ndarray, schedule: PumpSchedule, p_M_rule, cond, rel_tol: float):
    """Threshold of every lane (channel vector ``f_ini[b]``), all lanes
    searched together by :func:`_crossings`: the 24-point geometric scan up
    to P_MAX, then geometric bisection to relative tolerance rel_tol.  A lane
    that fails at the first scan point has threshold 0; one whose scan does
    not cross from pass to fail exactly once has NaN.  Raises ValueError for
    a bad p_M rule, which no lane can pass."""
    p_M_of(p_M_rule, 0.0)
    cond = cond or ThresholdConditions()
    first, bracketed, th = _crossings(
        lambda lanes, p: _passes(schedule, f_ini[lanes], p, p_M_rule, cond),
        len(f_ini), np.geomspace(1e-6, P_MAX, 24),
        lambda lo, hi: np.sqrt(lo * hi), lambda lo, hi: hi - lo > rel_tol * lo, first_fail=False,
    )
    return np.where(bracketed, th, np.where(first, math.nan, 0.0))


def threshold_pg(
    F: float,
    schedule: PumpSchedule,
    p_M_rule="equal",
    cond: ThresholdConditions | None = None,
    rel_tol: float = REL_TOL,
) -> float:
    """Largest local gate error probability the full pipeline tolerates at
    channel fidelity F, located by bisection to relative tolerance rel_tol.

    Returns 0.0 when no positive error rate passes.  Raises
    :class:`NonMonotoneIndicatorError` if the coarse scan up to P_MAX does
    not show a single pass/fail crossing; the bisection assumes one.
    """
    [th] = _thresholds(ChannelParams(F).f_ini[None], schedule, p_M_rule, cond, rel_tol)
    if math.isnan(th):
        raise NonMonotoneIndicatorError(
            f"pass/fail indicator does not cross exactly once over the scan grid "
            f"up to p_g={P_MAX} at F={F}"
        )
    return float(th)


def threshold_curve(
    schedule: PumpSchedule,
    F_grid,
    p_M_rule="equal",
    cond: ThresholdConditions | None = None,
    rel_tol: float = REL_TOL,
) -> list[tuple[float, float]]:
    """Threshold gate error per channel-fidelity grid point, every point
    searched together.

    A point that is no channel fidelity or has no single pass/fail crossing
    is recorded as NaN rather than aborting the sweep; a bad p_M rule raises
    ValueError.
    """
    F_grid = [float(F) for F in F_grid]
    lanes, f_ini = [], []
    for i, F in enumerate(F_grid):
        try:
            f_ini.append(ChannelParams(F).f_ini)
        except ValueError:
            continue
        lanes.append(i)
    th = np.full(len(F_grid), math.nan)
    th[lanes] = _thresholds(np.array(f_ini).reshape(-1, 4), schedule, p_M_rule, cond, rel_tol)
    return list(zip(F_grid, th.tolist()))


#: repetition presets for the two pumping families
SINGLE_SCHEDULE_PRESETS = tuple(
    PumpSchedule.single(*c)
    for c in ((2, 4), (3, 4), (3, 7), (5, 6), (5, 8), (5, 10), (5, 11), (5, 13))
)
DOUBLE_SCHEDULE_PRESETS = tuple(
    PumpSchedule.double(*c)
    for c in ((2, 5, 5), (2, 4, 8), (3, 3, 9), (3, 3, 11), (3, 3, 13), (3, 4, 14))
)


def contours(schedule: PumpSchedule, levels, F_grid, read) -> list[list[tuple[float, float]]]:
    """Per level, the (F, p) points where ``read(lanes)``, a per-lane value of a
    :class:`Lanes` batch that grows with p_g = p_M, reaches it: one
    :func:`_crossings` over every (level, F) lane, which scans p = 0 and the
    doubling rates 1e-5 * 2**k up to P_MAX and bisects arithmetically.
    Points reached at p = 0 or not by P_MAX are omitted.  A lane whose
    pumping underflowed reads NaN or inf (its f_out is NaN, its p_net 0 or
    NaN), which lies below no level, so it never reaches one."""
    F_grid = list(F_grid)
    n = len(F_grid)
    f_ini = np.array([ChannelParams(F).f_ini for F in F_grid]).reshape(-1, 4)
    levels = np.asarray(levels, dtype=float)
    goal = np.repeat(levels, n)  # lane k: level k // n, fidelity k % n

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def guarded(lanes: Lanes, _):
        return read(lanes)

    def passes(k, p):
        """Pump each distinct (rate, fidelity) of lanes k once and compare
        it with the level of every lane."""
        rate, r = np.unique(p, return_inverse=True)
        key, same = np.unique(r * n + k % n, return_inverse=True)  # rate-major, as the lanes come
        return pump_at(schedule, f_ini[key % n], rate[key // n], guarded)[same] < goal[k]

    _, found, rates = _crossings(
        passes, goal.size, np.array([0.0] + [1e-5 * 2.0**k for k in range(13)]),
        lambda lo, hi: 0.5 * (lo + hi), lambda lo, hi: hi - lo > REL_TOL * hi, first_fail=True,
    )
    return [[(float(F), p) for F, p, ok in zip(F_grid, row, oks) if ok]
            for row, oks in zip(rates.reshape(levels.size, n).tolist(), found.reshape(levels.size, n))]


def contour_infidelity(schedules, level: float, F_grid) -> list[list[tuple[float, float]]]:
    """Loci of fixed pumped-pair infidelity in the (F, p_g = p_M) plane.

    For each schedule and grid fidelity, bisects for the local error rate
    where the output infidelity crosses ``level``; points with no crossing in
    (0, P_MAX] are omitted.  A level of 1 is never reached, so it yields
    empty curves.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError(f"contour level must lie in (0, 1], got {level}")
    F_grid = list(F_grid)
    return [contours(s, [level], F_grid, lambda lanes: 1.0 - lanes.f_out[:, 0])[0] for s in schedules]
