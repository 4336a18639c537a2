"""Topological fault-tolerance conditions and threshold tracing.

The surface-code error-correction unit cell sees three classes of independent
Z errors (syndrome edge a, data edges b and c) and three correlated two-edge
classes (a,b), (a,c), (b,b) introduced by the syndrome-extraction two-qubit
gates.  Their probabilities are linear sums over the eight per-gate error
aggregates of the unit cell; sufficient fault-tolerance conditions bound them
by constants calibrated against a minimum-weight-matching threshold study.

``threshold_pg`` runs the full pipeline (entanglement pumping, gate error
aggregates, condition check) and bisects for the largest tolerable local gate
error; ``threshold_curve`` and ``contour_infidelity`` trace the resulting
landscapes over the channel fidelity.

A landscape is evaluated as one lockstep search (:func:`_lockstep`): every
grid fidelity runs its own search, a generator that reads like the search
for one point, and each step pumps the rates all live searches ask for in one
lane batch (:func:`distqc.purify.pump_lanes`), building round tensors once per
distinct rate.  ``threshold_curve`` pumps the 24-point scan of every fidelity
in one pass and then bisects every bracket in lockstep; ``level_crossing``
does the same for the doubling and bisection of the contours.  Every lane's
arithmetic is that of its search run alone, so each point is bitwise the
point a search of that fidelity alone finds; ``threshold_pg`` and
``pipeline_passes`` are the one-lane calls.
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


@dataclass(frozen=True)
class ThresholdConditions:
    """Sufficient fault-tolerance bounds with an operating margin.

    At margin 1 the full four-class sufficient conditions apply (qa_max,
    qbc_max twice, qcor_max), all strict.  A fractional margin reproduces the
    published resource-analysis operating points, which test the independent
    error rate (the syndrome-class rate qa) against margin*qa_max and the
    correlated rate against margin*qcor_budget; the correlated budget quoted
    there (0.040) is an order of magnitude looser than the strict threshold
    bound, and scaling the strict 0.0040 by the margin instead would exclude
    every published operating point since qcor = (8/15)p_g + p_M alone
    already exceeds 0.0040/3 at p_g = p_M = 1e-3.
    """

    qa_max: float = 0.023
    qbc_max: float = 0.022
    qcor_max: float = 0.0040
    qcor_budget: float = 0.040
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
        return (
            (q.qa < cond.qa_max)
            & (q.qb < cond.qbc_max)
            & (q.qc < cond.qbc_max)
            & (q.q_correlated < cond.qcor_max)
        )
    return (q.qa < m * cond.qa_max) & (q.q_correlated < m * cond.qcor_budget)


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


def pump_at(schedule: PumpSchedule, f_ini: np.ndarray, p_g, p_M_rule="equal") -> Lanes:
    """Pump lane b from the channel vector ``f_ini[b]`` at the local gate
    error ``p_g[b]`` and the measurement error its p_M rule gives.  Lanes
    that share a gate error share one noise point and one map build."""
    points, index = np.unique(p_g, return_inverse=True)
    noises = [depolarizing_noise(p, p_M_of(p_M_rule, p)) for p in points]
    return pump_lanes(schedule, f_ini, noises, index)


def _passes(schedule: PumpSchedule, f_ini: np.ndarray, p_g, p_M_rule, cond: ThresholdConditions):
    """Pipeline verdict of every lane (see :func:`pump_at`): pump, evaluate
    the error-class rates and check the conditions.  A lane whose pumping
    underflows fails."""
    lanes = pump_at(schedule, f_ini, p_g, p_M_rule)
    q = q_values(lanes.f_out, p_g, p_M_of(p_M_rule, p_g))
    return (lanes.failed < 0) & fault_tolerant(q, cond)


def pipeline_passes(
    F: float, p_g: float, schedule: PumpSchedule, p_M_rule, cond: ThresholdConditions
) -> bool:
    """Pump, evaluate the error-class rates and check the conditions."""
    return bool(_passes(schedule, ChannelParams(F).f_ini[None], np.array([p_g]), p_M_rule, cond)[0])


def _lockstep(searches, evaluate) -> list:
    """Drive independent searches in lockstep and return their results.

    Each search is a generator that yields the local error rate it needs
    evaluated next, or an array of them, receives the value (or the list of
    values) and finally returns its result.  Every step gathers the pending
    rates of all live searches into one call ``evaluate(owner, p)``, where
    ``owner[k]`` is the index of the search that asked for ``p[k]``.
    """
    results = [None] * len(searches)
    pending = {}

    def advance(i, sent):
        try:
            pending[i] = searches[i].send(sent)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(searches)):
        advance(i, None)
    while pending:
        asked = dict(pending)
        pending.clear()
        points = [np.atleast_1d(p) for p in asked.values()]
        owner = np.repeat(list(asked), [len(p) for p in points])
        values = evaluate(owner, np.concatenate(points)).tolist()
        start = 0
        for (i, p), pts in zip(asked.items(), points):
            got = values[start:start + len(pts)]
            start += len(pts)
            advance(i, got if np.ndim(p) else got[0])
    return results


def _threshold_search(F, grid, rel_tol: float, p_max: float):
    """One fidelity's threshold search (a :func:`_lockstep` search of pass
    flags): the scan over ``grid``, then geometric bisection of the bracket.
    Returns the threshold, or the :class:`NonMonotoneIndicatorError` the
    scan found."""
    flags = yield grid
    if not flags[0]:
        return 0.0
    crossings = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    if crossings > 1:
        return NonMonotoneIndicatorError(
            f"pass/fail indicator crosses {crossings} times over the scan grid at F={F}"
        )
    if all(flags):
        return NonMonotoneIndicatorError(
            f"pipeline still passes at the scan cap p_g={p_max} for F={F}"
        )
    k = flags.index(False)
    lo, hi = grid[k - 1], grid[k]
    while hi - lo > rel_tol * lo:
        mid = np.sqrt(lo * hi)
        if (yield mid):
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


def _thresholds(F_grid, schedule, p_M_rule, cond, rel_tol, p_max) -> list:
    """The threshold of every fidelity in ``F_grid``, searched in lockstep,
    or the ValueError or NonMonotoneIndicatorError that fidelity meets.
    Raises ValueError for a bad p_M rule, which no fidelity can pass."""
    p_M_of(p_M_rule, 0.0)
    cond = cond or ThresholdConditions()
    grid = np.geomspace(1e-6, p_max, 24)
    results = [None] * len(F_grid)
    live, f_ini = [], []
    for i, F in enumerate(F_grid):
        try:
            f_ini.append(ChannelParams(F).f_ini)
            live.append(i)
        except ValueError as exc:
            results[i] = exc
    f_ini = np.array(f_ini).reshape(-1, 4)
    searches = [_threshold_search(F_grid[i], grid, rel_tol, p_max) for i in live]
    found = _lockstep(
        searches, lambda owner, p: _passes(schedule, f_ini[owner], p, p_M_rule, cond)
    )
    for i, th in zip(live, found):
        results[i] = th
    return results


def threshold_pg(
    F: float,
    schedule: PumpSchedule,
    p_M_rule="equal",
    cond: ThresholdConditions | None = None,
    rel_tol: float = 1e-4,
    p_max: float = 0.05,
) -> float:
    """Largest local gate error probability the full pipeline tolerates at
    channel fidelity F, located by bisection to relative tolerance rel_tol.

    Returns 0.0 when no positive error rate passes.  Raises
    :class:`NonMonotoneIndicatorError` if the coarse scan sees more than one
    pass/fail crossing; the bisection assumes a single one.
    """
    [th] = _thresholds([F], schedule, p_M_rule, cond, rel_tol, p_max)
    if isinstance(th, Exception):
        raise th
    return th


def threshold_curve(
    schedule: PumpSchedule,
    F_grid,
    p_M_rule="equal",
    cond: ThresholdConditions | None = None,
    rel_tol: float = 1e-4,
) -> list[tuple[float, float]]:
    """Threshold gate error per channel-fidelity grid point, every point
    searched in lockstep.

    Per-point failures are recorded as NaN rather than aborting the sweep;
    a bad p_M rule raises ValueError.
    """
    F_grid = list(F_grid)
    thresholds = _thresholds(F_grid, schedule, p_M_rule, cond, rel_tol, 0.05)
    return [
        (float(F), math.nan if isinstance(th, Exception) else th)
        for F, th in zip(F_grid, thresholds)
    ]


#: repetition presets for the two pumping families
SINGLE_SCHEDULE_PRESETS = tuple(
    PumpSchedule.single(*c)
    for c in ((2, 4), (3, 4), (3, 7), (5, 6), (5, 8), (5, 10), (5, 11), (5, 13))
)
DOUBLE_SCHEDULE_PRESETS = tuple(
    PumpSchedule.double(*c)
    for c in ((2, 5, 5), (2, 4, 8), (3, 3, 9), (3, 3, 11), (3, 3, 13), (3, 4, 14))
)


def contour_infidelity(
    schedules,
    level: float,
    F_grid,
    rel_tol: float = 1e-4,
    p_max: float = 0.05,
) -> list[list[tuple[float, float]]]:
    """Loci of fixed pumped-pair infidelity in the (F, p_g = p_M) plane.

    For each schedule and grid fidelity, bisects for the local error rate
    where the output infidelity crosses ``level``; points with no crossing in
    (0, p_max] are omitted.  A level of 1 is never reached, so it yields
    empty curves.
    """
    if not 0.0 < level <= 1.0:
        raise ValueError(f"contour level must lie in (0, 1], got {level}")
    F_grid = list(F_grid)
    curves = []
    for schedule in schedules:
        f_ini = np.array([ChannelParams(F).f_ini for F in F_grid]).reshape(-1, 4)

        def infidelity(lanes, p):
            pumped = pump_at(schedule, f_ini[lanes], p)
            return np.where(pumped.failed < 0, 1.0 - pumped.f_out[:, 0], math.inf)

        found = level_crossing(infidelity, [level] * len(F_grid), rel_tol, p_max)
        curves.append([(float(F), p) for F, p in zip(F_grid, found) if p is not None])
    return curves


def _crossing_search(level: float, rel_tol: float, p_max: float):
    """One lane's level-crossing search (a :func:`_lockstep` search of values):
    doubling from 1e-5, then arithmetic bisection."""
    if (yield 0.0) >= level:
        return None
    lo, p = 0.0, 1e-5
    while p <= p_max:
        if (yield p) >= level:
            break
        lo, p = p, 2.0 * p
    else:
        return None
    hi = p
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if (yield mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def level_crossing(value, levels, rel_tol: float, p_max: float) -> list[float | None]:
    """Local error rate where each lane's increasing value reaches its level.

    ``value(lanes, p)`` returns the values of the given lanes (an index
    array) at the local error rates ``p``, with inf where a lane's success
    probability underflowed.  Each lane doubles p from 1e-5 up to p_max until
    its level is reached, then bisects arithmetically to relative tolerance
    rel_tol and returns the midpoint; it returns None when the level is
    reached already at p = 0 or not at any doubling step.  All lanes step
    in lockstep, one call of ``value`` per step.
    """
    return _lockstep([_crossing_search(level, rel_tol, p_max) for level in levels], value)
