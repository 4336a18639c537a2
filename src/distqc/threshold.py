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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import ChannelParams, NoiseParams, as_fidelity_vector, depolarizing_noise
from .purify import PumpSchedule, SuccessProbabilityError, pump
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
    def q_correlated(self) -> float:
        return max(self.qab, self.qac, self.qbb)


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


def q_values(f_bar, p_g: float, p_M: float) -> QTuple:
    """Error-class rates for the teleported-gate syndrome round, closed form.

    Assumes the uniform gate-noise convention and zero preparation error (the
    syndrome ancilla preparation is folded into the round's first gate).
    """
    f = as_fidelity_vector(f_bar)
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


def check_ft(q: QTuple, cond: ThresholdConditions) -> bool:
    """True iff the error rates lie strictly below their (margined) bounds.

    See :class:`ThresholdConditions` for the margin semantics: the full
    four-class test at margin 1, the independent-plus-correlated operating
    test at fractional margins.
    """
    m = cond.margin
    if m == 1.0:
        return bool(
            q.qa < cond.qa_max
            and q.qb < cond.qbc_max
            and q.qc < cond.qbc_max
            and q.q_correlated < cond.qcor_max
        )
    return bool(q.qa < m * cond.qa_max and q.q_correlated < m * cond.qcor_budget)


def p_M_of(p_M_rule, p_g: float) -> float:
    """Measurement error under a p_M rule: "equal" (p_M = p_g),
    "four_fifteenths" (p_M = 4 p_g / 15) or a fixed number."""
    if p_M_rule == "equal":
        return p_g
    if p_M_rule == "four_fifteenths":
        return 4.0 * p_g / 15.0
    if isinstance(p_M_rule, str):
        raise ValueError(
            f"unknown p_M rule {p_M_rule!r}; expected 'equal', 'four_fifteenths' or a number"
        )
    return float(p_M_rule)


def pipeline_passes(
    F: float, p_g: float, schedule: PumpSchedule, p_M_rule, cond: ThresholdConditions
) -> bool:
    """Pump, evaluate the error-class rates and check the conditions."""
    p_M = p_M_of(p_M_rule, p_g)
    noise = depolarizing_noise(p_g, p_M)
    try:
        result = pump(ChannelParams(F), schedule, noise)
    except SuccessProbabilityError:
        return False
    return check_ft(q_values(result.f_out, p_g, p_M), cond)


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
    cond = cond or ThresholdConditions()
    grid = np.geomspace(1e-6, p_max, 24)
    flags = [pipeline_passes(F, p, schedule, p_M_rule, cond) for p in grid]
    if not flags[0]:
        return 0.0
    crossings = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    if crossings > 1:
        raise NonMonotoneIndicatorError(
            f"pass/fail indicator crosses {crossings} times over the scan grid at F={F}"
        )
    if all(flags):
        raise NonMonotoneIndicatorError(
            f"pipeline still passes at the scan cap p_g={p_max} for F={F}"
        )
    k = flags.index(False)
    lo, hi = grid[k - 1], grid[k]
    while hi - lo > rel_tol * lo:
        mid = np.sqrt(lo * hi)
        if pipeline_passes(F, mid, schedule, p_M_rule, cond):
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


def threshold_curve(
    schedule: PumpSchedule,
    F_grid,
    p_M_rule="equal",
    cond: ThresholdConditions | None = None,
    rel_tol: float = 1e-4,
) -> list[tuple[float, float]]:
    """Threshold gate error per channel-fidelity grid point.

    Per-point failures are recorded as NaN rather than aborting the sweep.
    """
    curve = []
    for F in F_grid:
        try:
            pg = threshold_pg(F, schedule, p_M_rule, cond, rel_tol)
        except (NonMonotoneIndicatorError, ValueError):
            pg = float("nan")
        curve.append((float(F), pg))
    return curve


#: repetition presets for the two pumping families
SINGLE_SCHEDULE_PRESETS = tuple(
    PumpSchedule.single(*c)
    for c in ((2, 4), (3, 4), (3, 7), (5, 6), (5, 8), (5, 10), (5, 11), (5, 13))
)
DOUBLE_SCHEDULE_PRESETS = tuple(
    PumpSchedule.double(*c)
    for c in ((2, 5, 5), (2, 4, 8), (3, 3, 9), (3, 3, 11), (3, 3, 13), (3, 4, 14))
)


def pumped_infidelity(F: float, p: float, schedule: PumpSchedule) -> float:
    """Infidelity of the pumped pair at p_g = p_M = p."""
    noise = depolarizing_noise(p, p)
    result = pump(ChannelParams(F), schedule, noise)
    return float(1.0 - result.f_out[0])


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
    curves = []
    for schedule in schedules:
        pts = []
        for F in F_grid:
            p = level_crossing(lambda p: pumped_infidelity(F, p, schedule), level, rel_tol, p_max)
            if p is not None:
                pts.append((float(F), p))
        curves.append(pts)
    return curves


def level_crossing(value, level: float, rel_tol: float, p_max: float) -> float | None:
    """Local error rate where an increasing ``value(p)`` reaches ``level``.

    Doubles p from 1e-5 up to p_max until the level is reached, then bisects
    arithmetically to relative tolerance rel_tol and returns the midpoint.
    Returns None when the level is reached already at p = 0 or not at any
    doubling step.  A :class:`SuccessProbabilityError` counts as an infinite
    value.
    """

    def at(p):
        try:
            return value(p)
        except SuccessProbabilityError:
            return math.inf

    if at(0.0) >= level:
        return None
    lo, p = 0.0, 1e-5
    while p <= p_max:
        if at(p) >= level:
            break
        lo, p = p, 2.0 * p
    else:
        return None
    hi = p
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if at(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
