"""Topological fault-tolerance conditions and threshold tracing.

The surface-code error-correction unit cell sees three classes of independent
Z errors (syndrome edge a, data edges b and c) and three correlated two-edge
classes (a,b), (a,c), (b,b) introduced by the syndrome-extraction two-qubit
gates.  Their probabilities are linear sums over the eight per-gate error
aggregates of the unit cell; sufficient fault-tolerance conditions bound them
by constants calibrated against a minimum-weight-matching threshold study.

``threshold_curve`` runs the full pipeline (entanglement pumping, gate error
aggregates, condition check) and bisects for the largest tolerable local gate
error at each channel fidelity, ``threshold_pg`` at one; ``contours`` traces
loci of a fixed pumped value, such as the infidelity.

A landscape is evaluated as one search over lane arrays: every grid
fidelity (of a contour: every level and fidelity) is a lane holding its own
bracket, and each step pumps every distinct (rate, fidelity) pair of the live
lanes once at the p_g and p_M it is given (:func:`pump_at`; a threshold's p_M
by its rule, a contour's p_M = p_g), LANE_BLOCK pairs per batch and one map
build per distinct noise point in a batch.  Both sweeps ask where a lane's
verdict turns from pass to fail, the sign of a value: the smallest relative
slack of the fault-tolerance bounds (:func:`ft_slack`), or a contour's level
less its read.  :func:`_crossings` answers both: it scans a fixed rate grid, then
bisects every bracket together.  Each bisection pass predicts each lane's
crossing, by inverse quadratic interpolation through the scan values on
the first pass and by regula falsi on the values at its bracket ends
after, pumps the predicted path's midpoints in one pass and follows the
path as far as the pumped verdicts confirm it, and one step beyond.  A
threshold search's first paths run to the end of the bisection, so most
threshold sweeps bisect in one pass.  Each point is bitwise the point a
plain bisection of that fidelity alone finds; ``threshold_pg`` and
``pipeline_passes`` are the one-lane calls.
"""

from __future__ import annotations

import functools
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


def ft_slack(q: QTuple, cond: ThresholdConditions):
    """Smallest relative slack (bound - rate) / bound of the (margined)
    fault-tolerance bounds, lane by lane when the rates are lane arrays:
    positive exactly where every rate lies strictly below its bound, and NaN
    where a rate is NaN.

    See :class:`ThresholdConditions` for the margin semantics: the full
    four-class test at margin 1, the independent-plus-correlated operating
    test at fractional margins.
    """
    m = cond.margin
    if m == 1.0:
        bounds = ((q.qa, QA_MAX), (q.qb, QBC_MAX), (q.qc, QBC_MAX), (q.q_correlated, QCOR_MAX))
    else:
        bounds = ((q.qa, m * QA_MAX), (q.q_correlated, m * QCOR_BUDGET))
    return functools.reduce(np.minimum, [(bound - rate) / bound for rate, bound in bounds])


def check_ft(q: QTuple, cond: ThresholdConditions) -> bool:
    """Whether the error rates of one point lie strictly below their
    (margined) bounds: :func:`ft_slack` > 0, as a plain bool."""
    return bool(ft_slack(q, cond) > 0)


def p_M_of(p_M_rule, p_g):
    """Measurement error under a p_M rule: "equal" (p_M = p_g) and
    "four_fifteenths" (p_M = 4 p_g / 15) per rate, a fixed number in [0, 1) as is."""
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


def pump_at(schedule: PumpSchedule, f_ini: np.ndarray, k, p_g, p_M, read) -> np.ndarray:
    """Pump lane b from the row ``f_ini[k[b]]`` at the gate error ``p_g[b]`` and
    the measurement error ``p_M``, a number or one per lane, and return ``read(lanes,
    p_g, p_M)`` of the pumped :class:`Lanes` and their errors: one value per lane.
    Each distinct (rate, row) pair is pumped once, so its lanes share their p_M,
    rate-major and LANE_BLOCK at a time: one noise batch and map build per block."""
    # a (rate, row) pair as a complex number: complex numbers sort by real
    # part, then imaginary, so the distinct pairs come rate-major
    pair, first, same = np.unique(p_g + 1j * k, return_index=True, return_inverse=True)
    rows, p, m = pair.imag.astype(int), pair.real, np.broadcast_to(p_M, np.shape(k))[first]
    reads = []
    for b in range(0, len(p), LANE_BLOCK):
        block, block_m = p[b:b + LANE_BLOCK], m[b:b + LANE_BLOCK]  # a noise point starts where either moves
        new = np.concatenate(([True], (block[1:] != block[:-1]) | (block_m[1:] != block_m[:-1])))
        noise, index = depolarizing_noise(block[new], block_m[new]), np.cumsum(new) - 1
        reads.append(read(pump_lanes(schedule, f_ini[rows[b:b + LANE_BLOCK]], noise, index), block, block_m))
    return np.concatenate(reads)[same]


def _passes(schedule: PumpSchedule, f_ini: np.ndarray, k, p_g, p_M_rule, cond: ThresholdConditions):
    """Pipeline :func:`ft_slack` of every lane (see :func:`pump_at`), whose
    sign is its verdict: pump at the rule's p_M, worked out once per call, and
    check the error-class rates at the p_g and p_M each lane was pumped at.  A
    lane whose pumping underflows has a NaN f_out and slack, so it fails."""

    def slack(lanes: Lanes, p_g, p_M):
        return ft_slack(q_values(lanes.f_out, p_g, p_M), cond)

    return pump_at(schedule, f_ini, k, p_g, p_M_of(p_M_rule, p_g), slack)


def pipeline_passes(
    F: float, p_g: float, schedule: PumpSchedule, p_M_rule, cond: ThresholdConditions
) -> bool:
    """Pump, evaluate the error-class rates and check the conditions."""
    f_ini = ChannelParams(F).f_ini[None]
    return bool(_passes(schedule, f_ini, np.array([0]), np.array([p_g]), p_M_rule, cond)[0] > 0)


#: upper end of every search over the local error rate: the last rate of
#: both scan grids, the 24 threshold rates and the contours' doubling rates
P_MAX = 0.05

#: relative tolerance of the bisections (the default of the threshold
#: searches, and that of every level crossing)
REL_TOL = 1e-4


#: bisection steps a pass predicts and checks per lane: a bisection pass
#: pumps at most this many midpoints of each bracketed lane
PATH_STEPS = 7


def _crossings(value, n: int, grid: np.ndarray, mean, wide, first_fail: bool):
    """Where the verdict of each of n lanes turns from pass to fail.

    ``value(lanes, p)`` returns a value of each lane (an index array) at the
    rates ``p`` whose sign is its verdict: it passes where the value, cast to
    float, is > 0.  The lanes scan ``grid`` rate by rate, as many rates per
    pass as fit in LANE_BLOCK lanes; with ``first_fail`` a lane leaves at its
    first failing rate.  A lane that passes at ``grid[0]`` and turns once is
    bracketed around its first fail, and all bracketed lanes bisect at
    ``mean(lo, hi)`` together while ``wide(lo, hi)`` and the midpoint moves
    (near 0, subnormal rates stop it before ``wide`` does).

    Each pass predicts every lane's crossing, replays the bisection on the
    predicted verdicts and pumps the midpoints of that path in one pass.
    The first pass predicts by Brent's inverse quadratic interpolation
    through the scan values at rates k-2, k-1 and k, k the lane's first
    failing scan rate; a later pass, or a prediction that is not finite or
    leaves the bracket, by regula falsi on the values at the bracket ends,
    else at the midpoint.  A path holds PATH_STEPS midpoints, but a
    threshold search's first paths (not ``first_fail``) hold the whole
    bisection.  The lane then takes the steps whose verdicts were predicted
    right and the first wrong one, so every step it takes is the
    bisection's own, on a pumped verdict.  Returns the verdicts at
    ``grid[0]``, the bracketed mask and ``mean(lo, hi)`` of every lane."""
    values = np.full((n, grid.size), math.nan)
    live, j, step = np.arange(n), 0, max(1, LANE_BLOCK // max(n, 1))
    while live.size and j < grid.size:
        rates = grid[j:j + step]  # every live lane at each rate, rate by rate
        values[live, j:j + step] = v = value(
            np.tile(live, rates.size), np.repeat(rates, live.size)).reshape(rates.size, -1).T
        live = live[(v > 0).all(axis=1)] if first_fail else live
        j += step
    flags = values > 0
    if first_fail:
        flags = np.logical_and.accumulate(flags, axis=1)
    bracketed = flags[:, 0] & ((flags[:, 1:] != flags[:, :-1]).sum(axis=1) == 1)
    # scan rates k-2 .. k, k the first fail; one off the grid repeats its
    # neighbour, and no interpolant through a repeated point is finite
    at = (np.argmin(flags, axis=1)[:, None] + np.arange(-2, 1)).clip(0)
    p_near, v_near = grid[at].T, values[np.arange(n)[:, None], at].T
    lo, hi, v_lo, v_hi = p_near[1], p_near[2], v_near[1], v_near[2]

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def interpolate(p, v):
        """Brent's inverse quadratic interpolation: where the quadratic in v
        through the points (p[i], v[i]), i = 0, 1, 2, reaches v = 0."""
        v1, v2 = np.roll(v, 1, axis=0), np.roll(v, 2, axis=0)
        return (p * v1 * v2 / ((v - v1) * (v - v2))).sum(axis=0)

    # the first pass's prediction, and whether its paths run to the end
    guide, full = interpolate(p_near, v_near), not first_fail

    def bisect(l, h, mid, ok):
        """One bisection step at ``mid`` = mean(l, h) with verdict ``ok``: the
        new bracket, and whether the lane bisects on from it."""
        l_new, h_new = np.where(ok, mid, l), np.where(ok, h, mid)
        return l_new, h_new, (mid != l) & (mid != h) & wide(l_new, h_new)

    go = bracketed & wide(lo, hi)
    while go.any():
        l, h, v_l, v_h, x = lo[go], hi[go], v_lo[go], v_hi[go], guide[go]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            x = np.where((l < x) & (x < h), x, l + (h - l) * (v_l / (v_l - v_h)))  # else regula falsi
        x = np.where(np.isfinite(x), x, mean(l, h))
        mids, guess, ends, on = [], [], [], [np.ones(l.size, dtype=bool)]
        while on[-1].any():  # the bisection on the predicted verdicts
            ends.append((l, h))
            mids.append(mean(l, h))
            guess.append(mids[-1] < x)
            l, h, more = bisect(l, h, mids[-1], guess[-1])
            on.append(on[-1] & more & (full or len(mids) < PATH_STEPS))
        mids, guess, on = np.array(mids), np.array(guess), np.array(on)
        ls, hs = np.array(ends).transpose(1, 0, 2)  # the bracket before each step
        pumped = np.full(mids.shape, math.nan)
        pumped[on[:-1]] = value(np.broadcast_to(np.flatnonzero(go), mids.shape)[on[:-1]], mids[on[:-1]])
        # each lane takes the steps up to its first mispredicted or last pumped one
        ok, steps, c = pumped > 0, np.arange(len(mids))[:, None], np.arange(l.size)
        stop = ((ok != guess) | ~on[1:]).argmax(axis=0)
        l, h, more = bisect(ls[stop, c], hs[stop, c], mids[stop, c], ok[stop, c])
        # the last step taken that passed, and that failed, give the values at the new bracket ends
        end_lo, end_hi = (np.where((steps <= stop) & m, steps, -1).max(axis=0) for m in (ok, ~ok))
        v_l, v_h = np.where(end_lo < 0, v_l, pumped[end_lo, c]), np.where(end_hi < 0, v_h, pumped[end_hi, c])
        lo[go], hi[go], v_lo[go], v_hi[go] = l, h, v_l, v_h
        go[go], guide[:], full = more, math.nan, False  # later passes: regula falsi, PATH_STEPS steps
    return flags[:, 0], bracketed, mean(lo, hi)


def threshold_pg(
    F: float,
    schedule: PumpSchedule,
    p_M_rule="equal",
    cond: ThresholdConditions = ThresholdConditions(),
    rel_tol: float = REL_TOL,
) -> float:
    """:func:`threshold_curve` at the one channel fidelity F.

    Returns 0.0 when no positive error rate passes.  Raises
    :class:`NonMonotoneIndicatorError` if the coarse scan up to P_MAX does
    not show a single pass/fail crossing; the bisection assumes one.
    """
    [(_, th)] = threshold_curve(schedule, [ChannelParams(F).F], p_M_rule, cond, rel_tol)
    if math.isnan(th):
        raise NonMonotoneIndicatorError(
            f"pass/fail indicator does not cross exactly once over the scan grid "
            f"up to p_g={P_MAX} at F={F}"
        )
    return th


def threshold_curve(
    schedule: PumpSchedule,
    F_grid,
    p_M_rule="equal",
    cond: ThresholdConditions = ThresholdConditions(),
    rel_tol: float = REL_TOL,
) -> list[tuple[float, float]]:
    """Largest local gate error the full pipeline tolerates at each channel
    fidelity of the grid, every fidelity a lane of one :func:`_crossings`:
    the 24-point geometric scan up to P_MAX, then geometric bisection to
    relative tolerance rel_tol.

    A point that fails at the first scan rate has threshold 0.0.  A point
    that is no channel fidelity, or whose scan does not cross from pass to
    fail exactly once, is recorded as NaN rather than aborting the sweep; a
    bad p_M rule, which no point can pass, raises ValueError.
    """
    p_M_of(p_M_rule, 0.0)
    F_grid = [float(F) for F in F_grid]
    lanes, f_ini = [], []
    for i, F in enumerate(F_grid):
        try:
            f_ini.append(ChannelParams(F).f_ini)
        except ValueError:
            continue
        lanes.append(i)
    f_ini = np.array(f_ini).reshape(-1, 4)
    first, bracketed, th = _crossings(
        lambda k, p: _passes(schedule, f_ini, k, p, p_M_rule, cond),
        len(f_ini), np.geomspace(1e-6, P_MAX, 24),
        lambda lo, hi: np.sqrt(lo * hi), lambda lo, hi: hi - lo > rel_tol * lo, first_fail=False,
    )
    points = np.full(len(F_grid), math.nan)
    points[lanes] = np.where(bracketed, th, np.where(first, math.nan, 0.0))
    return list(zip(F_grid, points.tolist()))


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
    def guarded(lanes: Lanes, *_):
        return read(lanes)

    _, found, rates = _crossings(  # a contour lane pumps at p_M = p_g = p
        lambda k, p: goal[k] - pump_at(schedule, f_ini, k % n, p, p, guarded),
        goal.size, np.array([0.0] + [1e-5 * 2.0**k for k in range(13)]),
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
