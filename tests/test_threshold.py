import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distqc import purify, threshold
from distqc.pauli import ChannelParams, depolarizing_noise
from distqc.purify import PumpSchedule, pump
from distqc.resources import CostModel, contour_expected_cost
from distqc.telegate import GateKind, closed_form_aggregates
from distqc.threshold import (
    DOUBLE_SCHEDULE_PRESETS,
    QA_MAX,
    QBC_MAX,
    QCOR_BUDGET,
    QCOR_MAX,
    REL_TOL,
    SINGLE_SCHEDULE_PRESETS,
    NonMonotoneIndicatorError,
    QTuple,
    ThresholdConditions,
    check_ft,
    contour_infidelity,
    ft_slack,
    p_M_of,
    pipeline_passes,
    q_values,
    q_values_generic,
    raussendorf_gate_table,
    raussendorf_q_values,
    syndrome_round_aggregates,
    threshold_curve,
    threshold_pg,
)

SCHED_122 = PumpSchedule.double(1, 2, 2)
SCHED_3414 = PumpSchedule.double(3, 4, 14)


# --- q values ----------------------------------------------------------------

def test_q_values_leading_order_coefficients():
    p = 1.5e-3
    f_bar = [1 - 8 * p / 15, 4 * p / 15, 2 * p / 15, 2 * p / 15]
    q = q_values(f_bar, p, p)
    assert q.qa == pytest.approx(71 * p / 15)
    assert q.qb == pytest.approx(82 * p / 15)
    assert q.qc == pytest.approx(74 * p / 15)
    assert q.qab == pytest.approx(23 * p / 15)
    assert q.qab == q.qac == q.qbb


def test_q_values_zero():
    q = q_values([1, 0, 0, 0], 0.0, 0.0)
    assert (q.qa, q.qb, q.qc, q.qab, q.qac, q.qbb) == (0, 0, 0, 0, 0, 0)


def test_q_values_direct_substitution():
    q = q_values([1 - 3e-3, 1e-3, 1e-3, 1e-3], 0.0, 0.0)
    assert q.qa == pytest.approx(8e-3)
    assert q.qb == pytest.approx(4e-3)
    assert q.qc == pytest.approx(4e-3)
    assert q.qab == 0.0


def test_q_values_equals_generic_route():
    rng = np.random.default_rng(31)
    for _ in range(20):
        pg, pM = rng.uniform(0, 0.02, 2)
        tail = rng.uniform(0, 0.01, 3)
        f_bar = np.array([1 - tail.sum(), *tail])
        per_gate = [
            closed_form_aggregates(GateKind.I if l in (1, 5) else (GateKind.III if l in (3, 7) else GateKind.II), f_bar, pg, pM)
            for l in range(1, 9)
        ]
        q_direct = q_values(f_bar, pg, pM)
        q_generic = q_values_generic(per_gate, p_P=0.0, p_M=pM)
        for name in ("qa", "qb", "qc", "qab", "qac", "qbb"):
            assert getattr(q_direct, name) == pytest.approx(getattr(q_generic, name), abs=1e-15)


def test_q_values_from_full_gate_tables():
    f_bar = np.array([0.996, 0.002, 0.001, 0.001])
    pg, pM = 1.2e-3, 0.8e-3
    per_gate = syndrome_round_aggregates(f_bar, depolarizing_noise(pg, pM))
    q = q_values_generic(per_gate, p_P=0.0, p_M=pM)
    q_direct = q_values(f_bar, pg, pM)
    for name in ("qa", "qb", "qc", "qab", "qac", "qbb"):
        assert getattr(q, name) == pytest.approx(getattr(q_direct, name), rel=1e-12)


def test_q_values_generic_zero():
    zero = closed_form_aggregates(GateKind.I, [1, 0, 0, 0], 0.0, 0.0)
    q = q_values_generic([zero] * 8, 0.0, 0.0)
    assert (q.qa, q.qb, q.qc, q.qab, q.qac, q.qbb) == (0, 0, 0, 0, 0, 0)


def test_q_values_generic_needs_eight_gates():
    zero = closed_form_aggregates(GateKind.I, [1, 0, 0, 0], 0.0, 0.0)
    with pytest.raises(ValueError):
        q_values_generic([zero] * 7, 0.0, 0.0)


# --- baseline regression -------------------------------------------------------

def test_baseline_coefficients_exact():
    # evaluating at p_g = 15 turns every p_g/15 cell into 1, so the linear
    # coefficients come out as exact floats
    q = raussendorf_q_values(15.0)
    assert (q.qa, q.qb, q.qc) == (46.0, 44.0, 44.0)
    assert (q.qab, q.qac, q.qbb) == (8.0, 8.0, 8.0)


def test_baseline_gate_tables():
    even = raussendorf_gate_table(2, 0.015)
    assert np.count_nonzero(even) == 15
    np.testing.assert_allclose(even[even > 0], 0.001)
    odd = raussendorf_gate_table(1, 0.015)
    assert odd[0, 3] == pytest.approx(0.006)
    assert odd[3, 1] == pytest.approx(0.006)
    assert odd[3, 2] == pytest.approx(0.006)
    assert odd.sum() == pytest.approx(0.030)
    with pytest.raises(ValueError):
        raussendorf_gate_table(9, 0.01)


# --- fault-tolerance check ------------------------------------------------------

def test_check_ft_zero_passes():
    assert check_ft(QTuple(0, 0, 0, 0, 0, 0), ThresholdConditions())


def test_check_ft_boundary_is_exclusive():
    assert not check_ft(raussendorf_q_values(0.0075), ThresholdConditions())
    assert check_ft(raussendorf_q_values(0.0074), ThresholdConditions())


# each bound alone, the other rates 0, so that no other bound decides the verdict
STRICT_BOUNDS = [
    (1.0, "qa", QA_MAX), (1.0, "qb", QBC_MAX), (1.0, "qc", QBC_MAX),
    *[(1.0, rate, QCOR_MAX) for rate in ("qab", "qac", "qbb")],
    (1 / 3, "qa", 1 / 3 * QA_MAX),
    *[(1 / 3, rate, 1 / 3 * QCOR_BUDGET) for rate in ("qab", "qac", "qbb")],
]


@pytest.mark.parametrize("margin, rate, bound", STRICT_BOUNDS)
def test_each_bound_is_strict_on_its_own(margin, rate, bound):
    cond = ThresholdConditions(margin=margin)
    zero = dict.fromkeys(("qa", "qb", "qc", "qab", "qac", "qbb"), 0.0)
    assert not check_ft(QTuple(**{**zero, rate: bound}), cond)
    assert check_ft(QTuple(**{**zero, rate: np.nextafter(bound, 0)}), cond)


@pytest.mark.parametrize("margin, rate, bound", STRICT_BOUNDS)
def test_slack_is_the_smallest_relative_slack(margin, rate, bound):
    # every other rate is 0, with slack 1; the verdict is the slack's sign,
    # and check_ft gives it as a plain bool
    cond = ThresholdConditions(margin=margin)
    zero = dict.fromkeys(("qa", "qb", "qc", "qab", "qac", "qbb"), 0.0)
    assert ft_slack(QTuple(**{**zero, rate: 0.5 * bound}), cond) == 0.5
    assert ft_slack(QTuple(**{**zero, rate: 2.0 * bound}), cond) == -1.0
    assert math.isnan(ft_slack(QTuple(**{**zero, rate: math.nan}), cond))
    assert check_ft(QTuple(**{**zero, rate: 0.5 * bound}), cond) is True
    lanes = QTuple(**{**zero, rate: np.array([0.5, 1.0, math.nan]) * bound})
    assert (ft_slack(lanes, cond) > 0).tolist() == [True, False, False]


def test_check_ft_monotone():
    rng = np.random.default_rng(41)
    cond = ThresholdConditions()
    for _ in range(50):
        q = QTuple(*rng.uniform(0, 0.03, 6))
        if check_ft(q, cond):
            smaller = QTuple(*(0.5 * np.array([q.qa, q.qb, q.qc, q.qab, q.qac, q.qbb])))
            assert check_ft(smaller, cond)


def test_check_ft_margin_semantics():
    cond = ThresholdConditions(margin=1 / 3)
    # the operating-point test bounds the independent rate by margin * qa_max
    assert check_ft(QTuple(0.007, 0.1, 0.1, 0.0015, 0.0015, 0.0015), cond)
    assert not check_ft(QTuple(0.008, 0.0, 0.0, 0.0015, 0.0015, 0.0015), cond)
    # and the correlated rate by margin * qcor_budget
    assert not check_ft(QTuple(0.007, 0.0, 0.0, 0.014, 0.0, 0.0), cond)
    with pytest.raises(ValueError):
        ThresholdConditions(margin=0.0)


# --- thresholds -------------------------------------------------------------------

# q_corr = (8/15) p_g + p_M does not depend on the pumped pair, so at margin 1
# no threshold passes the p_g where it reaches QCOR_MAX: 0.06/23 for p_M = p_g,
# 0.005 for p_M = 4 p_g/15
CAPS = {"equal": 0.06 / 23, "four_fifteenths": 0.005}


def test_threshold_equal_rule():
    assert threshold_pg(1.0, SCHED_122, "equal") == pytest.approx(CAPS["equal"], rel=REL_TOL)


def test_threshold_four_fifteenths_rule():
    th = threshold_pg(1.0, SCHED_122, "four_fifteenths")
    assert th == pytest.approx(CAPS["four_fifteenths"], rel=REL_TOL)


def test_fixed_measurement_error_lies_below_one():
    # a fixed p_M is a probability in [0, 1); NoiseParams refuses 1 too, so
    # the rule must refuse it on its own
    below = np.nextafter(1.0, 0.0)
    assert p_M_of(below, 1e-3) == below
    assert p_M_of(0.0, 1e-3) == 0.0
    with pytest.raises(ValueError, match=r"p_M must lie in \[0, 1\), got 1.0"):
        p_M_of(1.0, 1e-3)


@pytest.mark.parametrize("rule", CAPS)
def test_no_threshold_exceeds_the_correlated_cap(rule):
    for schedule in SINGLE_SCHEDULE_PRESETS + DOUBLE_SCHEDULE_PRESETS:
        for F, th in threshold_curve(schedule, np.linspace(0.7, 1.0, 7), rule):
            assert th <= CAPS[rule] * (1 + REL_TOL), (schedule, F)


def test_threshold_noisy_channel():
    assert threshold_pg(0.7, SCHED_3414, "equal") >= 0.001


def test_threshold_zero_when_nothing_passes():
    assert threshold_pg(0.72, SCHED_122, "equal") == 0.0


def test_threshold_brackets_the_crossing():
    tol = 1e-4
    cond = ThresholdConditions()
    for F, sched in ((1.0, SCHED_122), (0.9, SCHED_122)):
        th = threshold_pg(F, sched, "equal", cond, rel_tol=tol)
        assert pipeline_passes(F, th * (1 - 2 * tol), sched, "equal", cond)
        assert not pipeline_passes(F, th * (1 + 2 * tol), sched, "equal", cond)


def test_threshold_rejects_unknown_rule():
    for rule in ("half", 1.5):
        with pytest.raises(ValueError):
            threshold_pg(1.0, SCHED_122, rule)
        with pytest.raises(ValueError):
            threshold_curve(SCHED_122, [0.9, 1.0], rule)


def test_operating_points():
    assert pipeline_passes(0.7, 1e-3, SCHED_3414, "equal", ThresholdConditions())
    assert pipeline_passes(0.9, 1e-3, SCHED_122, "equal", ThresholdConditions(margin=1 / 3))


# --- curves -----------------------------------------------------------------------

def test_threshold_curve_single_point():
    [(F, th)] = threshold_curve(SCHED_122, [1.0])
    assert F == 1.0
    assert th == pytest.approx(0.0026, abs=1e-4)


def test_threshold_curve_empty_grid():
    assert threshold_curve(SCHED_122, []) == []


def test_threshold_curve_monotone_in_fidelity():
    curve = threshold_curve(SCHED_3414, [0.7, 0.8, 0.9, 1.0], rel_tol=1e-3)
    values = [th for _, th in curve]
    assert all(a <= b * (1 + 5e-3) for a, b in zip(values, values[1:]))


def test_threshold_curve_points_bracket_their_crossings():
    tol = 1e-4
    cond = ThresholdConditions()
    for F, th in threshold_curve(SCHED_3414, [0.75, 0.9], rel_tol=tol):
        assert pipeline_passes(F, th * (1 - 2 * tol), SCHED_3414, "equal", cond)
        assert not pipeline_passes(F, th * (1 + 2 * tol), SCHED_3414, "equal", cond)


def test_schedule_presets():
    assert tuple(s.counts for s in SINGLE_SCHEDULE_PRESETS) == (
        (2, 4), (3, 4), (3, 7), (5, 6), (5, 8), (5, 10), (5, 11), (5, 13))
    assert tuple(s.counts for s in DOUBLE_SCHEDULE_PRESETS) == (
        (2, 5, 5), (2, 4, 8), (3, 3, 9), (3, 3, 11), (3, 3, 13), (3, 4, 14))


def test_contour_level_one_is_empty():
    curves = contour_infidelity([SCHED_122], 1.0, [0.9, 0.95])
    assert curves == [[]]


def test_contour_empty_grid():
    assert contour_infidelity([SCHED_122], 1e-3, []) == [[]]


def test_contour_level_validation():
    with pytest.raises(ValueError):
        contour_infidelity([SCHED_122], 0.0, [0.9])


def test_noiseless_infidelity_crosses_level_for_double_presets():
    # with perfect local operations every double-selection preset crosses
    # the 1e-3 infidelity level somewhere along the fidelity axis
    for schedule in DOUBLE_SCHEDULE_PRESETS:
        values = [1 - pump(ChannelParams(F), schedule, depolarizing_noise(0.0, 0.0)).f_out[0]
                  for F in (0.55, 0.75, 0.95)]
        assert values[-1] < 1e-3
        assert values[0] > 1e-3


def test_contour_points_sit_on_the_level():
    [[point]] = contour_infidelity([SCHED_122], 1e-3, [0.95])
    F, p = point
    infidelity = 1 - pump(ChannelParams(F), SCHED_122, depolarizing_noise(p, p)).f_out[0]
    assert infidelity == pytest.approx(1e-3, rel=1e-3)


def test_a_lane_whose_first_stage_underflows_fails_and_is_omitted():
    # 1200 bit-flip checks against F = 0.26 ancillas underflow in stage 0 at
    # every rate, leaving f_out NaN and p_net 0: the lane fails the
    # conditions and reaches no level
    schedule = PumpSchedule.single(1200, 0)
    noise = depolarizing_noise(np.array([1e-3]), np.array([1e-3]))
    lanes = purify.pump_lanes(schedule, ChannelParams(0.26).f_ini[None], noise, [0])
    with pytest.raises(purify.SuccessProbabilityError, match="^level-1 single pumping: "):
        lanes.result(0)
    assert lanes.probs[0].tolist() == [0.0] and np.isnan(lanes.f_out).all() and lanes.p_net.tolist() == [0.0]
    assert threshold_curve(schedule, [0.26]) == [(0.26, 0.0)]
    assert contour_infidelity([schedule], 0.1, [0.26]) == [[]]
    assert contour_expected_cost(schedule, [1e4], [0.26]) == [[]]
    assert not pipeline_passes(0.26, 1e-6, schedule, "equal", ThresholdConditions())


# --- lanes do not couple ----------------------------------------------------------

PRESETS = SINGLE_SCHEDULE_PRESETS + DOUBLE_SCHEDULE_PRESETS + (SCHED_122,)
FIDELITIES = st.floats(0.25, 1.0, exclude_min=True)


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(deadline=None, max_examples=20)
@given(
    schedule=st.sampled_from(PRESETS),
    grid=st.lists(FIDELITIES, min_size=1, max_size=6),
    rule=st.sampled_from(["equal", "four_fifteenths"]),
    margin=st.sampled_from([1.0, 0.5, 1 / 3]),
)
def test_threshold_curve_equals_pointwise_thresholds(schedule, grid, rule, margin):
    # the lockstep search gives every lane exactly the threshold a search
    # of that fidelity alone finds, NaN where that search raises
    cond = ThresholdConditions(margin=margin)
    curve = threshold_curve(schedule, grid, rule, cond)
    assert [F for F, _ in curve] == grid
    for F, th in curve:
        try:
            alone = threshold_pg(F, schedule, rule, cond)
        except (NonMonotoneIndicatorError, ValueError):
            alone = math.nan
        assert same_float(th, alone)


@settings(deadline=None, max_examples=20)
@given(
    schedule=st.sampled_from(PRESETS),
    levels=st.lists(st.floats(1.0, 3000.0), min_size=2, max_size=4),
    grid=st.lists(st.floats(0.5, 1.0), min_size=1, max_size=4),
    model=st.sampled_from([CostModel(), CostModel(count_local_ops=True)]),
)
def test_cost_contour_levels_equal_separate_contours(schedule, levels, grid, model):
    curves = contour_expected_cost(schedule, levels, grid, model)
    assert curves == [contour_expected_cost(schedule, [level], grid, model)[0] for level in levels]


@settings(deadline=None, max_examples=20)
@given(
    schedules=st.lists(st.sampled_from(PRESETS), min_size=1, max_size=2),
    level=st.floats(-5.0, -0.5).map(lambda e: 10.0**e),
    grid=st.lists(st.floats(0.5, 1.0), min_size=1, max_size=5),
)
def test_infidelity_contour_equals_pointwise_contours(schedules, level, grid):
    # lanes leave the scan of the doubling rates and the bisection at
    # different steps; each point must still be the one its fidelity finds alone
    curves = contour_infidelity(schedules, level, grid)
    assert curves == [
        [pt for F in grid for pt in contour_infidelity([s], level, [F])[0]] for s in schedules
    ]


def test_sweeps_pump_at_most_lane_block_lanes(monkeypatch):
    # every sweep pumps its lanes in blocks of at most LANE_BLOCK, and the
    # block size changes no point; a scan pass holds as many rates as fit in
    # LANE_BLOCK lanes, but at least one, so no scan pass exceeds the sweep's
    # lanes; a bisection pass pumps the predicted path of each bracket, so it
    # holds at most PATH_STEPS lanes per bracketed lane, except a threshold
    # search's first, whose paths run to a full bisection's steps.  At the
    # default LANE_BLOCK a contour's scan runs in one pass, past each lane's
    # first fail, and its paths still hold PATH_STEPS
    grid, cost_grid = [0.75, 0.8, 0.9, 0.95, 1.0], [0.8, 0.9, 0.95, 0.99]
    levels, model = [20.0, 80.0, 400.0], CostModel(count_local_ops=True)
    curve = threshold_curve(SCHED_122, grid)
    cost = contour_expected_cost(SCHED_122, levels, cost_grid, model)
    batches, searches = [], []
    pump_lanes, crossings = threshold.pump_lanes, threshold._crossings

    def recorded(schedule, f_ini, noise, index):
        batches.append(len(f_ini))
        return pump_lanes(schedule, f_ini, noise, index)

    def recorded_search(passes, n, scan, *args, **kwargs):
        sizes = []  # (a scan pass, lanes) of every pass

        def recorded_pass(lanes, p):
            sizes.append((np.isin(p, scan).all(), len(p)))
            return passes(lanes, p)

        result = crossings(recorded_pass, n, scan, *args, **kwargs)
        searches.append((sizes, result[1].sum(), kwargs["first_fail"]))
        return result

    monkeypatch.setattr(threshold, "pump_lanes", recorded)
    monkeypatch.setattr(threshold, "_crossings", recorded_search)
    contour_expected_cost(SCHED_122, levels, cost_grid, model)
    assert searches[0][0][0] == (True, len(levels) * len(cost_grid) * 14)  # the whole scan in one pass
    monkeypatch.setattr(threshold, "LANE_BLOCK", 7)
    batches.clear()
    assert threshold_curve(SCHED_122, grid) == curve
    assert contour_expected_cost(SCHED_122, levels, cost_grid, model) == cost
    assert max(batches) == 7
    scans = [size for sizes, _, _ in searches for on_scan, size in sizes if on_scan]
    steps = [(size, bracketed, i == 0 and not first_fail) for sizes, bracketed, first_fail in searches
             for i, size in enumerate(size for on_scan, size in sizes if not on_scan)]
    assert max(scans[1:]) <= len(levels) * len(cost_grid) == 12  # after the default's one scan pass
    # the geometric bisection of a threshold scan bracket to REL_TOL: 13 steps
    scan = np.geomspace(1e-6, threshold.P_MAX, 24)
    full = math.ceil(math.log2(math.log(scan[1] / scan[0]) / math.log1p(REL_TOL)))
    assert steps and all(size <= (full if long_paths else threshold.PATH_STEPS) * bracketed
                         for size, bracketed, long_paths in steps)
    assert any(size > threshold.PATH_STEPS * bracketed for size, bracketed, _ in steps)  # a full path ran


def test_threshold_scan_builds_each_rate_once_per_block(monkeypatch):
    # pump_at orders a pass's pairs rate by rate, so each block of LANE_BLOCK
    # pairs builds the maps of one or two scan rates, not of every rate
    grid = np.linspace(0.7, 1.0, 10)
    curve = threshold_curve(SCHED_3414, grid)
    scan = np.geomspace(1e-6, threshold.P_MAX, 24)
    built = []
    build_maps = purify._build_maps

    def recorded(p_tables, p_M, double=True):
        built.append(np.isin(p_M, scan).sum())  # p_M = p_g under the "equal" rule
        return build_maps(p_tables, p_M, double)

    monkeypatch.setattr(threshold, "LANE_BLOCK", 20)
    monkeypatch.setattr(purify, "_build_maps", recorded)
    assert threshold_curve(SCHED_3414, grid) == curve
    assert sum(built) == 24


def test_pump_at_pumps_each_distinct_pair_once_rate_major(monkeypatch):
    # lanes that repeat and permute (row, rate) pairs: each distinct pair is
    # pumped once, rate-major, in blocks of LANE_BLOCK pairs with one noise
    # batch holding the distinct rates of a block, and every lane reads its
    # own pair, and the read gets each pair's p_g and p_M
    f_ini = np.array([ChannelParams(F).f_ini for F in (0.8, 0.9, 0.95)])
    k = np.array([2, 0, 2, 1, 0, 2, 1])
    p = np.array([2e-3, 1e-3, 2e-3, 1e-3, 3e-3, 1e-3, 1e-3])
    p_M = 4.0 * p / 15.0  # one per lane, the same for every lane of a pair
    reads = []

    def read(lanes, rates, p_M):
        reads.append((rates.tolist(), p_M.tolist()))
        return lanes.f_out[:, 1] / rates

    made, blocks = [], []  # holding every noise made keeps the ids apart
    noise, pump_lanes = threshold.depolarizing_noise, threshold.pump_lanes

    def recorded_noise(p_g, p_M):
        made.append((noise(p_g, p_M), p_g.tolist(), p_M.tolist()))
        return made[-1][0]

    def recorded(schedule, f, batch, index):
        rates = {id(x): p_g for x, p_g, _ in made}[id(batch)]
        rows = [int(np.flatnonzero((f_ini == row).all(axis=1))[0]) for row in f]
        blocks.append(([(rates[i], row) for i, row in zip(index, rows)], len(rates)))
        return pump_lanes(schedule, f, batch, index)

    monkeypatch.setattr(threshold, "LANE_BLOCK", 3)
    alone = [threshold.pump_at(SCHED_122, f_ini, k[[b]], p[[b]], float(p_M[b]), read)[0] for b in range(len(k))]
    monkeypatch.setattr(threshold, "depolarizing_noise", recorded_noise)
    monkeypatch.setattr(threshold, "pump_lanes", recorded)
    reads.clear()
    values = threshold.pump_at(SCHED_122, f_ini, k, p, p_M, read)
    assert blocks == [([(1e-3, 0), (1e-3, 1), (1e-3, 2)], 1), ([(2e-3, 2), (3e-3, 0)], 2)]
    assert [p_g for _, p_g, _ in made] == [[1e-3], [2e-3, 3e-3]]  # one call per block
    assert [m for _, _, m in made] == [[4.0 * x / 15.0 for x in rates] for _, rates, _ in made]
    assert reads == [([1e-3] * 3, [4.0 * 1e-3 / 15.0] * 3), ([2e-3, 3e-3], [4.0 * 2e-3 / 15.0, 4.0 * 3e-3 / 15.0])]
    assert values.tobytes() == np.array(alone).tobytes()


def test_pump_at_pumps_lanes_at_one_rate_and_their_own_p_m_apart(monkeypatch):
    # lanes of different rows may share a rate but not their p_M: each
    # (p_g, p_M) point of a block is its own noise point, so every lane
    # is pumped, and read, at its own p_M
    f_ini = np.array([ChannelParams(F).f_ini for F in (0.8, 0.9)])
    k, p, p_M = np.array([0, 1]), np.array([1e-3, 1e-3]), np.array([0.0, 1e-2])

    def read(lanes, rates, p_M):
        return lanes.f_out[:, 0] + 0.0 * p_M

    alone = [threshold.pump_at(SCHED_122, f_ini, k[[b]], p[[b]], p_M[b], read)[0] for b in range(2)]
    points, noise = [], threshold.depolarizing_noise
    monkeypatch.setattr(threshold, "depolarizing_noise", lambda p_g, p_M: points.append(p_M.tolist()) or noise(p_g, p_M))
    assert threshold.pump_at(SCHED_122, f_ini, k, p, p_M, read).tobytes() == np.array(alone).tobytes()
    assert points == [[0.0, 1e-2]]


def test_a_threshold_sweep_works_out_p_m_once_per_pass(monkeypatch):
    # the p_M rule runs once per _passes call and once up front, where
    # threshold_curve checks it; pump_at and the verdict use what it gave
    calls, passes = [], []
    p_M_of, _passes = threshold.p_M_of, threshold._passes

    def counted(rule, p_g):
        calls.append(rule)
        return p_M_of(rule, p_g)

    def counted_passes(*args):
        passes.append(len(args[3]))
        return _passes(*args)

    curve = threshold_curve(SCHED_122, [0.8, 0.9, 1.0], "four_fifteenths")
    monkeypatch.setattr(threshold, "LANE_BLOCK", 7)  # several pump blocks per pass
    monkeypatch.setattr(threshold, "p_M_of", counted)
    monkeypatch.setattr(threshold, "_passes", counted_passes)
    assert threshold_curve(SCHED_122, [0.8, 0.9, 1.0], "four_fifteenths") == curve
    assert max(passes) > 7 and len(calls) == len(passes) + 1


# pump_lanes calls, lanes and noise points of a few sweeps.  The predicted
# bisection paths move no point of a sweep, only these counts; they hang on
# the pumped values and the interpolation's arithmetic alone, so no machine
# changes them.  The threshold sweeps' full paths finish in one bisection pass
PUMP_COUNTS = {
    "threshold": (lambda: threshold_curve(SCHED_3414, np.linspace(0.7, 1.0, 8)), (2, 296, 62)),
    "threshold at margin 1/3": (lambda: threshold_curve(
        SCHED_122, [0.75, 0.8, 0.9, 0.95, 1.0], "four_fifteenths", ThresholdConditions(1 / 3)), (2, 159, 62)),
    "cost contour": (lambda: contour_expected_cost(
        SCHED_122, [20.0, 80.0, 400.0], [0.8, 0.9, 0.95, 0.99], CostModel(count_local_ops=True)), (4, 100, 57)),
    "infidelity contour": (lambda: contour_infidelity([SCHED_3414], 1e-3, np.linspace(0.6, 1.0, 5)), (3, 109, 53)),
}


@pytest.mark.parametrize("sweep", PUMP_COUNTS)
def test_sweep_pump_counts_are_pinned(monkeypatch, sweep):
    run, counts = PUMP_COUNTS[sweep]
    calls = []
    pump_lanes = threshold.pump_lanes

    def recorded(schedule, f_ini, noise, index):
        calls.append((len(f_ini), noise.p_M.size))
        return pump_lanes(schedule, f_ini, noise, index)

    monkeypatch.setattr(threshold, "pump_lanes", recorded)
    run()
    assert (len(calls), sum(lanes for lanes, _ in calls), sum(points for _, points in calls)) == counts


# --- the crossing search against plain per-lane references -------------------------

def reference_threshold(ok, rel_tol=threshold.REL_TOL):
    """One lane's threshold search, point by point: the 24-point geometric
    scan, 0 on a fail at its first point, NaN unless it turns exactly once,
    then geometric bisection of the bracket around the first fail."""
    grid = np.geomspace(1e-6, threshold.P_MAX, 24)
    flags = [ok(p) for p in grid]
    if not flags[0]:
        return 0.0
    if sum(a != b for a, b in zip(flags, flags[1:])) != 1:
        return math.nan
    k = flags.index(False)
    lo, hi = grid[k - 1], grid[k]
    while hi - lo > rel_tol * lo:
        mid = np.sqrt(lo * hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return np.sqrt(lo * hi)


def reference_crossing(ok):
    """One lane's level crossing, step by step: None on a fail at p = 0, then
    p doubles from 1e-5 while it passes, None once it passes P_MAX, then
    arithmetic bisection of the bracket around the first fail."""
    if not ok(0.0):
        return None
    lo, p = 0.0, 1e-5
    while ok(p):
        lo, p = p, 2.0 * p
        if p > threshold.P_MAX:
            return None
    hi = p
    while hi - lo > threshold.REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return 0.5 * (lo + hi)


# rates at which a synthetic value steps: some scan rates of either search,
# so steps land on the grid points themselves, and arbitrary rates.  None
# lies in (0, 1e-9): a contour bracket shrinking to a subnormal hi never
# meets the reference's stop test hi - lo > REL_TOL * hi (the driver's stop
# on a midpoint that no longer moves is tested below), and no pumped value
# crosses its level that close to p = 0
STEP_RATES = st.one_of(
    st.sampled_from([0.0, 1e-5, 4e-5, 0.02048, 0.04096, threshold.P_MAX]),
    st.sampled_from(np.geomspace(1e-6, threshold.P_MAX, 24).tolist()),
    st.floats(1e-9, 0.06),
)


@st.composite
def step_values(draw):
    """A piecewise-constant value of the rate p: ``values[i]`` on the i-th
    interval between the sorted ``steps``; any shape, monotone or not."""
    steps = sorted(draw(st.lists(STEP_RATES, max_size=4)))
    return steps, draw(st.lists(st.floats(0.0, 3.0), min_size=len(steps) + 1, max_size=len(steps) + 1))


def value_at(value, p):
    steps, values = value
    return values[np.searchsorted(steps, p, side="right")]


# per lane: monotone, re-passing after its first fail, failing at the first
# rate and never failing (with level 1)
SHAPES = [([1e-3], [0.0, 2.0]), ([1e-4, 2e-3], [0.0, 2.0, 0.0]), ([], [2.0]), ([], [0.0])]


@pytest.mark.parametrize("block", [threshold.LANE_BLOCK, 7])
@settings(deadline=None, max_examples=60)
@example(values=SHAPES, levels=[1.0])
@example(values=SHAPES, levels=[1.0, 2.5, 0.5])
@given(values=st.lists(step_values(), min_size=1, max_size=8),
       levels=st.lists(st.floats(0.0, 3.0), min_size=1, max_size=3))
def test_crossing_searches_equal_per_lane_references(block, values, levels):
    # thresholds and contours as their sweeps search them, on synthetic
    # verdicts; at block 7 the scan runs in passes of a few rates, with lanes
    # leaving the contour scan after a failing pass
    n = len(values)
    F_grid = [0.5 + i / 64 for i in range(n)]

    def passes(schedule, f_ini, k, p, p_M_rule, cond):
        return np.array([value_at(values[i], x) < 1.0 for i, x in zip(k, p)], dtype=bool)

    def pumped(schedule, f_ini, k, p_g, p_M, read):
        return np.array([value_at(values[i], x) for i, x in zip(k, p_g)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threshold, "LANE_BLOCK", block)
        mp.setattr(threshold, "_passes", passes)
        mp.setattr(threshold, "pump_at", pumped)
        curve = threshold_curve(SCHED_122, F_grid)
        curves = threshold.contours(SCHED_122, levels, F_grid, None)
    assert [F for F, _ in curve] == F_grid
    for (_, th), v in zip(curve, values):
        assert same_float(th, reference_threshold(lambda p: value_at(v, p) < 1.0))
    assert curves == [
        [(F, p) for F, v in zip(F_grid, values)
         if (p := reference_crossing(lambda p: value_at(v, p) < level)) is not None]
        for level in levels
    ]


@st.composite
def smooth_values(draw):
    """A value of the rate p that turns from positive to negative at a
    crossing c, or never below P_MAX: a line, a quadratic, an exponential,
    or the smaller of two lines, whose kink lies below c, often inside c's
    scan bracket.  The predictions get the line's path right, and often the
    quadratic's whole path, which a threshold lane's first pass pumps in
    full; the others' they get wrong at some step."""
    c = 10.0 ** draw(st.floats(-6.5, -1.0))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    shape = draw(st.sampled_from(["line", "quadratic", "exponential", "kink"]))
    if shape == "line":
        return lambda p: scale * (c - p)
    if shape == "quadratic":
        curve = draw(st.floats(0.0, 1.0))
        return lambda p: scale * (c - p) * (1.0 + curve * p / c)
    if shape == "exponential":
        rate = draw(st.floats(1.0, 500.0)) / c
        return lambda p: scale * math.expm1(rate * (c - p))
    slope, c_far = draw(st.floats(0.01, 0.9)), c * draw(st.floats(1.01, 2.0))
    return lambda p: scale * min(slope * (c_far - p), c - p)


@pytest.mark.parametrize("block", [threshold.LANE_BLOCK, 7])
@settings(deadline=None, max_examples=40)
@given(values=st.lists(smooth_values(), min_size=1, max_size=6))
def test_crossing_searches_on_smooth_values_equal_per_lane_references(block, values):
    # where the values are smooth the predicted bisection paths are right in
    # full or wrong at some step; either way each lane ends where the plain
    # bisection of that lane ends.  A contour reads -value against level 0
    F_grid = [0.5 + i / 64 for i in range(len(values))]

    def at(k, p, sign):
        return np.array([sign * values[i](x) for i, x in zip(k, p)])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(threshold, "LANE_BLOCK", block)
        mp.setattr(threshold, "_passes", lambda schedule, f_ini, k, p, p_M_rule, cond: at(k, p, 1.0))
        mp.setattr(threshold, "pump_at", lambda schedule, f_ini, k, p_g, p_M, read: at(k, p_g, -1.0))
        curve = threshold_curve(SCHED_122, F_grid)
        [contour] = threshold.contours(SCHED_122, [0.0], F_grid, None)
    for (_, th), v in zip(curve, values):
        assert same_float(th, reference_threshold(lambda p: v(p) > 0))
    assert contour == [(F, p) for F, v in zip(F_grid, values)
                       if (p := reference_crossing(lambda p: -v(p) < 0.0)) is not None]


def test_contour_bisection_ends_when_its_midpoint_stops_moving():
    # a crossing a few subnormals above p = 0: REL_TOL * hi underflows to 0,
    # so hi - lo > REL_TOL * hi holds for ever, and 0.5 * (lo + hi) rounds
    # onto an end of the bracket; only the midpoint stop ends the lane
    calls = []

    def passes(lanes, p):
        calls.append(p)
        if len(calls) > 3000:
            pytest.fail("the bisection did not end within 3000 steps")
        return p < 1e-323

    first, found, rates = threshold._crossings(
        passes, 1, np.array([0.0] + [1e-5 * 2.0**k for k in range(13)]),
        lambda lo, hi: 0.5 * (lo + hi), lambda lo, hi: hi - lo > threshold.REL_TOL * hi, first_fail=True,
    )
    assert first[0] and found[0]
    assert 5e-324 <= rates[0] <= 1e-323


def test_a_bracket_end_with_no_value_predicts_the_midpoint():
    # a lane whose value is NaN above its crossing, as where pumping
    # underflows, gets no regula falsi prediction: its first bisection pass
    # predicts the crossing at the bracket's midpoint, which fails, and pumps
    # the path that closes in on the midpoint from below
    pumped = []

    def value(lanes, p):
        pumped.append(p.tolist())
        return np.where(p < 2.9e-5, 1.0, math.nan)

    first, found, rates = threshold._crossings(
        value, 1, np.array([0.0] + [1e-5 * 2.0**k for k in range(13)]),
        lambda lo, hi: 0.5 * (lo + hi), lambda lo, hi: hi - lo > REL_TOL * hi, first_fail=True,
    )
    lo, hi = 2e-5, 4e-5
    path = [0.5 * (lo + hi)]
    lo, hi = lo, path[0]
    while len(path) < threshold.PATH_STEPS:
        path.append(0.5 * (lo + hi))
        lo = path[-1]
    assert pumped[1] == path
    assert found[0] and rates[0] == reference_crossing(lambda p: p < 2.9e-5)


THRESHOLD_SCAN = np.geomspace(1e-6, threshold.P_MAX, 24)
CONTOUR_SCAN = np.array([0.0] + [1e-5 * 2.0**k for k in range(13)])
GEOMETRIC = (lambda lo, hi: np.sqrt(lo * hi), lambda lo, hi: hi - lo > REL_TOL * lo)
ARITHMETIC = (lambda lo, hi: 0.5 * (lo + hi), lambda lo, hi: hi - lo > REL_TOL * hi)


def recorded_crossings(value, n, scan, search, first_fail):
    """``_crossings`` of ``value(lanes, p)`` over n lanes, and the (lanes,
    rates) of every pass it pumps."""
    passes = []

    def recorded(lanes, p):
        passes.append((lanes.tolist(), p.tolist()))
        return value(lanes, p)

    return threshold._crossings(recorded, n, scan, *search, first_fail=first_fail), passes


def predicted_path(lo, hi, x, mean):
    """The first PATH_STEPS midpoints of the bisection of [lo, hi] on the
    verdicts that a crossing at x predicts."""
    path = []
    for _ in range(threshold.PATH_STEPS):
        path.append(mean(lo, hi))
        lo, hi = (path[-1], hi) if path[-1] < x else (lo, path[-1])
    return path


def test_threshold_lanes_whose_inverse_is_quadratic_finish_in_one_bisection_pass():
    # p is a quadratic in the value, so the interpolant meets the crossing c
    # itself, and every lane's full-length path is right
    crossings = np.array([3e-6, 2e-4, 1.1e-3, 7e-3])

    def value(lanes, p):  # p = c - 2 v sqrt(s) - v**2, s = 0.06
        return np.sqrt(crossings[lanes] + 0.06 - p) - math.sqrt(0.06)

    (first, found, th), passes = recorded_crossings(value, 4, THRESHOLD_SCAN, GEOMETRIC, False)
    assert len(passes) == 2 and len(passes[1][1]) > threshold.PATH_STEPS * 4
    assert first.all() and found.all()
    for c, t in zip(crossings, th):
        assert t == reference_threshold(lambda p: math.sqrt(c + 0.06 - p) - math.sqrt(0.06) > 0)


def test_a_contour_lane_keeps_path_steps_where_its_scan_reads_past_its_fail():
    # the quadratic inverse of the test above as contour lanes: their scan
    # runs in one pass and reads every rate, and the interpolant predicts
    # each whole bisection right, yet every first path holds PATH_STEPS
    # midpoints and the search bisects on in later passes
    crossings = np.array([3e-5, 2e-4, 1.1e-3, 7e-3])

    def value(lanes, p):
        return np.sqrt(crossings[lanes] + 0.06 - p) - math.sqrt(0.06)

    (_, found, rates), passes = recorded_crossings(value, 4, CONTOUR_SCAN, ARITHMETIC, True)
    assert len(passes[0][1]) == 4 * CONTOUR_SCAN.size
    assert len(passes[1][1]) == 4 * threshold.PATH_STEPS and len(passes) > 2
    assert found.all() and rates.tolist() == [
        reference_crossing(lambda p: math.sqrt(c + 0.06 - p) - math.sqrt(0.06) > 0) for c in crossings]


def test_the_first_prediction_falls_back_to_regula_falsi_then_the_midpoint():
    # four contour lanes bracketed at k = 3, between 2e-5 and 4e-5, whose
    # values are linear between their scan values: the inverse quadratic
    # interpolation through rates k-2, k-1 and k predicts the first lane's
    # crossing inside the bracket, the second's outside, where regula falsi
    # predicts instead, and the third's not at all (two equal values), nor
    # can anything predict the fourth's, NaN at the bracket's top, but the
    # midpoint
    scan_values = np.array([[3.0, 2.5, 1.5, -1.0], [1.0, 0.99, 0.98, -5.0],
                            [3.0, 1.0, 1.0, -3.0], [3.0, 1.0, 1.0, math.nan]])

    def value(lanes, p):
        return np.array([np.interp(x, CONTOUR_SCAN[:4], scan_values[i]) for i, x in zip(lanes, p)])

    def inverse_quadratic(p, v):  # Lagrange's form in v, at v = 0
        return sum(p[i] * v[i - 1] * v[i - 2] / ((v[i] - v[i - 1]) * (v[i] - v[i - 2])) for i in range(3))

    (_, found, rates), passes = recorded_crossings(value, 4, CONTOUR_SCAN, ARITHMETIC, True)
    lo, hi = CONTOUR_SCAN[2:4]
    guess = [inverse_quadratic(CONTOUR_SCAN[1:4], v[1:]) for v in scan_values[:2]]
    falsi = [lo + (hi - lo) * (v[2] / (v[2] - v[3])) for v in scan_values[1:3]]
    assert lo < guess[0] < hi and not lo < guess[1] < hi
    predicted = [guess[0], *falsi, 0.5 * (lo + hi)]
    lanes, rates_pumped = passes[1]
    for b, x in enumerate(predicted):
        assert [p for lane, p in zip(lanes, rates_pumped) if lane == b] == predicted_path(lo, hi, x, ARITHMETIC[0])
    assert found.all() and rates.tolist() == [
        reference_crossing(lambda p: np.interp(p, CONTOUR_SCAN[:4], v) > 0) for v in scan_values]


def test_a_later_pass_predicts_by_regula_falsi_on_the_pumped_bracket_ends():
    # two contour lanes bracketed between 2e-5 and 4e-5, linear between the
    # knots of their values, whose first paths are mispredicted at steps 2
    # and 3: the first passes at its first midpoint m and fails after, the
    # second fails at m and passes after, so m is the end of the new
    # bracket whose value the walk must keep from step 0
    knots = [np.array([0.0, 1e-5, 2e-5, 3e-5, 3.1e-5, 4e-5]), np.array([0.0, 1e-5, 2e-5, 2.98e-5, 3e-5, 4e-5])]
    knot_values = [[4.0, 3.0, 2.0, 1.0, -1.0, -2.0], [3.0, 2.0, 1.0, 0.01, -0.5, -4.0]]

    def at(b, p):
        return np.interp(p, knots[b], knot_values[b])

    (_, found, rates), passes = recorded_crossings(
        lambda lanes, p: np.array([at(b, x) for b, x in zip(lanes, p)]), 2, CONTOUR_SCAN, ARITHMETIC, True)
    mean = ARITHMETIC[0]
    lo, hi = CONTOUR_SCAN[2:4]
    m = mean(lo, hi)
    # pass, fail, then a fail predicted to pass; fail, pass, pass, then a
    # pass predicted to fail
    brackets = [(m, mean(m, mean(m, hi))), (mean(mean(mean(lo, m), m), m), m)]
    lanes, rates_pumped = passes[2]
    for lane, (l, h) in enumerate(brackets):
        x = l + (h - l) * (at(lane, l) / (at(lane, l) - at(lane, h)))
        assert [p for i, p in zip(lanes, rates_pumped) if i == lane] == predicted_path(l, h, x, mean)
    assert found.all() and rates.tolist() == [reference_crossing(lambda p: at(lane, p) > 0) for lane in (0, 1)]


def test_a_contour_lane_leaves_the_scan_where_it_reads_its_level(monkeypatch):
    # a read equal to the level does not lie below it, so the lane leaves
    # the scan at that rate; one scan rate per pass
    rates = []

    def pumped(schedule, f_ini, k, p_g, p_M, read):
        assert p_M is p_g  # a contour pumps at p_M = p_g
        rates.extend(p_g.tolist())
        return np.where(p_g < 1e-5, 0.0, 1.0)

    monkeypatch.setattr(threshold, "LANE_BLOCK", 1)
    monkeypatch.setattr(threshold, "pump_at", pumped)
    [curve] = threshold.contours(SCHED_122, [1.0], [0.9], None)
    assert rates[:2] == [0.0, 1e-5] and max(rates) == 1e-5
    assert curve == [(0.9, reference_crossing(lambda p: p < 1e-5))]


def test_pipeline_passes_fails_on_a_slack_of_zero(monkeypatch):
    # a rate on its bound has slack 0 and fails: every bound is strict
    for slack, verdict in ((0.0, False), (5e-324, True), (math.nan, False)):
        monkeypatch.setattr(threshold, "_passes", lambda *args: np.array([slack]))
        assert pipeline_passes(0.9, 1e-3, SCHED_122, "equal", ThresholdConditions()) is verdict


def test_threshold_pg_refuses_a_verdict_that_turns_twice(monkeypatch):
    # a verdict that passes again above its first fail has no single
    # crossing to bisect
    monkeypatch.setattr(threshold, "_passes", lambda schedule, f_ini, k, p, rule, cond: (p < 1e-4) | (p > 1e-2))
    with pytest.raises(NonMonotoneIndicatorError, match="does not cross exactly once"):
        threshold_pg(0.9, SCHED_122)
