import tracemalloc

import numpy as np
import pytest

from distqc.pauli import ChannelParams, depolarizing_noise
from distqc import resources
from distqc.purify import OpsTally, PumpSchedule, SuccessProbabilityError, pump
from distqc.resources import (
    CostModel,
    T_PER_PI8_AT_THIRD_THRESHOLD,
    contour_expected_cost,
    expected_cost,
    shor_gate_count,
    simulate_expected_cost,
    total_overhead,
)

SCHED_122 = PumpSchedule.double(1, 2, 2)
MILD = depolarizing_noise(1e-3, 1e-3)


def test_trivial_schedule_costs_one_pair():
    K = expected_cost(PumpSchedule.double(0, 0, 0), ChannelParams(1.0), depolarizing_noise(0, 0))
    assert K == 1.0


def test_expected_cost_reference_point():
    K = expected_cost(SCHED_122, ChannelParams(0.9), MILD)
    assert 25.0 <= K <= 60.0


def test_expected_cost_at_least_nominal():
    for schedule in (SCHED_122, PumpSchedule.double(3, 4, 14), PumpSchedule.single(3, 4)):
        K = expected_cost(schedule, ChannelParams(0.95), MILD)
        nominal = expected_cost(schedule, ChannelParams(1.0), depolarizing_noise(0, 0))
        assert K >= nominal


@pytest.mark.parametrize("scale, refused", [(1 - 1e-9, True), (1.0, False), (1 + 1e-9, False)])
def test_monte_carlo_draw_budget_at_its_edge(monkeypatch, scale, refused):
    # the refusal estimates trials * rounds / p_net draws; a budget just below
    # that refuses, and one equal to it or just above runs
    trials = 100
    result = pump(ChannelParams(0.9), SCHED_122, MILD)
    estimate = trials * len(result.round_chain()) / result.p_net
    monkeypatch.setattr(resources, "MC_DRAW_BUDGET", estimate * scale)
    if refused:
        with pytest.raises(ValueError, match="over the budget"):
            simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, trials=trials)
    else:
        assert simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, trials=trials) > 0


def test_monte_carlo_refuses_a_net_success_probability_of_zero():
    # every stage succeeds with a positive probability, but an attempt's
    # product of them underflows to 0: its draw estimate is inf
    schedule, noise = PumpSchedule.single(20, 60), depolarizing_noise(0, 0)
    assert pump(ChannelParams(0.3), schedule, noise).p_net == 0.0
    with pytest.raises(ValueError, match="probability 0 needs about inf round draws"):
        simulate_expected_cost(schedule, ChannelParams(0.3), noise, trials=1)


def test_expected_cost_monte_carlo_agreement():
    # at the default of 10**6 trials
    K = expected_cost(SCHED_122, ChannelParams(0.9), MILD)
    K_mc = simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, seed=1)
    assert abs(K_mc - K) / K < 0.02


def test_expected_cost_monte_carlo_agreement_random_points():
    rng = np.random.default_rng(47)
    for _ in range(5):
        F = rng.uniform(0.85, 0.98)
        p = rng.uniform(1e-4, 3e-3)
        schedule = PumpSchedule.double(*rng.integers(1, 3, size=3))
        noise = depolarizing_noise(p, p)
        K = expected_cost(schedule, ChannelParams(F), noise)
        K_mc = simulate_expected_cost(schedule, ChannelParams(F), noise, trials=10**6, seed=2)
        assert abs(K_mc - K) / K < 0.02


def test_expected_cost_grows_as_fidelity_drops():
    values = [
        expected_cost(SCHED_122, ChannelParams(F), MILD) for F in (0.98, 0.92, 0.86, 0.80)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_full_operation_count_model():
    base = expected_cost(SCHED_122, ChannelParams(0.9), MILD)
    full = expected_cost(SCHED_122, ChannelParams(0.9), MILD, CostModel(count_local_ops=True))
    # 11 pairs vs 11 pairs + 20 + 2 gates + 20 + 2 measurements per attempt
    assert full == pytest.approx(base * 55 / 11)


def test_monte_carlo_draws_in_bounded_blocks(monkeypatch):
    # the draws are made in blocks, never for all live trials at once
    # (200 000 trials x 6 rounds would be 9.6 MB of float64 in one array)
    tracemalloc.start()
    try:
        simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, trials=200_000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    # the blocks continue one random stream: one-attempt blocks give the K
    # of a single block
    K = simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, trials=3000, seed=4)
    rounds = len(pump(ChannelParams(0.9), SCHED_122, MILD).round_chain())
    monkeypatch.setattr(resources, "MC_BLOCK_DRAWS", rounds)
    assert simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, trials=3000, seed=4) == K


@pytest.mark.parametrize("trials", [0, -3])
def test_monte_carlo_rejects_too_few_trials(trials):
    with pytest.raises(ValueError, match="at least 1 trial"):
        simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, trials=trials)


def test_contour_ordering():
    curves = contour_expected_cost(SCHED_122, [30.0, 60.0, 120.0], [0.88, 0.92, 0.96])
    by_level = {level: dict(pts) for level, pts in zip((30.0, 60.0, 120.0), curves)}
    for F in (0.88, 0.92, 0.96):
        present = [level for level in (30.0, 60.0, 120.0) if F in by_level[level]]
        ps = [by_level[level][F] for level in present]
        assert ps == sorted(ps)  # larger cost budgets tolerate more local noise
    # the middle curve lies between the outer two wherever all three exist
    for F in (0.88, 0.92, 0.96):
        if all(F in by_level[level] for level in (30.0, 60.0, 120.0)):
            assert by_level[30.0][F] < by_level[60.0][F] < by_level[120.0][F]


def test_contour_empty_levels():
    assert contour_expected_cost(SCHED_122, [], [0.9]) == []


def test_contour_empty_grid():
    assert contour_expected_cost(SCHED_122, [30.0], []) == [[]]


@pytest.mark.parametrize("model", [CostModel(), CostModel(count_local_ops=True)], ids=repr)
def test_contour_omits_points_whose_net_success_underflows(model):
    # p_net underflows to 0.0 with no stage failing: K is inf, so no level
    # is crossed
    schedule = PumpSchedule.single(100, 1000)
    assert contour_expected_cost(schedule, [1e5, 1e300], [0.6, 0.9, 0.99], model) == [[], []]


def test_a_stage_no_attempt_runs_costs_nothing():
    # with m2 = 0 an attempt runs no p_lv1 instance, so the 1200 bit-flip
    # checks that underflow at F = 0.27 neither fail it nor change its cost
    unused, bare = PumpSchedule.double(1200, 1, 0), PumpSchedule.double(0, 1, 0)
    channel, noise = ChannelParams(0.27), depolarizing_noise(0.0, 0.0)
    assert pump(channel, unused, noise).success_probs["p_lv1"] == 0.0
    assert expected_cost(unused, channel, noise) == expected_cost(bare, channel, noise)
    # K stays near 11.99 up to P_MAX at F = 0.27, so these levels cross there
    found = contour_expected_cost(unused, [11.9915, 11.993], [0.27, 0.3])
    assert found == contour_expected_cost(bare, [11.9915, 11.993], [0.27, 0.3]) and all(found)


def test_contour_rejects_bad_level():
    # K is at least one pair, so a level of 0 would trace nothing
    with pytest.raises(ValueError, match="^contour level must be finite and positive, got 0.0$"):
        contour_expected_cost(SCHED_122, [0.0], [0.9])
    with pytest.raises(ValueError):
        contour_expected_cost(SCHED_122, [-5.0], [0.9])
    with pytest.raises(ValueError):
        contour_expected_cost(SCHED_122, [float("nan")], [0.9])
    with pytest.raises(ValueError):
        contour_expected_cost(SCHED_122, [float("inf")], [0.9])


def test_contour_level_whose_cost_overflows_warns_nothing():
    # K = attempt cost / p_net overflows to inf just below p_net's underflow;
    # inf lies above the level, so the point is bisected without a warning
    # (the tests turn every RuntimeWarning into an error)
    curves = contour_expected_cost(PumpSchedule.single(20, 300), [1e300], [1.0])
    assert curves == [[(1.0, 0.028478750000000004)]]


def test_shor_gate_count():
    count = shor_gate_count(1024)
    assert count.pi8 == pytest.approx(3.2e11, rel=0.01)
    assert count.toffoli == 40 * 1024**3
    small = shor_gate_count(2)
    assert small.toffoli == 320
    assert small.pi8 == 2400
    with pytest.raises(ValueError):
        shor_gate_count(1)
    # non-finite sizes, and sizes whose pi/8 count overflows a float
    for n_bits in (float("nan"), float("inf"), 10**103, 10**400):
        with pytest.raises(ValueError):
            shor_gate_count(n_bits)


def test_total_overhead():
    report = total_overhead(40.0, 2e10, 3e11)
    assert report.T == 6e21
    assert report.R == 2.4e23
    assert total_overhead(1.0, 1.0, 1.0).R == 1.0
    # K, T_per_gate and Omega must each be positive, also with the others at 1
    for args in ((0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            total_overhead(*args)
    # non-finite inputs, and a T or R that overflows a float
    for args in ((float("nan"), 1.0, 1.0), (40.0, float("nan"), 3e11),
                 (40.0, float("inf"), 3e11), (40.0, 2e10, 3e302), (1e300, 1e10, 1e10)):
        with pytest.raises(ValueError):
            total_overhead(*args)


def test_overhead_from_expected_cost_band():
    K = expected_cost(SCHED_122, ChannelParams(0.9), MILD)
    report = total_overhead(K, T_PER_PI8_AT_THIRD_THRESHOLD, 3e11)
    assert 1.5e23 <= report.R <= 3.6e23


@pytest.mark.parametrize(
    "schedule, want",
    [(PumpSchedule.double(0, 0, 0), 5.0), (SCHED_122, 55.0), (PumpSchedule.single(3, 4), 100.0)],
    ids=["double(0,0,0)", "double(1,2,2)", "single(3,4)"],
)
def test_noiseless_cost_charges_the_teleported_gate_once(schedule, want):
    # with a perfect channel and no noise every round succeeds, so K is the
    # one attempt: its pairs, gates and measurements plus the teleported
    # gate's two gates and two measurements, each charged once
    channel, noise = ChannelParams(1.0), depolarizing_noise(0, 0)
    K = expected_cost(schedule, channel, noise, CostModel(count_local_ops=True))
    assert K == want


def test_attempt_cost_adds_the_teleported_gate_only_with_local_ops():
    tally = OpsTally(3, 5, 7)
    assert CostModel().attempt_cost(tally) == 3.0
    want = 3 + 5 + 7 + resources.TTG_TWOQ_GATES + resources.TTG_MEASUREMENTS
    assert CostModel(count_local_ops=True).attempt_cost(tally) == want


@pytest.mark.parametrize("model", [CostModel(), CostModel(count_local_ops=True)], ids=repr)
def test_expected_cost_refuses_net_success_underflow(model):
    # p_net underflows to 0.0 with no stage failing; K would be inf
    with pytest.raises(SuccessProbabilityError, match="underflowed"):
        expected_cost(PumpSchedule.single(100, 1000), ChannelParams(0.9), MILD, model)


def test_monte_carlo_charges_the_cost_model_per_attempt():
    # one seed draws the same attempts under either model, and each attempt
    # costs 11 pairs or 55 pairs, gates and measurements
    base = simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, trials=3000, seed=4)
    full = simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD,
                                  CostModel(count_local_ops=True), trials=3000, seed=4)
    assert full == pytest.approx(base * 55 / 11, rel=1e-12)
