import numpy as np
import pytest

from distqc.pauli import ChannelParams, depolarizing_noise
from distqc.purify import PumpSchedule, pump
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


def test_expected_cost_monte_carlo_agreement():
    K = expected_cost(SCHED_122, ChannelParams(0.9), MILD)
    K_mc = simulate_expected_cost(SCHED_122, ChannelParams(0.9), MILD, trials=10**6, seed=1)
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


def test_round_retry_model_is_optimistic():
    model = CostModel(restart="round")
    for F in (0.9, 0.8):
        k_round = expected_cost(SCHED_122, ChannelParams(F), MILD, model)
        k_protocol = expected_cost(SCHED_122, ChannelParams(F), MILD)
        assert k_round < k_protocol


def test_round_retry_charges_fresh_pairs_uniformly():
    # every stage instance's start pair is a fixed cost and every fresh
    # ancilla pair is charged to its round: for single pumping the 1 + n2
    # level-1 chain starts are fixed and only level-1 rounds draw fresh pairs
    n1, n2 = 3, 4
    schedule = PumpSchedule.single(n1, n2)
    chain = pump(ChannelParams(0.9), schedule, MILD).round_chain()
    lv1 = list(range(n1)) + [n1 + r * (n1 + 1) + k for r in range(n2) for k in range(n1)]
    want = (1 + n2) + sum(1.0 / chain[i] for i in lv1)
    K = expected_cost(schedule, ChannelParams(0.9), MILD, CostModel(restart="round"))
    assert K == pytest.approx(want, rel=1e-12)


def test_monte_carlo_rejects_round_retry():
    with pytest.raises(ValueError):
        simulate_expected_cost(
            SCHED_122, ChannelParams(0.9), MILD, CostModel(restart="round"), trials=10
        )


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(restart="never")
    with pytest.raises(ValueError):
        CostModel(weight_gate=-1.0)
    with pytest.raises(ValueError):
        CostModel(count_base_pairs=False, count_local_ops=False)


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


def test_contour_rejects_bad_level():
    with pytest.raises(ValueError):
        contour_expected_cost(SCHED_122, [-5.0], [0.9])


def test_shor_gate_count():
    count = shor_gate_count(1024)
    assert count.pi8 == pytest.approx(3.2e11, rel=0.01)
    assert count.toffoli == 40 * 1024**3
    small = shor_gate_count(2)
    assert small.toffoli == 320
    assert small.pi8 == 2400
    with pytest.raises(ValueError):
        shor_gate_count(1)


def test_total_overhead():
    report = total_overhead(40.0, 2e10, 3e11)
    assert report.T == 6e21
    assert report.R == 2.4e23
    assert total_overhead(1.0, 1.0, 1.0).R == 1.0
    with pytest.raises(ValueError):
        total_overhead(0.0, 1.0, 1.0)


def test_overhead_from_expected_cost_band():
    K = expected_cost(SCHED_122, ChannelParams(0.9), MILD)
    report = total_overhead(K, T_PER_PI8_AT_THIRD_THRESHOLD, 3e11)
    assert 1.5e23 <= report.R <= 3.6e23


@pytest.mark.parametrize(
    "schedule", [PumpSchedule.double(0, 0, 0), SCHED_122, PumpSchedule.single(3, 4)]
)
def test_restart_policies_agree_when_no_round_fails(schedule):
    # with a perfect channel and no noise every round succeeds, so retrying
    # failed rounds costs what restarting failed attempts does; the
    # teleported gate's local operations are charged once under both
    channel, noise = ChannelParams(1.0), depolarizing_noise(0, 0)
    k_protocol = expected_cost(schedule, channel, noise, CostModel(count_local_ops=True))
    k_round = expected_cost(
        schedule, channel, noise, CostModel(restart="round", count_local_ops=True)
    )
    assert k_round == k_protocol
    if schedule == PumpSchedule.double(0, 0, 0):
        assert k_round == 5.0
