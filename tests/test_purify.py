import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from distqc import purify
from distqc.pauli import ChannelParams, NoiseParams, depolarizing_noise
from distqc.purify import (
    MAX_ROUNDS,
    OpsTally,
    PumpSchedule,
    SuccessProbabilityError,
    double_selection,
    double_selection_tensor,
    enumerate_double_map,
    enumerate_single_map,
    pump,
    pump_lanes,
    sample_double_selection,
    sample_single_selection,
    single_selection,
    single_selection_tensor,
    stage_program,
)
from distqc.resources import expected_cost
from distqc.telegate import aggregates, closed_form_aggregates, gate_error_table

PERFECT = np.array([1.0, 0.0, 0.0, 0.0])
NOISELESS = depolarizing_noise(0.0, 0.0)
MILD = depolarizing_noise(1e-3, 1e-3)


def random_fvec(rng):
    v = rng.dirichlet(np.ones(4) * 2.0)
    return v / v.sum()


# --- single selection ------------------------------------------------------

def test_single_selection_noiseless_fixed_point():
    f, p = single_selection(PERFECT, PERFECT, NOISELESS)
    np.testing.assert_array_equal(f, PERFECT)
    assert p == 1.0


def test_single_selection_filters_bit_flips():
    f, p = single_selection([0.9, 0.1, 0, 0], PERFECT, NOISELESS)
    np.testing.assert_allclose(f, PERFECT, atol=1e-15)
    assert p == pytest.approx(0.9)


def test_single_selection_suppresses_x_grows_z():
    v = [0.85, 0.05, 0.05, 0.05]
    f, _ = single_selection(v, v, MILD)
    assert f[1] < 0.05
    assert f[3] > 0.05


def test_single_selection_rejects_unnormalized():
    with pytest.raises(ValueError):
        single_selection([0.9, 0.2, 0, 0], PERFECT, MILD)


# --- double selection ------------------------------------------------------

def test_double_selection_noiseless_fixed_point():
    f, p = double_selection(PERFECT, PERFECT, PERFECT, NOISELESS)
    np.testing.assert_array_equal(f, PERFECT)
    assert p == 1.0


def test_double_selection_filters_bit_flips():
    f, p = double_selection([0.9, 0.1, 0, 0], PERFECT, PERFECT, NOISELESS)
    np.testing.assert_allclose(f, PERFECT, atol=1e-15)
    assert p == pytest.approx(0.9)


def test_double_selection_beats_single_on_identical_inputs():
    v = [0.85, 0.05, 0.05, 0.05]
    f_s, _ = single_selection(v, v, MILD)
    f_d, _ = double_selection(v, v, v, MILD)
    assert 1.0 - f_d[0] < 1.0 - f_s[0]


# --- tensors ---------------------------------------------------------------

def test_single_tensor_noiseless_structure():
    S = single_selection_tensor(NOISELESS)
    assert S[0, 0, 0] == 1.0
    # bit-flip components of the kept pair propagate to the measured pair
    # and land in the rejected parity class
    assert np.all(S[1, 0] == 0.0)
    assert np.all(S[2, 0] == 0.0)


def test_single_tensor_matches_direct_map():
    S = single_selection_tensor(NOISELESS)
    out = np.einsum("ijk,i,j->k", S, [0.9, 0.1, 0, 0], PERFECT)
    assert out.sum() == pytest.approx(0.9)
    np.testing.assert_allclose(out / out.sum(), PERFECT, atol=1e-15)


def test_single_tensor_acceptance_below_one_with_noise():
    S = single_selection_tensor(depolarizing_noise(0.0015, 0.0))
    total = np.einsum("ijk,i,j->", S, PERFECT, PERFECT)
    assert total < 1.0


def test_double_tensor_noiseless_perfect():
    D = double_selection_tensor(NOISELESS)
    out = np.einsum("ijkl,i,j,k->l", D, PERFECT, PERFECT, PERFECT)
    np.testing.assert_array_equal(out, PERFECT)


def test_double_tensor_matches_direct_map_on_random_inputs():
    rng = np.random.default_rng(11)
    D = double_selection_tensor(MILD)
    for _ in range(20):
        t, a, b = random_fvec(rng), random_fvec(rng), random_fvec(rng)
        out = np.einsum("ijkl,i,j,k->l", D, t, a, b)
        f, p = double_selection(t, a, b, MILD)
        np.testing.assert_allclose(out / out.sum(), f, atol=1e-12)
        assert out.sum() == pytest.approx(p, abs=1e-12)


def test_double_tensor_measurement_only_noise_rejects():
    D = double_selection_tensor(depolarizing_noise(0.0, 1e-3))
    total = np.einsum("ijkl,i,j,k->", D, PERFECT, PERFECT, PERFECT)
    assert total < 1.0


def test_tensor_contractions_are_subnormalized():
    # total accepted mass never exceeds 1; the deficit is the rejection rate
    rng = np.random.default_rng(19)
    S = single_selection_tensor(MILD)
    D = double_selection_tensor(MILD)
    assert np.all(S >= 0.0) and np.all(D >= 0.0)
    for _ in range(20):
        t, a, b = random_fvec(rng), random_fvec(rng), random_fvec(rng)
        assert np.einsum("ijk,i,j->", S, t, a) <= 1.0 + 1e-12
        assert np.einsum("ijkl,i,j,k->", D, t, a, b) <= 1.0 + 1e-12


# --- exhaustive-enumeration oracles ---------------------------------------

# the registered suites (distqc.oracles) check depolarizing noise; these
# check the noiseless and a skewed table
def test_tensors_vs_enumeration_without_noise():
    assert np.abs(single_selection_tensor(NOISELESS) - enumerate_single_map(NOISELESS)).max() < 1e-12
    assert np.abs(double_selection_tensor(NOISELESS) - enumerate_double_map(NOISELESS)).max() < 1e-12


def test_tensors_vs_enumeration_for_asymmetric_noise():
    # a skewed gate table exercises the far-side error fold
    from distqc.pauli import NoiseParams

    rng = np.random.default_rng(13)
    table = rng.uniform(0, 1, (4, 4))
    table[0, 0] = 0.0
    table *= 0.02 / table.sum()
    table[0, 0] = 1.0 - table.sum()
    noise = NoiseParams(p_table=table, p_M=2e-3)
    assert np.abs(single_selection_tensor(noise) - enumerate_single_map(noise)).max() < 1e-12
    assert np.abs(double_selection_tensor(noise) - enumerate_double_map(noise)).max() < 1e-12


def test_monte_carlo_oracle_single():
    rng = np.random.default_rng(5)
    n = 10**7
    target = [0.85, 0.05, 0.05, 0.05]
    ancilla = [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3]
    f_mc, p_mc = sample_single_selection(target, ancilla, MILD, n, rng)
    f, p = single_selection(target, ancilla, MILD)
    sigma = np.sqrt(f * (1 - f) / (n * p))
    assert np.all(np.abs(f_mc - f) < 4 * sigma + 1e-12)
    assert abs(p_mc - p) < 4 * np.sqrt(p * (1 - p) / n)


def test_monte_carlo_oracle_double():
    rng = np.random.default_rng(6)
    n = 10**7
    target = [0.85, 0.05, 0.05, 0.05]
    ancilla = [0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3]
    f_mc, p_mc = sample_double_selection(target, ancilla, ancilla, MILD, n, rng)
    f, p = double_selection(target, ancilla, ancilla, MILD)
    sigma = np.sqrt(f * (1 - f) / (n * p))
    assert np.all(np.abs(f_mc - f) < 4 * sigma + 1e-12)
    assert abs(p_mc - p) < 4 * np.sqrt(p * (1 - p) / n)


# --- map structure properties ----------------------------------------------

def test_maps_are_multilinear():
    rng = np.random.default_rng(3)
    S = single_selection_tensor(MILD)
    D = double_selection_tensor(MILD)
    u, v, w = random_fvec(rng), random_fvec(rng), random_fvec(rng)
    a, b = 0.3, 0.7
    lhs = np.einsum("ijk,i,j->k", S, a * u + b * v, w)
    rhs = a * np.einsum("ijk,i,j->k", S, u, w) + b * np.einsum("ijk,i,j->k", S, v, w)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)
    lhs = np.einsum("ijkl,i,j,k->l", D, u, a * v + b * w, u)
    rhs = a * np.einsum("ijkl,i,j,k->l", D, u, v, u) + b * np.einsum("ijkl,i,j,k->l", D, u, w, u)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_outputs_normalized_on_random_inputs():
    rng = np.random.default_rng(4)
    for _ in range(25):
        t, a, b = random_fvec(rng), random_fvec(rng), random_fvec(rng)
        f, p = single_selection(t, a, MILD)
        assert abs(f.sum() - 1.0) < 1e-12
        assert 0.0 < p <= 1.0
        f, p = double_selection(t, a, b, MILD)
        assert abs(f.sum() - 1.0) < 1e-12
        assert 0.0 < p <= 1.0


# --- pumping ---------------------------------------------------------------

@pytest.mark.parametrize(
    "schedule",
    [PumpSchedule.single(3, 4), PumpSchedule.double(1, 2, 2), PumpSchedule.double(3, 4, 14)],
)
def test_pump_noiseless_perfect_channel_fixed_point(schedule):
    result = pump(ChannelParams(1.0), schedule, NOISELESS)
    np.testing.assert_array_equal(result.f_out, PERFECT)
    assert all(p == 1.0 for p in result.success_probs.values())


def test_pump_single_empty_schedule_returns_channel():
    result = pump(ChannelParams(0.9), PumpSchedule.single(0, 0), MILD)
    np.testing.assert_allclose(result.f_out, ChannelParams(0.9).f_ini)
    assert result.success_probs == {"p_lv1": 1.0, "p_lv2": 1.0}


def test_pump_double_empty_schedule_returns_channel():
    result = pump(ChannelParams(0.8), PumpSchedule.double(0, 0, 0), NOISELESS)
    np.testing.assert_allclose(result.f_out, ChannelParams(0.8).f_ini)
    assert result.program.tally.base_pairs == 1


def test_pump_double_improves_raw_infidelity():
    result = pump(ChannelParams(0.9), PumpSchedule.double(1, 2, 2), MILD)
    assert 1.0 - result.f_out[0] < 0.1


def test_pump_double_beats_single_at_comparable_budget():
    # same channel and noise; double selection with 79 base pairs per attempt
    # against single-pumping schedules spending 78..84 pairs
    channel = ChannelParams(0.8)
    d = pump(channel, PumpSchedule.double(3, 4, 14), MILD)
    assert d.program.tally.base_pairs == 79
    for counts in ((5, 12), (7, 9), (5, 13)):
        s = pump(channel, PumpSchedule.single(*counts), MILD)
        assert 70 <= s.program.tally.base_pairs <= 90
        assert 1.0 - d.f_out[0] < 1.0 - s.f_out[0]


def test_pump_single_infidelity_contour_self_consistency():
    # locate the local error rate putting the (3, 4) single-pumped infidelity
    # at 1e-3 for F = 0.9, then confirm the pump reproduces it
    from distqc.threshold import contour_infidelity

    schedule = PumpSchedule.single(3, 4)
    [[(_, p_star)]] = contour_infidelity([schedule], 1e-3, [0.9])
    noise = depolarizing_noise(p_star, p_star)
    result = pump(ChannelParams(0.9), schedule, noise)
    assert 1.0 - result.f_out[0] == pytest.approx(1e-3, rel=1e-3)


def test_round_success_chain_matches_net_probability():
    schedule = PumpSchedule.double(1, 2, 2)
    chain = pump(ChannelParams(0.9), schedule, MILD).round_chain()
    probs = pump(ChannelParams(0.9), schedule, MILD).success_probs
    net = probs["r_lv1"] * probs["p_lv1"] ** 2 * probs["r_lv2"]
    assert np.prod(chain) == pytest.approx(net, rel=1e-12)
    assert len(chain) == 2 + 2 * (1 + 1)


def test_round_success_chain_single_scheme():
    schedule = PumpSchedule.single(2, 3)
    chain = pump(ChannelParams(0.9), schedule, MILD).round_chain()
    probs = pump(ChannelParams(0.9), schedule, MILD).success_probs
    net = probs["p_lv1"] ** 4 * probs["p_lv2"]
    assert np.prod(chain) == pytest.approx(net, rel=1e-12)


@pytest.mark.parametrize("F", [0.75, 0.85, 0.95])
@pytest.mark.parametrize(
    "schedule",
    [PumpSchedule.single(2, 4), PumpSchedule.single(5, 8),
     PumpSchedule.double(1, 2, 2), PumpSchedule.double(2, 4, 8)],
)
def test_pump_outputs_normalized_across_parameters(F, schedule):
    result = pump(ChannelParams(F), schedule, MILD)
    assert abs(result.f_out.sum() - 1.0) < 1e-12
    assert all(0.0 < p <= 1.0 for p in result.success_probs.values())


def test_returned_tensors_belong_to_the_caller():
    # writing to a returned round tensor changes no later call at its noise
    channel, f = ChannelParams(0.85), (0.85, 0.05, 0.05, 0.05)
    schedules = (PumpSchedule.single(2, 3), PumpSchedule.double(1, 2, 2))
    pumped = [pump(channel, s, MILD) for s in schedules]
    kept, p = single_selection(f, f, MILD)
    S, D = single_selection_tensor(MILD), double_selection_tensor(MILD)
    S_before, D_before = S.copy(), D.copy()
    S[...] = 0.0
    D[...] = 0.0
    assert np.array_equal(single_selection_tensor(MILD), S_before)
    assert np.array_equal(double_selection_tensor(MILD), D_before)
    kept_after, p_after = single_selection(f, f, MILD)
    assert np.array_equal(kept_after, kept) and p_after == p
    for schedule, before in zip(schedules, pumped):
        after = pump(channel, schedule, MILD)
        assert np.array_equal(after.f_out, before.f_out)
        assert after.conditionals == before.conditionals


def test_pump_schedule_parsing():
    assert PumpSchedule.parse("3,4") == PumpSchedule.single(3, 4)
    assert PumpSchedule.parse("1,2,2") == PumpSchedule.double(1, 2, 2)
    assert PumpSchedule.parse("0,0,1") == PumpSchedule.double(0, 0, 1)
    with pytest.raises(ValueError, match="2 or 3 comma-separated counts: '1'"):
        PumpSchedule.parse("1")
    with pytest.raises(ValueError, match="^schedule counts must be non-negative integers: '1,-2'$"):
        PumpSchedule.parse("1,-2")
    with pytest.raises(ValueError):
        PumpSchedule.single(-1, 2)


def test_pump_schedule_is_its_counts():
    # the number of counts names the scheme; no other field restates it
    assert [f.name for f in dataclasses.fields(PumpSchedule)] == ["counts"]
    assert PumpSchedule((3, 4)) == PumpSchedule.single(3, 4)
    assert PumpSchedule((3, 4)).scheme == "single"
    assert PumpSchedule((1, 2, 2)).scheme == "double"
    for counts in ((), (1,), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="2 \\(single\\) or 3 \\(double\\) counts"):
            PumpSchedule(counts)


def test_schedule_rounds_are_capped():
    # the interpreter runs sum(counts) rounds per lane, so the total is capped
    assert sum(PumpSchedule.double(0, 0, MAX_ROUNDS).counts) == MAX_ROUNDS
    # parsed text is quoted, as every other refusal of parse quotes it; a
    # schedule built from counts shows its counts
    with pytest.raises(ValueError, match=r"^schedule \(1, 10000\) exceeds MAX_ROUNDS = 10000 rounds$"):
        PumpSchedule.single(1, MAX_ROUNDS)
    with pytest.raises(ValueError, match="^schedule '1,300000' exceeds MAX_ROUNDS = 10000 rounds$"):
        PumpSchedule.parse("1,300000")


def test_pump_runs_the_scheme_its_schedule_names():
    # the number of counts names the scheme, so no schedule can mismatch it
    single = pump(ChannelParams(0.9), PumpSchedule.single(3, 4), MILD)
    double = pump(ChannelParams(0.9), PumpSchedule.double(1, 2, 2), MILD)
    assert list(single.success_probs) == ["p_lv1", "p_lv2"]
    assert list(double.success_probs) == ["r_lv1", "p_lv1", "r_lv2"]


def test_pump_refuses_a_noise_batch():
    # one lane has one noise point; a batch goes to pump_lanes with an index
    batch = depolarizing_noise(np.array([1e-3, 0.3]), np.array([1e-3, 0.3]))
    with pytest.raises(ValueError, match=r"^pump takes one noise point, not a batch of shape \(2,\)$"):
        pump(ChannelParams(0.9), PumpSchedule.double(1, 2, 2), batch)
    zero_d = NoiseParams(MILD.p_table, np.asarray(MILD.p_M))
    assert_same_result(pump(ChannelParams(0.9), PumpSchedule.double(1, 2, 2), zero_d),
                       pump(ChannelParams(0.9), PumpSchedule.double(1, 2, 2), MILD))


def test_success_probability_underflow_raises():
    # a pure bit-flip target with a perfect ancilla is always detected
    with pytest.raises(SuccessProbabilityError):
        single_selection([0, 1, 0, 0], PERFECT, NOISELESS)


def test_a_stage_no_attempt_runs_cannot_fail_it():
    # with m2 = 0 an attempt runs no p_lv1 instance: its 1200 bit-flip checks
    # against F = 0.27 pairs underflow, and the attempt is that of (0, 1, 0)
    channel = ChannelParams(0.27)
    unused = pump(channel, PumpSchedule.double(1200, 1, 0), NOISELESS)
    bare = pump(channel, PumpSchedule.double(0, 1, 0), NOISELESS)
    assert unused.success_probs["p_lv1"] == 0.0
    assert unused.f_out.tobytes() == bare.f_out.tobytes()
    assert unused.p_net == bare.p_net and unused.program.tally == bare.program.tally
    assert unused.round_chain() == bare.round_chain()


# --- stage program properties ----------------------------------------------

SCHEDULES = st.one_of(
    st.builds(PumpSchedule.single, st.integers(0, 6), st.integers(0, 14)),
    st.builds(PumpSchedule.double, st.integers(0, 5), st.integers(0, 6), st.integers(0, 15)),
)


@settings(deadline=None)
@given(schedule=SCHEDULES, F=st.floats(0.5, 1.0), p=st.floats(1e-5, 0.04))
def test_stage_program_invariants(schedule, F, p):
    channel, noise = ChannelParams(F), depolarizing_noise(p, p)
    result = pump(channel, schedule, noise)
    chain = result.round_chain()
    assert math.prod(chain) == pytest.approx(result.p_net, rel=1e-12)
    assert 0.0 < result.p_net <= 1.0
    assert np.all(result.f_out >= 0.0) and abs(result.f_out.sum() - 1.0) < 1e-12

    if schedule.scheme == "single":
        n1, n2 = schedule.counts
        pairs, gates = (1 + n1) * (1 + n2), 2 * (n1 + n2 * (n1 + 1))
    else:
        n1, m1, m2 = schedule.counts
        pairs, gates = 1 + 2 * m1 + m2 * (n1 + 2), 4 * m1 + m2 * (2 * n1 + 4)
    tally = result.program.tally
    assert (tally.base_pairs, tally.twoq_gates, tally.measurements) == (pairs, gates, gates)

    program = stage_program(schedule)
    assert len(chain) == sum(m * s.rounds for m, s in zip(program.multiplicity, program.stages))

    assert expected_cost(schedule, channel, noise) >= pairs


def test_stage_program_size_does_not_grow_with_the_rounds():
    # a program holds per-stage data only, so compiling a long schedule
    # allocates no per-round table
    n1, n2 = 300, 3000
    tracemalloc.start()
    try:
        program = stage_program.__wrapped__(PumpSchedule.single(n1, n2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert program.multiplicity == (1 + n2, 1)
    gates = 2 * (n1 + n2 * (n1 + 1))
    assert program.tally == OpsTally((1 + n1) * (1 + n2), gates, gates)


# --- lanes -------------------------------------------------------------------

PURE_X = np.array([0.0, 1.0, 0.0, 0.0])


def stacked(*noises):
    """One batched NoiseParams holding the given points in order."""
    return NoiseParams(np.array([n.p_table for n in noises]), np.array([n.p_M for n in noises]))


def assert_same_result(a, b):
    assert np.array_equal(a.f_out, b.f_out)
    assert a.success_probs == b.success_probs
    assert a.p_net == b.p_net
    assert a.conditionals == b.conditionals


@settings(deadline=None, max_examples=40)
@given(
    schedule=SCHEDULES,
    points=st.lists(
        st.tuples(st.floats(0.3, 1.0), st.floats(0.0, 0.04), st.sampled_from([1.0, 4 / 15])),
        min_size=1, max_size=5,
    ),
    pure_x=st.booleans(),
)
@example(schedule=PumpSchedule.double(0, 0, 1), points=[(1.0, 0.0, 1.0)], pure_x=True)
@example(schedule=PumpSchedule.double(1, 1, 0), points=[(0.9, 1e-3, 1.0)], pure_x=True)
def test_lane_batch_equals_separate_runs(schedule, points, pure_x):
    # a lane's result depends on its own inputs alone, bit for bit; a pure
    # bit-flip start under noiseless operations makes its lane underflow
    # wherever a stage checks bit flips, and its NaN must not reach the others
    f_ini = [ChannelParams(F).f_ini for F, _, _ in points]
    p_g, p_M = [p for _, p, _ in points], [r * p for _, p, r in points]
    if pure_x:
        f_ini.append(PURE_X)
        p_g.append(0.0)
        p_M.append(0.0)
    f_ini = np.array(f_ini)
    index = np.arange(len(p_g))[::-1]
    # the batch is one depolarizing_noise call on the reversed rates
    lanes = pump_lanes(schedule, f_ini, depolarizing_noise(np.array(p_g[::-1]), np.array(p_M[::-1])), index)
    for b, noise in enumerate(map(depolarizing_noise, p_g, p_M)):
        alone = pump_lanes(schedule, f_ini[b:b + 1], stacked(noise), [0])
        assert np.array_equal(lanes.f_out[b], alone.f_out[0], equal_nan=True)
        for mine, its in zip(lanes.probs + lanes.conditionals, alone.probs + alone.conditionals):
            assert np.array_equal(mine[..., b], its[..., 0], equal_nan=True)
        try:
            expected = alone.result(0)
        except SuccessProbabilityError as alone_error:
            with pytest.raises(SuccessProbabilityError) as lane_error:
                lanes.result(b)
            assert str(lane_error.value) == str(alone_error)
            # the stage it names runs in an attempt and underflowed to 0, and
            # the lane is NaN from there on
            program = stage_program(schedule)
            [s] = [s for s, stage in enumerate(program.stages)
                   if str(alone_error) == f"{stage.what}: success probability underflowed to 0"]
            assert program.multiplicity[s] > 0 and alone.probs[s][0] == 0.0
            assert np.isnan(alone.f_out).all()
            continue
        assert_same_result(lanes.result(b), expected)
        if b < len(points):
            assert_same_result(lanes.result(b), pump(ChannelParams(points[b][0]), schedule, noise))


@pytest.mark.parametrize("ring", [2, 3])
def test_round_block_does_not_change_a_bit(monkeypatch, ring):
    # the interpreter sums its rounds one ring of ROUND_BLOCK buffers at a
    # time; stages that wrap round a smaller ring give the same bits
    channel, noise = ChannelParams(0.9), depolarizing_noise(1e-3, 1e-3)
    schedules = [PumpSchedule.single(5, 13), PumpSchedule.double(3, 4, 14)]
    whole = [pump(channel, schedule, noise) for schedule in schedules]
    monkeypatch.setattr(purify, "ROUND_BLOCK", ring)
    for schedule, expected in zip(schedules, whole):
        assert_same_result(pump(channel, schedule, noise), expected)


def test_round_ring_is_sized_by_the_longest_stage():
    # a (2, 4) pass keeps 4 rounds in its ring, not ROUND_BLOCK: at 1024
    # lanes a full ring alone is 2 MB
    schedule, n = PumpSchedule.single(2, 4), 1024
    f_ini = np.tile(ChannelParams(0.9).f_ini, (n, 1))
    pump_lanes(schedule, f_ini, stacked(MILD), np.zeros(n, dtype=int))  # compile the program first
    tracemalloc.start()
    try:
        lanes = pump_lanes(schedule, f_ini, stacked(MILD), np.zeros(n, dtype=int))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6
    assert_same_result(lanes.result(n - 1), pump(ChannelParams(0.9), schedule, MILD))


# --- bitwise references for the lane engine ---------------------------------
#
# The lane engine keeps every point and lane axis last and gathers the
# double-selection tensor from a table of products; it reorders memory, not
# arithmetic.  These are the formulas it replaced, with the point or lane axis
# first: the engine must give their bits.


def reference_maps(p_tables, p_M):
    """S, S_H and D of every point by their defining einsums, points first."""
    n = len(p_M)
    w = p_tables[:, purify._UA, purify._VA] * p_tables[:, purify._UB, purify._VB]
    leg = np.bincount((16 * np.arange(n)[:, None] + purify._LEG).ravel(), w.ravel(), 16 * n)
    T = leg.reshape(n, 16).take(purify._T_LEG, axis=1)
    keep, flip = np.array([purify._meas_weights(p) for p in p_M.tolist()]).reshape(n, 2).T[:, :, None]
    w_z = np.where(purify.Z_CHECK_ACCEPT, keep, flip)
    w_x = np.where(purify.X_CHECK_ACCEPT, keep, flip)
    S = np.einsum("nijkb,nb->nijk", T, w_z)
    D = np.einsum("nijab,nkbdc,nc,nd->nijka", T, T, w_z, w_x)
    return {"S": S, "S_H": S.reshape(n, 64).take(purify._S_H, axis=1),
            "D": np.moveaxis(D, 4, 1).take(purify._H, axis=1).transpose(0, 2, 3, 4, 1)}


@st.composite
def noise_points(draw):
    """Asymmetric gate error tables with zero entries, p_M = 0 among them,
    for a point count on either side of a gather block."""
    n = draw(st.integers(1, 2 * purify._D_BLOCK + 1))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 0.02))
    tables = np.array([[0.0] + draw(st.lists(entry, min_size=15, max_size=15)) for _ in range(n)])
    tables[:, 0] = 1.0 - tables.sum(axis=1)
    p_M = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.1)), min_size=n, max_size=n))
    return tables.reshape(n, 4, 4), np.array(p_M)


@settings(deadline=None, max_examples=60)
@given(points=noise_points())
def test_maps_are_bitwise_their_defining_einsums(points):
    p_tables, p_M = points
    maps = purify._build_maps(p_tables, p_M)
    # D is stored as its 64 distinct term sums; _D_SUMS expands them
    assert maps["D"].shape == (64, len(p_M))
    maps["D"] = maps["D"].take(purify._D_SUMS, axis=0).reshape(4, 4, 4, 4, len(p_M))
    for name, expected in reference_maps(p_tables, p_M).items():
        assert maps[name].shape == expected.shape[1:] + (len(p_M),)
        assert np.array_equal(np.moveaxis(maps[name], -1, 0), expected)


#: one stage per round kernel, each running two rounds on its own vectors:
#: "a" and "b" pump fresh pairs, "c" pumps the output of "a" against those of
#: "b" and of "a" rotated
KERNEL_PROGRAM = purify.StageProgram(
    stages=(
        purify.Stage("a", "S", None, (purify._FRESH,), 2, "a"),
        purify.Stage("b", "S_H", None, (purify._FRESH,), 2, "b"),
        purify.Stage("c", "D", "a", (("b", False), ("a", True)), 2, "c"),
    ),
    multiplicity=(1, 1, 1), tally=OpsTally(0, 0, 0),
)


def reference_stage(spec, tensor, f, ancillas, rounds=2):
    for _ in range(rounds):
        f = np.einsum(spec, tensor, f, *ancillas)
    p = f.sum(axis=1)
    return f / p[:, None], p


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), points=st.integers(1, 9), lanes=st.sampled_from([1, 2, 203]))
def test_round_kernels_are_bitwise_the_lane_first_einsums(seed, points, lanes):
    # arbitrary tensors with zero entries, so the test holds for any values;
    # D is given as 64 distinct sums per point
    rng = np.random.default_rng(seed)
    maps = {name: rng.random(shape + (points,)) * (rng.random(shape + (points,)) < 0.9)
            for name, shape in (("S", (4,) * 3), ("S_H", (4,) * 3), ("D", (64,)))}
    f_ini = rng.dirichlet(np.ones(4), lanes)
    index = rng.integers(0, points, lanes)
    got = purify._interpret(KERNEL_PROGRAM, f_ini, maps, index)
    # the lane-first tensors, D expanded from its sums in its old layout
    # (output axis outermost)
    S, S_H = (np.moveaxis(maps[name], -1, 0)[index] for name in ("S", "S_H"))
    D = maps["D"].take(purify._D_SUMS, axis=0).reshape(4, 4, 4, 4, points)
    D = np.ascontiguousarray(np.moveaxis(D, (4, 3), (0, 1))).transpose(0, 2, 3, 4, 1)[index]
    a, p_a = reference_stage("nijk,ni,nj->nk", S, f_ini, [f_ini])
    b, p_b = reference_stage("nijk,ni,nj->nk", S_H, f_ini, [f_ini])
    c, p_c = reference_stage("nijkl,ni,nj,nk->nl", D, a, [b, a[:, purify._H]])
    assert np.array_equal(got.f_out, c, equal_nan=True)
    for p, expected in zip(got.probs, (p_a, p_b, p_c)):
        assert np.array_equal(p, expected, equal_nan=True)


def test_map_build_at_1024_points_stays_small():
    # the double-selection terms are gathered a few points at a time; the
    # 4-operand einsum they replace peaked at 11.2 MB here
    p = np.linspace(1e-4, 0.04, 1024)
    noise = depolarizing_noise(p, p)
    p_tables, p_M = noise.p_table, noise.p_M
    tracemalloc.start()
    try:
        purify._build_maps(p_tables, p_M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_double_pass_at_1024_lanes_and_points_stays_small():
    # a pass keeps D as its 64 distinct sums per lane and expands them into
    # one product buffer each round; gathering all 256 entries of each
    # lane's D peaked at 7.7 MiB here
    n, schedule = 1024, PumpSchedule.double(3, 4, 14)
    p = np.linspace(1e-4, 0.04, n)
    noise, f_ini = depolarizing_noise(p, p), np.tile(ChannelParams(0.9).f_ini, (n, 1))
    pump_lanes(schedule, f_ini[:1], stacked(MILD), [0])  # compile the program first
    tracemalloc.start()
    try:
        lanes = pump_lanes(schedule, f_ini, noise, np.arange(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * 2**20
    assert_same_result(lanes.result(n - 1), pump(ChannelParams(0.9), schedule, depolarizing_noise(p[-1], p[-1])))


def test_only_double_schedules_build_d(monkeypatch):
    # D is most of a map build; no stage of a single schedule reads it
    from distqc.threshold import DOUBLE_SCHEDULE_PRESETS, SINGLE_SCHEDULE_PRESETS

    build_maps, built = purify._build_maps, []
    monkeypatch.setattr(purify, "_build_maps",
                        lambda p_tables, p_M, double: built.append(double) or build_maps(p_tables, p_M, double))
    for schedule in SINGLE_SCHEDULE_PRESETS + DOUBLE_SCHEDULE_PRESETS:
        pump_lanes(schedule, ChannelParams(0.9).f_ini[None], stacked(MILD), [0])
    assert built == [False] * len(SINGLE_SCHEDULE_PRESETS) + [True] * len(DOUBLE_SCHEDULE_PRESETS)


def test_threshold_sweeps_never_compute_p_net(monkeypatch):
    from distqc.threshold import ThresholdConditions, threshold_curve

    interpret, built = purify._interpret, []
    monkeypatch.setattr(purify, "_interpret", lambda *args: built.append(interpret(*args)) or built[-1])
    threshold_curve(PumpSchedule.double(3, 4, 14), [0.8, 0.9], "equal", ThresholdConditions())
    assert built and all("p_net" not in lanes.__dict__ for lanes in built)
    # read, it is the product over stages of each probability to its
    # multiplicity, in Python's float power
    lanes = built[0]
    for b in range(len(lanes.f_out)):
        expected = 1.0
        for p, m in zip(lanes.probs, lanes.program.multiplicity):
            expected *= float(p[b]) ** m
        assert lanes.p_net[b] == expected
    assert "p_net" in lanes.__dict__


def reference_samples(f, noise, n_samples, rng, double):
    """The label-by-label samplers the fused lookup tables replaced."""
    from distqc.pauli import (CNOT_CONTROL_TABLE as CC, CNOT_TARGET_TABLE as CT, HAD_TABLE as H,
                              MUL_TABLE as M, X_COMPONENT, Z_COMPONENT)

    p_flat = noise.p_table.ravel()

    def gate(c, t):
        dA, dB = (rng.choice(16, size=n_samples, p=p_flat) for _ in range(2))
        return M[M[c, dA // 4], H[dB // 4]], M[M[t, dA % 4], H[dB % 4]]

    i, j, *k = (rng.choice(4, size=n_samples, p=v) for v in f)
    a, b = gate(CC[i, j], CT[i, j])
    if not double:
        flips = rng.random((n_samples, 2)) < noise.p_M
        kept = a[~(X_COMPONENT[b].astype(bool) ^ flips[:, 0] ^ flips[:, 1])]
    else:
        k2, b3 = gate(CC[k[0], b], CT[k[0], b])
        flips = rng.random((n_samples, 4)) < noise.p_M
        odd_z = X_COMPONENT[b3].astype(bool) ^ flips[:, 0] ^ flips[:, 1]
        odd_x = Z_COMPONENT[k2].astype(bool) ^ flips[:, 2] ^ flips[:, 3]
        kept = H[a[~(odd_z | odd_x)]]
    return np.bincount(kept, minlength=4) / kept.size, kept.size / n_samples


@pytest.mark.parametrize("double", [False, True], ids=["single", "double"])
@pytest.mark.parametrize("noise", [MILD, depolarizing_noise(0.03, 0.0), depolarizing_noise(0.02, 0.05)])
def test_samplers_draw_as_the_label_by_label_reference(noise, double):
    # the same generator calls in the same order, so the same samples
    f = [[0.85, 0.05, 0.05, 0.05], [0.7, 0.1, 0.15, 0.05], [0.9, 0.0, 0.05, 0.05]]
    sample = sample_double_selection if double else sample_single_selection
    got = sample(*f[:2 + double], noise, 20_000, np.random.default_rng(9))
    expected = reference_samples(f[:2 + double], noise, 20_000, np.random.default_rng(9), double)
    assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]


X_ERROR = [0.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("call, error, message", [
    (lambda: NoiseParams(np.eye(3) / 3, 0), ValueError, "p_table must be 4x4"),
    (lambda: aggregates(np.zeros(3)), ValueError, "error table must be 4x4"),
    (lambda: gate_error_table("II", PERFECT, NOISELESS), ValueError, "unknown gate kind 'II'"),
    (lambda: closed_form_aggregates("II", PERFECT, 0.0, 0.0), ValueError, "unknown gate kind 'II'"),
    # a target carrying X fails every noiseless parity check
    (lambda: sample_single_selection(X_ERROR, PERFECT, NOISELESS, 10, np.random.default_rng(0)),
     SuccessProbabilityError, "no samples accepted"),
    (lambda: sample_double_selection(X_ERROR, PERFECT, PERFECT, NOISELESS, 10, np.random.default_rng(0)),
     SuccessProbabilityError, "no samples accepted"),
], ids=["noise-table-shape", "error-table-shape", "gate-table-kind", "closed-form-kind",
        "single-sampler-empty", "double-sampler-empty"])
def test_malformed_inputs_and_empty_samples_are_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()
