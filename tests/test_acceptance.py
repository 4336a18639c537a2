"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line (visible with pytest -s or in the captured output on failure).
"""

import numpy as np
import pytest

from distqc.pauli import ChannelParams, depolarizing_noise
from distqc.purify import (
    PumpSchedule,
    double_selection_tensor,
    enumerate_double_map,
    enumerate_single_map,
    pump,
    single_selection,
    single_selection_tensor,
    double_selection,
)
from distqc.telegate import GateKind, gate_error_table, gate_error_table_from_circuit
from distqc.threshold import (
    ThresholdConditions,
    check_ft,
    pipeline_passes,
    q_values,
    raussendorf_q_values,
    threshold_pg,
)
from distqc.resources import expected_cost, shor_gate_count, simulate_expected_cost, total_overhead

SCHED_122 = PumpSchedule.double(1, 2, 2)
SCHED_3414 = PumpSchedule.double(3, 4, 14)


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}")
    assert ok, criterion


def test_criterion_1_leading_order_purified_fidelity():
    p = 1e-4
    noise = depolarizing_noise(p, p)
    result = pump(ChannelParams(1.0), SCHED_122, noise)
    expected = np.array([4.0, 2.0, 2.0]) * p / 15.0
    rel = np.abs(result.f_out[1:] - expected) / expected
    report(
        "criterion 1: leading-order purified fidelity (4,2,2)p/15 within 15%",
        bool(np.all(rel < 0.15)),
    )


def test_criterion_2_local_operation_thresholds():
    th_equal = threshold_pg(1.0, SCHED_122, "equal")
    th_knill = threshold_pg(1.0, SCHED_122, "four_fifteenths")
    report(
        "criterion 2: thresholds 0.0026 (p_M = p_g) and 0.0050 (p_M = 4p_g/15)",
        abs(th_equal - 0.0026) <= 1e-4 and abs(th_knill - 0.0050) <= 1e-4,
    )


def test_criterion_3_baseline_regression():
    q = raussendorf_q_values(0.0075)
    exact = abs(q.qa - 0.023) <= 1e-15 * 0.023 and abs(q.qab - 0.0040) <= 1e-15 * 0.0040
    coeff = raussendorf_q_values(15.0)
    coeffs_ok = (
        (coeff.qa, coeff.qb, coeff.qc) == (46.0, 44.0, 44.0)
        and (coeff.qab, coeff.qac, coeff.qbb) == (8.0, 8.0, 8.0)
    )
    report(
        "criterion 3: baseline regression qa=0.023, qab=0.0040 and coefficients (46,44,44,8)/15",
        exact and coeffs_ok,
    )


def test_criterion_4_noisy_channel_operating_points():
    low_f = pipeline_passes(0.7, 1e-3, SCHED_3414, "equal", ThresholdConditions())
    margined = pipeline_passes(0.9, 1e-3, SCHED_122, "equal", ThresholdConditions(margin=1 / 3))
    report(
        "criterion 4: F=0.7 (3,4,14) at margin 1 and F=0.9 (1,2,2) at margin 1/3 both pass",
        low_f and margined,
    )


def test_criterion_5_resource_figure():
    channel = ChannelParams(0.9)
    noise = depolarizing_noise(1e-3, 1e-3)
    K = expected_cost(SCHED_122, channel, noise)
    K_mc = simulate_expected_cost(SCHED_122, channel, noise, trials=10**6, seed=0)
    report(
        "criterion 5: K in [25, 60] and Monte Carlo retry oracle within 2%",
        25.0 <= K <= 60.0 and abs(K_mc - K) / K < 0.02,
    )


def test_criterion_6_overhead_arithmetic():
    count = shor_gate_count(1024)
    overhead = total_overhead(40.0, 2e10, 3e11)
    report(
        "criterion 6: Shor counts (3.2e11 pi/8 gates) and overhead T = 6e21, R = 2.4e23",
        abs(count.pi8 - 3.2e11) < 0.03e11
        and overhead.T == 6e21
        and overhead.R == 2.4e23,
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(2024)
    noise = depolarizing_noise(1.3e-3, 0.9e-3)
    S, S_or = single_selection_tensor(noise), enumerate_single_map(noise)
    D, D_or = double_selection_tensor(noise), enumerate_double_map(noise)
    ok = True
    for _ in range(50):
        t, a, b = (rng.dirichlet(np.ones(4)) for _ in range(3))
        s1 = np.einsum("ijk,i,j->k", S, t, a)
        s2 = np.einsum("ijk,i,j->k", S_or, t, a)
        d1 = np.einsum("ijkl,i,j,k->l", D, t, a, b)
        d2 = np.einsum("ijkl,i,j,k->l", D_or, t, a, b)
        ok = ok and np.abs(s1 - s2).max() < 1e-12 and np.abs(d1 - d2).max() < 1e-12
    for kind in GateKind:
        for _ in range(50):
            pg, pM = rng.uniform(0, 0.02, 2)
            tail = rng.uniform(0, 0.01, 3)
            f_bar = np.array([1 - tail.sum(), *tail])
            nz = depolarizing_noise(pg, pM)
            dev = np.abs(
                gate_error_table(kind, f_bar, nz)
                - gate_error_table_from_circuit(kind, f_bar, nz)
            ).max()
            ok = ok and dev < 1e-12
    report("criterion 7: purification and gate-table oracles agree to 1e-12", ok)


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(77)
    noise = depolarizing_noise(1e-3, 1e-3)
    ok = True

    # normalization and success probabilities on random inputs
    for _ in range(25):
        t, a, b = (rng.dirichlet(np.ones(4)) for _ in range(3))
        f, p = single_selection(t, a, noise)
        ok = ok and abs(f.sum() - 1.0) < 1e-12 and 0.0 < p <= 1.0
        f, p = double_selection(t, a, b, noise)
        ok = ok and abs(f.sum() - 1.0) < 1e-12 and 0.0 < p <= 1.0

    # noiseless fixed point
    perfect = np.array([1.0, 0.0, 0.0, 0.0])
    clean = depolarizing_noise(0.0, 0.0)
    res = pump(ChannelParams(1.0), SCHED_3414, clean)
    ok = ok and np.array_equal(res.f_out, perfect)
    ok = ok and all(v == 1.0 for v in res.success_probs.values())

    # multilinearity of the unnormalised maps
    S = single_selection_tensor(noise)
    u, v, w = (rng.dirichlet(np.ones(4)) for _ in range(3))
    lhs = np.einsum("ijk,i,j->k", S, 0.4 * u + 0.6 * v, w)
    rhs = 0.4 * np.einsum("ijk,i,j->k", S, u, w) + 0.6 * np.einsum("ijk,i,j->k", S, v, w)
    ok = ok and np.allclose(lhs, rhs, atol=1e-14)

    # monotone pumping spot check
    res = pump(ChannelParams(0.9), SCHED_122, noise)
    ok = ok and (1.0 - res.f_out[0] < 0.1)

    # threshold points bracket their crossings
    tol = 1e-4
    cond = ThresholdConditions()
    th = threshold_pg(1.0, SCHED_122, "equal", cond, rel_tol=tol)
    ok = ok and pipeline_passes(1.0, th * (1 - 2 * tol), SCHED_122, "equal", cond)
    ok = ok and not pipeline_passes(1.0, th * (1 + 2 * tol), SCHED_122, "equal", cond)

    # check_ft never flips to false when any rate decreases
    q = q_values(res.f_out, 1e-3, 1e-3)
    if check_ft(q, cond):
        shrunk = q_values(res.f_out, 0.5e-3, 0.5e-3)
        ok = ok and check_ft(shrunk, cond)

    report("criterion 8: normalization, fixed-point, linearity and monotonicity invariants", ok)
