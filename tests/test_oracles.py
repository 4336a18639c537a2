"""Every suite ``distqc verify`` runs passes, fails once the code it
checks is broken by hand, and decides by deviation < tolerance at the edge
of its tolerance; ``test_verify_passes`` runs them at seed 0."""

import types

import numpy as np
import pytest

from distqc import oracles, purify, telegate, threshold
from distqc.oracles import SUITES, TOL

SUITE = dict(SUITES)
NAMES = list(SUITE)
BASELINE_TABLE = threshold.raussendorf_gate_table
KIND_III = telegate.GateKind.III


def passes(name: str, seed: int = 3) -> bool:
    deviation, tolerance = SUITE[name](np.random.default_rng(seed))
    return deviation < tolerance


@pytest.mark.parametrize("name", NAMES)
def test_suite_passes(name):
    assert passes(name)


# one fault per suite in the code it checks; a suite registered without one
# fails below
MUTATIONS = {
    # the single-selection Z check accepts {I, X}
    "single-selection tensor vs exhaustive enumeration":
        lambda mp: mp.setattr(purify, "Z_CHECK_ACCEPT", purify.X_CHECK_ACCEPT),
    # every entry of D gathers the term sum of its neighbour
    "double-selection tensor vs exhaustive enumeration":
        lambda mp: mp.setattr(purify, "_D_SUMS", np.roll(purify._D_SUMS, 1)),
    # the sampled X check reads the Z check's parity bit
    "double-selection Monte Carlo spot check (4 sigma)":
        lambda mp: mp.setattr(purify, "_CONTROL_Z", purify._TARGET_X),
    # kind III measures its data side in the Z basis
    "gate error tables vs circuit propagation":
        lambda mp: mp.setitem(telegate._LAYOUTS, KIND_III, telegate._LAYOUTS[KIND_III][:-1]
                              + (("measure", telegate._B_IN, "Z", telegate._FRAME_DATA),)),
    # the baseline gates swap their syndrome and data sides
    "baseline syndrome-round regression":
        lambda mp: mp.setattr(threshold, "raussendorf_gate_table", lambda l, p_g: BASELINE_TABLE(l, p_g).T),
}


@pytest.mark.parametrize("name", NAMES)
def test_suite_fails_on_a_broken_implementation(monkeypatch, name):
    MUTATIONS[name](monkeypatch)
    assert not passes(name)


# --- the rule at each suite's tolerance ------------------------------------
#
# Each test below patches a suite's inputs so that its deviation lies at a
# known multiple of its tolerance: just inside passes, just past fails.

JUST_INSIDE, JUST_PAST = 1 - 1e-6, 1 + 1e-6
EDGES = [(JUST_INSIDE, True), (JUST_PAST, False), (float("nan"), False)]


def patch_pair(monkeypatch, module, computed: str, oracle: str, deviation: float):
    """The two routes a 1e-12 suite compares: zeros, and zeros but one entry."""
    table = np.zeros((4, 4))
    table[2, 3] = deviation
    monkeypatch.setattr(module, computed, lambda *args: table)
    monkeypatch.setattr(module, oracle, lambda *args: np.zeros((4, 4)))


TOL_SUITES = {
    "single-selection tensor vs exhaustive enumeration":
        lambda mp, d: patch_pair(mp, purify, "single_selection_tensor", "enumerate_single_map", d),
    "double-selection tensor vs exhaustive enumeration":
        lambda mp, d: patch_pair(mp, purify, "double_selection_tensor", "enumerate_double_map", d),
    "gate error tables vs circuit propagation":
        lambda mp, d: patch_pair(mp, oracles, "gate_error_table", "gate_error_table_from_circuit", d),
}


@pytest.mark.parametrize("scale, verdict", EDGES + [(1.0, False)])
@pytest.mark.parametrize("name", list(TOL_SUITES))
def test_a_tol_suite_passes_strictly_below_tol(monkeypatch, name, scale, verdict):
    # TOL * 1.0 is TOL itself: a deviation equal to the tolerance fails
    TOL_SUITES[name](monkeypatch, TOL * scale)
    assert passes(name) is verdict


# the sampled and exact label frequencies the Monte Carlo suite compares;
# label Z has exact frequency 0, where only the 1e-9 floor bounds it
EXACT, P_ACCEPT, N_ROUNDS = np.array([0.8, 0.15, 0.05, 0.0]), 0.5, 10**6


# at label Z a deviation of 1e-9 is 1e-9 / 1e-9, exactly the tolerance 1
@pytest.mark.parametrize("label, scale, verdict", [(label, *edge) for label in (0, 3) for edge in EDGES]
                         + [(3, 1.0, False)])
def test_the_monte_carlo_suite_passes_strictly_within_4_sigma(monkeypatch, label, scale, verdict):
    bound = 4 * np.sqrt(EXACT * (1 - EXACT) / (N_ROUNDS * P_ACCEPT)) + 1e-9
    sampled = EXACT.copy()
    sampled[label] += scale * bound[label]
    monkeypatch.setattr(purify, "sample_double_selection", lambda *args: (sampled, P_ACCEPT))
    monkeypatch.setattr(purify, "double_selection", lambda *args: (EXACT, None))
    assert passes("double-selection Monte Carlo spot check (4 sigma)") is verdict


@pytest.mark.parametrize("scale, verdict", [(0.5, True), (2.0, False), (float("nan"), False)])
@pytest.mark.parametrize("field", ["qa", "qab"])
def test_the_baseline_suite_passes_strictly_below_a_relative_1e_15(monkeypatch, field, scale, verdict):
    # the float grid near 0.023 and 0.0040 is about 1.5e-16 and 2.2e-16 relative,
    # so the edge is bracketed by half and twice the tolerance
    q = {"qa": 0.023, "qab": 0.0040}
    q[field] *= 1 + scale * 1e-15
    monkeypatch.setattr(oracles, "raussendorf_q_values", lambda p_g: types.SimpleNamespace(**q))
    assert passes("baseline syndrome-round regression") is verdict
