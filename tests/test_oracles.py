"""Every suite ``distqc verify`` runs passes, and fails once the code it
checks is broken by hand; ``test_verify_passes`` runs them at seed 0."""

import numpy as np
import pytest

from distqc import purify, telegate, threshold
from distqc.oracles import SUITES

NAMES = [name for name, _, _ in SUITES]
BASELINE_TABLE = threshold.raussendorf_gate_table
KIND_III = telegate.GateKind.III


def passes(name: str, seed: int = 3) -> bool:
    [(suite, compare)] = [(suite, compare) for n, suite, compare in SUITES if n == name]
    return compare(*suite(np.random.default_rng(seed)))


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
