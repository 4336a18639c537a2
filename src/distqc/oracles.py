"""The suites ``distqc verify`` runs, in order.  Each checks a map or table
the thresholds and costs rest on against an independent route to it:
exhaustive enumeration of the round maps, a Monte Carlo sample of the
double-selection round (Fujii & Yamamoto, PRA 80, 042308 (2009)) and
Clifford circuit propagation of the teleported gates.

A suite is a function of a ``numpy.random.Generator`` that returns its
largest deviation and its tolerance, in the same units.  A suite passes iff
its deviation lies strictly below its tolerance, so a NaN deviation fails.
"""

from __future__ import annotations

import numpy as np

from . import purify
from .pauli import NoiseParams, depolarizing_noise
from .telegate import GateKind, gate_error_table, gate_error_table_from_circuit
from .threshold import raussendorf_q_values

#: the tolerance of the suites that compare two routes to the same numbers
TOL = 1e-12
#: the noise point of the round-map suites
NOISE = depolarizing_noise(1.5e-3, 1.2e-3)


def single_tensor(rng: np.random.Generator) -> tuple[float, float]:
    S, S_or = purify.single_selection_tensor(NOISE), purify.enumerate_single_map(NOISE)
    return float(np.abs(S - S_or).max()), TOL


def double_tensor(rng: np.random.Generator) -> tuple[float, float]:
    D, D_or = purify.double_selection_tensor(NOISE), purify.enumerate_double_map(NOISE)
    return float(np.abs(D - D_or).max()), TOL


def double_monte_carlo(rng: np.random.Generator) -> tuple[float, float]:
    """10^6 sampled rounds: each label frequency within 4 sigma + 1e-9 of the
    exact one; the deviation is in units of that bound."""
    target, ancilla, n = (0.85, 0.05, 0.05, 0.05), (0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3), 10**6
    f, p = purify.sample_double_selection(target, ancilla, ancilla, NOISE, n, rng)
    exact, _ = purify.double_selection(target, ancilla, ancilla, NOISE)
    sigma = np.sqrt(exact * (1 - exact) / (n * p))
    return float(np.max(np.abs(f - exact) / (4 * sigma + 1e-9))), 1.0


def gate_tables(rng: np.random.Generator) -> tuple[float, float]:
    """20 random points of each gate kind, on general data- and syndrome-side
    tables: a uniform one is blind to the measurement bases."""
    worst = 0.0
    for kind in GateKind:
        for _ in range(20):
            tail = rng.uniform(0, 0.01, 3)
            f_bar = np.array([1 - tail.sum(), *tail])
            tables = rng.uniform(0, 1e-3, (2, 4, 4))
            tables[:, 0, 0] = 0.0
            tables[:, 0, 0] = 1.0 - tables.sum(axis=(1, 2))
            nz, nz2 = NoiseParams(tables[0], rng.uniform(0, 0.02)), NoiseParams(tables[1], 0.0)
            circ = gate_error_table_from_circuit(kind, f_bar, nz, nz2)
            worst = np.maximum(worst, np.abs(circ - gate_error_table(kind, f_bar, nz, nz2)).max())  # NaN stays
    return float(worst), TOL


def baseline_round(rng: np.random.Generator) -> tuple[float, float]:
    """The non-distributed baseline at p_g = 0.0075 has qa = 0.023 and
    q_corr = 0.0040, the bounds, each to a relative 1e-15."""
    q = raussendorf_q_values(0.0075)
    return float(np.max(np.abs([q.qa - 0.023, q.qab - 0.0040]) / [0.023, 0.0040])), 1e-15


#: (name, suite); each passes iff deviation < tolerance
SUITES = (
    ("single-selection tensor vs exhaustive enumeration", single_tensor),
    ("double-selection tensor vs exhaustive enumeration", double_tensor),
    ("double-selection Monte Carlo spot check (4 sigma)", double_monte_carlo),
    ("gate error tables vs circuit propagation", gate_tables),
    ("baseline syndrome-round regression", baseline_round),
)
