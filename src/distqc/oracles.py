"""The suites ``distqc verify`` runs, in order.  Each checks a map or table
the thresholds and costs rest on against an independent route to it:
exhaustive enumeration of the round maps, a Monte Carlo sample of the
double-selection round (Fujii & Yamamoto, PRA 80, 042308 (2009)) and
Clifford circuit propagation of the teleported gates.

A suite is a function of a ``numpy.random.Generator`` that returns its
largest deviation and its tolerance; ``SUITES`` pairs it with its name and
the comparison it passes at.  A suite that bounds several numbers, each by
its own bound, returns the largest excess over them against 0, which
decides exactly as the separate comparisons do.
"""

from __future__ import annotations

import operator

import numpy as np

from . import purify
from .pauli import NoiseParams, depolarizing_noise
from .telegate import GateKind, gate_error_table, gate_error_table_from_circuit
from .threshold import raussendorf_q_values

#: the noise point of the round-map suites
NOISE = depolarizing_noise(1.5e-3, 1.2e-3)


def single_tensor(rng: np.random.Generator) -> tuple[float, float]:
    S, S_or = purify.single_selection_tensor(NOISE), purify.enumerate_single_map(NOISE)
    return float(np.abs(S - S_or).max()), 1e-12


def double_tensor(rng: np.random.Generator) -> tuple[float, float]:
    D, D_or = purify.double_selection_tensor(NOISE), purify.enumerate_double_map(NOISE)
    return float(np.abs(D - D_or).max()), 1e-12


def double_monte_carlo(rng: np.random.Generator) -> tuple[float, float]:
    """10^6 sampled rounds: each label frequency within 4 sigma + 1e-9 of the exact one."""
    target, ancilla, n = (0.85, 0.05, 0.05, 0.05), (0.9, 0.1 / 3, 0.1 / 3, 0.1 / 3), 10**6
    f, p = purify.sample_double_selection(target, ancilla, ancilla, NOISE, n, rng)
    exact, _ = purify.double_selection(target, ancilla, ancilla, NOISE)
    sigma = np.sqrt(exact * (1 - exact) / (n * p))
    return float(np.max(np.abs(f - exact) - (4 * sigma + 1e-9))), 0.0


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
            worst = max(worst, float(np.abs(circ - gate_error_table(kind, f_bar, nz, nz2)).max()))
    return worst, 1e-12


def baseline_round(rng: np.random.Generator) -> tuple[float, float]:
    """The non-distributed baseline at p_g = 0.0075 has qa = 0.023 and
    q_corr = 0.0040, the bounds, each to a relative 1e-15."""
    q = raussendorf_q_values(0.0075)
    return float(np.max(np.abs([q.qa - 0.023, q.qab - 0.0040]) - 1e-15 * np.array([0.023, 0.0040]))), 0.0


#: (name, suite, the comparison of its deviation with its tolerance that passes)
SUITES = (
    ("single-selection tensor vs exhaustive enumeration", single_tensor, operator.lt),
    ("double-selection tensor vs exhaustive enumeration", double_tensor, operator.lt),
    ("double-selection Monte Carlo spot check (4 sigma)", double_monte_carlo, operator.lt),
    ("gate error tables vs circuit propagation", gate_tables, operator.le),
    ("baseline syndrome-round regression", baseline_round, operator.lt),
)
