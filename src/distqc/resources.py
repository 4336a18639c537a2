"""Operational cost of purified pairs and total computation overhead.

The expected cost K of delivering one purified pair to a teleported gate
follows from the all-or-nothing restart policy: every postselection failure
discards the whole protocol state, so K equals the cost of one full attempt
divided by the attempt's net success probability.  A Monte Carlo simulator of
the restart process serves as an independent cross-check.

The default cost model counts consumed base pairs, i.e. the quantum
communication per gate; local gate and measurement counting can be switched
on through :class:`CostModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pauli import ChannelParams, NoiseParams
from .purify import Lanes, OpsTally, PumpResult, PumpSchedule, SuccessProbabilityError, pump
from .threshold import contours

#: physical two-qubit gates consumed by one logical pi/8 gate at one third of
#: the topological threshold, read from the overhead scaling of the
#: measurement-based topological scheme (Raussendorf, Harrington and Goyal,
#: New J. Phys. 9, 199 (2007), Fig. 11) for a 3e11-gate computation
T_PER_PI8_AT_THIRD_THRESHOLD = 2e10

#: teleported-gate local cost on top of the purified pair it consumes
TTG_TWOQ_GATES = 2
TTG_MEASUREMENTS = 2

#: most Bernoulli round draws the Monte Carlo cross-check may expect to make
MC_DRAW_BUDGET = 10**9

#: round draws the Monte Carlo cross-check makes at once, in whole attempts;
#: also the most rounds one attempt may run
MC_BLOCK_DRAWS = 2**16


@dataclass(frozen=True)
class CostModel:
    """What the cost of one attempt counts: the base pairs it consumes, and
    with ``count_local_ops`` also its local gates and measurements and those
    of the teleported gate that consumes the purified pair."""

    count_local_ops: bool = False

    def attempt_cost(self, tally: OpsTally) -> float:
        """Base pairs consumed, plus gates and measurements when local
        operations are counted."""
        cost = float(tally.base_pairs)
        if self.count_local_ops:
            cost += tally.twoq_gates + tally.measurements
            cost += TTG_TWOQ_GATES + TTG_MEASUREMENTS
        return cost


class OverheadReport(NamedTuple):
    K: float
    T: float
    Omega: float
    R: float


class ShorCount(NamedTuple):
    toffoli: float
    pi8: float


def expected_cost(
    schedule: PumpSchedule,
    channel: ChannelParams,
    noise: NoiseParams,
    model: CostModel = CostModel(),
) -> float:
    """Expected cost K of one delivered purified pair, teleported-gate
    operations included when local operations are counted."""
    result = pump(channel, schedule, noise)
    if result.p_net <= 0.0:
        raise SuccessProbabilityError("net success probability underflowed to 0")
    return _cost(result, model)


def _cost(result: PumpResult | Lanes, model: CostModel):
    """K of one pumping run, or of every lane of a :class:`Lanes` result."""
    return model.attempt_cost(result.program.tally) / result.p_net


def simulate_expected_cost(
    schedule: PumpSchedule,
    channel: ChannelParams,
    noise: NoiseParams,
    model: CostModel = CostModel(),
    trials: int = 10**6,
    seed: int = 0,
) -> float:
    """Monte Carlo estimate of K under the all-or-nothing restart policy.

    Each attempt draws one Bernoulli outcome per postselected round (with the
    conditional round success probabilities of the evolving protocol) and is
    restarted on any failure; every started attempt pays the full attempt
    cost.  Averages the realised cost over ``trials`` delivered pairs.

    Raises ValueError before drawing anything when one attempt runs more
    rounds than MC_BLOCK_DRAWS, or when the expected number of round draws,
    trials * rounds / p_net, exceeds MC_DRAW_BUDGET.
    """
    if trials < 1:
        raise ValueError(f"the Monte Carlo cross-check needs at least 1 trial, got {trials}")
    result = pump(channel, schedule, noise)
    rounds = sum(m * s.rounds for m, s in zip(result.program.multiplicity, result.program.stages))
    if rounds > MC_BLOCK_DRAWS:
        raise ValueError(f"Monte Carlo cross-check refused: one attempt runs {rounds} rounds, "
                         f"more than the block of MC_BLOCK_DRAWS = {MC_BLOCK_DRAWS} round draws")
    draws = trials * rounds / result.p_net if result.p_net > 0.0 else math.inf
    if draws > MC_DRAW_BUDGET:
        raise ValueError(
            f"Monte Carlo cross-check refused: net success probability {result.p_net:.3g} "
            f"needs about {draws:.3g} round draws, over the budget of {MC_DRAW_BUDGET:.0e}"
        )
    chain = np.array(result.round_chain())
    cost = model.attempt_cost(result.program.tally)
    if seed < 0:  # numpy's own refusal does not name the seed
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    # consecutive row blocks of Generator.random continue one stream, so the
    # estimate does not depend on the block size
    rows = MC_BLOCK_DRAWS // max(1, rounds)
    alive = trials
    attempts = 0
    while alive:
        passed = sum(int((rng.random((min(rows, alive - b), rounds)) < chain).all(axis=1).sum())
                     for b in range(0, alive, rows))
        attempts += alive
        alive -= passed
    return cost * attempts / trials


def contour_expected_cost(
    schedule: PumpSchedule,
    levels,
    F_grid,
    model: CostModel = CostModel(),
) -> list[list[tuple[float, float]]]:
    """Loci of fixed expected cost in the (F, p_g = p_M) plane.

    K grows with the local error rate, so each grid point is bisected in p;
    points where the level is not crossed in (0, P_MAX] are omitted.
    """
    levels = list(levels)
    for level in levels:
        if not (level > 0 and math.isfinite(level)):
            raise ValueError(f"contour level must be finite and positive, got {level}")
    return contours(schedule, levels, F_grid, lambda lanes: _cost(lanes, model))


def shor_gate_count(n_bits: int) -> ShorCount:
    """Gate counts for factoring an n-bit number: 40 n^3 Toffoli gates, each
    built from seven pi/8 gates plus Clifford overhead, 300 n^3 pi/8 gates
    in total."""
    if not n_bits >= 2:
        raise ValueError(f"n_bits must be at least 2, got {n_bits}")
    try:
        n3 = float(n_bits) ** 3
    except OverflowError:
        n3 = math.inf
    if not math.isfinite(300.0 * n3):
        raise ValueError("n_bits is too large: the pi/8 gate count overflows a float")
    return ShorCount(toffoli=40.0 * n3, pi8=300.0 * n3)


def total_overhead(K: float, T_per_gate: float, Omega: float) -> OverheadReport:
    """Total operational overhead R = K * T with T = T_per_gate * Omega."""
    T = T_per_gate * Omega
    if not (K > 0 and T_per_gate > 0 and Omega > 0 and math.isfinite(K * T)):
        raise ValueError("K, T_per_gate and Omega must be positive, with a finite R = K * T")
    return OverheadReport(K=K, T=T, Omega=Omega, R=K * T)
