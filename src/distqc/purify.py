"""Entanglement purification with single and double selection, plus pumping.

A purification round couples a kept pair to one or two ancilla pairs with
bilateral CNOTs and postselects on bilateral parity measurements:

* single selection: one ancilla, Z-parity check (accepted label classes
  {I, Z}), which filters bit-flip components of the kept pair;
* double selection: a second ancilla verifies the first through an X-parity
  check (accepted classes {I, X}), catching the operational errors that single
  selection leaves behind.  The kept pair exits each double-selection round in
  the Hadamard-rotated frame, so repeated rounds alternate which error type is
  being filtered.

Each bilateral gate consists of two physical two-qubit gates (one per side),
each followed by an independent draw from the gate error table.  Errors on the
far side fold onto the stored label through the X<->Z swap induced by the
reference pair state.  Each bilateral parity measurement consists of two
physical measurements flipping independently with probability p_M.

Entanglement pumping (:func:`pump`) iterates these rounds in two levels.
:func:`stage_program` compiles a schedule into a short stage program; each
stage runs a number of rounds of one round tensor on a kept pair, and names
where its start pair and its ancillas come from (fresh channel pairs or the
output of an earlier stage):

* single schedule (n1, n2): p_lv1 runs n1 single-selection rounds on fresh
  pairs; p_lv2 runs n2 Hadamard-twisted rounds, which filter phase flips, on
  a p_lv1 output, each against a freshly pumped p_lv1 ancilla;
* double schedule (n1, m1, m2): r_lv1 runs m1 double-selection rounds with
  two fresh ancillas; p_lv1 runs n1 single-selection rounds building the
  level-2 ancilla; r_lv2 runs m2 double-selection rounds on the r_lv1
  output with a freshly pumped p_lv1 ancilla plus a fresh pair.  The p_lv1
  ancilla enters Hadamard-rotated: single selection filtered its bit-flip
  component, and the rotation moves that clean component onto the
  phase-flip slot the level-2 rounds are sensitive to.

Everything else follows from the stage graph and each stage's round cost:
how many instances of each stage one attempt runs, the attempt's operation
tally and the net success probability (the product of each stage's success
probability raised to its multiplicity).  The interpreter runs every stage
once per call on normalised inputs, since repeated instances of a stage
are identical; within a stage the unnormalised label vector accumulates
the joint success probability of its rounds.

The interpreter works on lanes: every array carries a leading lane axis,
and each lane is an independent pumping run with its own channel vector and
round tensors.  :func:`pump_lanes` pumps a batch of lanes in one pass and
builds the round tensors once per distinct noise point; :func:`pump` is the
one-lane call.  Each round is one einsum over all lanes; the rounds are
summed ROUND_BLOCK at a time, and the rest of the bookkeeping (conditionals,
stage probabilities, failures) is done once per stage.  A lane's result is
bitwise the result of pumping it alone; a lane whose success probability
underflows is flagged without touching the others, and holds NaN from there
on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .pauli import (
    CNOT_CONTROL_TABLE,
    CNOT_TARGET_TABLE,
    HAD_TABLE,
    MUL_TABLE,
    X_COMPONENT,
    Z_COMPONENT,
    ChannelParams,
    NoiseParams,
    as_fidelity_vector,
    cnot_propagate,
    hadamard_propagate,
    label_mul,
)

# Accepted label classes for the two bilateral parity checks.
Z_CHECK_ACCEPT = np.array([1, 0, 0, 1], dtype=bool)  # {I, Z}
X_CHECK_ACCEPT = np.array([1, 1, 0, 0], dtype=bool)  # {I, X}

#: most purification rounds a schedule may run per lane, sum(counts)
MAX_ROUNDS = 10_000
#: rounds the interpreter keeps in memory before summing them (2 MB at 1024 lanes)
ROUND_BLOCK = 64

_H = HAD_TABLE


class SuccessProbabilityError(RuntimeError):
    """Raised when a postselection success probability underflows to zero."""


@dataclass(frozen=True)
class PumpSchedule:
    """Repetition counts for entanglement pumping.

    scheme "single" uses counts (n1, n2): n1 level-1 rounds checking bit
    flips, then n2 Hadamard-twisted level-2 rounds checking phase flips.
    scheme "double" uses counts (n1, m1, m2): m1 level-1 double-selection
    rounds on the target, n1 single-selection rounds producing the level-2
    ancilla, and m2 level-2 double-selection rounds.
    """

    scheme: str
    counts: tuple[int, ...]

    def __post_init__(self):
        if self.scheme not in ("single", "double"):
            raise ValueError(f"unknown pump scheme {self.scheme!r}")
        want = 2 if self.scheme == "single" else 3
        if len(self.counts) != want:
            raise ValueError(
                f"{self.scheme} schedule needs {want} counts, got {self.counts}"
            )
        if any(c < 0 or int(c) != c for c in self.counts):
            raise ValueError(f"repetition counts must be non-negative integers: {self.counts}")
        if sum(self.counts) > MAX_ROUNDS:
            raise ValueError(f"schedule {self.counts} exceeds MAX_ROUNDS = {MAX_ROUNDS} rounds")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @classmethod
    def single(cls, n1: int, n2: int) -> "PumpSchedule":
        return cls("single", (n1, n2))

    @classmethod
    def double(cls, n1: int, m1: int, m2: int) -> "PumpSchedule":
        return cls("double", (n1, m1, m2))

    @classmethod
    def parse(cls, text: str) -> "PumpSchedule":
        """Parse 'n1,n2' as a single schedule or 'n1,m1,m2' as a double one."""
        parts = [int(p) for p in text.split(",")]
        if len(parts) == 2:
            return cls.single(*parts)
        if len(parts) == 3:
            return cls.double(*parts)
        raise ValueError(f"schedule must have 2 or 3 comma-separated counts: {text!r}")


@dataclass(frozen=True)
class OpsTally:
    """Operation counts for one full protocol attempt."""

    base_pairs: int
    twoq_gates: int
    measurements: int


@dataclass(frozen=True)
class PumpResult:
    """Output of one pumping run.

    ``success_probs`` holds each stage's success probability, ``p_net`` the
    net success probability of one full attempt and ``conditionals`` each
    stage's per-round conditional success probabilities.
    """

    f_out: np.ndarray
    success_probs: dict[str, float]
    attempt_cost: OpsTally
    p_net: float
    conditionals: tuple[list[float], ...] = field(repr=False)
    program: StageProgram = field(repr=False)

    def round_chain(self) -> list[float]:
        """The conditionals of every round of one attempt, in protocol order:
        a stage instance runs after the instance giving its start pair, and
        each of its rounds after the instances giving its ancillas."""
        runs = {None: []}  # stage name -> the chain of one instance; fresh pairs add none
        for stage, conds in zip(self.program.stages, self.conditionals):
            run = list(runs[stage.start])
            for cond in conds:
                for source, _ in stage.ancillas:
                    run += runs[source]
                run.append(cond)
            runs[stage.name] = run
        return run


def _meas_weights(p_M: float) -> tuple[float, float]:
    # Two independent per-qubit flips; the parity survives iff both or neither flip.
    keep = (1.0 - p_M) ** 2 + p_M**2
    flip = 2.0 * p_M * (1.0 - p_M)
    return keep, flip


# A bilateral CNOT applies two physical gates, one per side, each followed by
# a draw (u, v) from the gate error table; the far side's labels fold through
# the X<->Z swap, so the draws (uA, vA), (uB, vB) add the net labels
# (uA*H(uB), vA*H(vB)) to the (control, target) pair; _LEG holds the flat
# index 4*c + t of the net labels of each draw.
_UA, _VA, _UB, _VB = np.ix_(*[np.arange(4)] * 4)
_LEG = (4 * MUL_TABLE[_UA, _H[_UB]] + MUL_TABLE[_VA, _H[_VB]]).ravel()
# An input pair (i, j) conjugates to cnot_propagate(i, j) = (a0, b0), and the
# net labels (n1, n2) map it to (a0*n1, b0*n2), so the branch reaching
# (a, b) carries the weight of the net labels (a0*a, b0*b): T[i, j, a, b]
# gathers entry _T_LEG[i, j, a, b] of the flattened joint distribution.
_T_LEG = (
    4 * MUL_TABLE[CNOT_CONTROL_TABLE][:, :, :, None] + MUL_TABLE[CNOT_TARGET_TABLE][:, :, None, :]
)
# S_H[i, j, k] = S[H(i), H(j), H(k)], as an index into the flattened S
_S_H = 16 * _H[:, None, None] + 4 * _H[None, :, None] + _H[None, None, :]


def _build_maps(p_tables: np.ndarray, p_M: np.ndarray, double: bool = True) -> dict[str, np.ndarray]:
    """Round tensors of B noise points: the single-selection tensor "S", its
    Hadamard-twisted form "S_H" and, if ``double`` is set, the
    double-selection tensor "D", each with a leading axis over the points
    ``p_tables[B, 4, 4]``, ``p_M[B]``.

    einsum's summation order follows the memory layout of its operands, so
    every array keeps the point axis outermost in memory and, within a
    point, one fixed layout (D with its output axis outermost): a point's
    tensors, and every contraction of them, are then bitwise the same
    whichever points are built or pumped beside it.
    """
    n = len(p_M)
    w = p_tables[:, _UA, _VA] * p_tables[:, _UB, _VB]
    # the 256 draws of each point summed in order onto their net labels
    leg = np.bincount((16 * np.arange(n)[:, None] + _LEG).ravel(), w.ravel(), 16 * n)
    # T[n, i, j, a, b]: probability the (control, target) labels (i, j) become
    # (a, b) under a noisy bilateral CNOT
    T = leg.reshape(n, 16).take(_T_LEG, axis=1)
    # Python's float power, point by point: numpy's power may round otherwise
    keep, flip = np.array([_meas_weights(p) for p in p_M.tolist()]).reshape(n, 2).T[:, :, None]
    w_z = np.where(Z_CHECK_ACCEPT, keep, flip)
    w_x = np.where(X_CHECK_ACCEPT, keep, flip)
    S = np.einsum("nijkb,nb->nijk", T, w_z)
    maps = {"S": S, "S_H": S.reshape(n, 64).take(_S_H, axis=1)}
    if double:
        # gate 1: target pair (i) controls ancilla 1 (j); gate 2: ancilla 2
        # (k) controls ancilla 1; ancilla 1 gets the Z check, ancilla 2 the X
        # check; a trailing bilateral Hadamard acts on the kept pair, stored
        # as the outermost axis within a point.
        D = np.einsum("nijab,nkbdc,nc,nd->nijka", T, T, w_z, w_x)
        maps["D"] = np.moveaxis(D, 4, 1).take(_H, axis=1).transpose(0, 2, 3, 4, 1)
    return maps


def single_selection_tensor(noise: NoiseParams) -> np.ndarray:
    """S[i, j, k]: unnormalised transition probabilities of one
    single-selection round for (kept, ancilla) input labels (i, j)."""
    return _build_maps(noise.p_table[None], np.array([noise.p_M]), double=False)["S"][0]


def double_selection_tensor(noise: NoiseParams) -> np.ndarray:
    """D[i, j, k, l]: unnormalised transition probabilities of one
    double-selection round for (kept, ancilla1, ancilla2) labels (i, j, k)."""
    return _build_maps(noise.p_table[None], np.array([noise.p_M]))["D"][0]


def _finalize(unnorm: np.ndarray, what: str) -> tuple[np.ndarray, float]:
    p = float(unnorm.sum())
    if p <= 0.0:
        raise SuccessProbabilityError(f"{what}: success probability underflowed to 0")
    return unnorm / p, p


def single_selection(
    target, ancilla, noise: NoiseParams
) -> tuple[np.ndarray, float]:
    """One single-selection round; returns the renormalised kept-pair vector
    and the round's success probability."""
    f1 = as_fidelity_vector(target)
    f2 = as_fidelity_vector(ancilla)
    S = single_selection_tensor(noise)
    return _finalize(np.einsum("ijk,i,j->k", S, f1, f2), "single selection")


def double_selection(
    target, ancilla1, ancilla2, noise: NoiseParams
) -> tuple[np.ndarray, float]:
    """One double-selection round; ancilla1 takes the Z-parity check and
    ancilla2 the X-parity check.  The kept pair exits Hadamard-rotated."""
    f1 = as_fidelity_vector(target)
    f2 = as_fidelity_vector(ancilla1)
    f3 = as_fidelity_vector(ancilla2)
    D = double_selection_tensor(noise)
    return _finalize(np.einsum("ijkl,i,j,k->l", D, f1, f2, f3), "double selection")


# ---------------------------------------------------------------------------
# Pumping: stage programs and their interpreter
# ---------------------------------------------------------------------------

#: an ancilla taken from a fresh channel pair every round
_FRESH = (None, False)

#: contraction of a round tensor with the kept pair and its ancillas, lane by
#: lane, keyed by the number of ancillas
_ROUND_SPEC = {1: "nijk,ni,nj->nk", 2: "nijkl,ni,nj,nk->nl"}


@dataclass(frozen=True)
class Stage:
    """``rounds`` postselected rounds of one round tensor on one kept pair.

    ``tensor`` is "S", "S_H" (S with all three slots Hadamard-twisted, so the
    round checks phase flips) or "D".  ``start`` names the earlier stage whose
    output the kept pair starts from, or is None for a fresh channel pair.
    Each ancilla is a (source, rotated) pair: a source of None is a fresh
    channel pair per round, otherwise the output of a freshly run instance
    of the named stage, Hadamard-rotated when ``rotated`` is set.
    """

    name: str
    tensor: str
    start: str | None
    ancillas: tuple[tuple[str | None, bool], ...]
    rounds: int
    what: str


@dataclass(frozen=True)
class StageProgram:
    """A compiled schedule and everything derived from its stage graph.

    ``multiplicity[s]`` counts the instances of stage s one attempt runs and
    ``round_cost[s]`` is the cost of each round of stage s.  The fresh start
    pair of every stage instance is a fixed cost (``fixed_pairs``); every
    fresh ancilla pair is charged to its round.
    """

    stages: tuple[Stage, ...]
    multiplicity: tuple[int, ...]
    fixed_pairs: int
    round_cost: tuple[OpsTally, ...]
    tally: OpsTally


@lru_cache(maxsize=256)
def stage_program(schedule: PumpSchedule) -> StageProgram:
    """Compile a schedule into its stage program."""
    if schedule.scheme == "single":
        n1, n2 = schedule.counts
        stages = (
            Stage("p_lv1", "S", None, (_FRESH,), n1, "level-1 single pumping"),
            Stage("p_lv2", "S_H", "p_lv1", (("p_lv1", False),), n2, "level-2 single pumping"),
        )
    else:
        n1, m1, m2 = schedule.counts
        stages = (
            Stage("r_lv1", "D", None, (_FRESH, _FRESH), m1, "level-1 double pumping"),
            Stage("p_lv1", "S", None, (_FRESH,), n1, "level-1 single pumping"),
            Stage("r_lv2", "D", "r_lv1", (("p_lv1", True), _FRESH), m2, "level-2 double pumping"),
        )
    # a stage feeds only later ones, and runs once for each instance it
    # starts and once per round for each ancilla slot it supplies; the fresh
    # pairs of one attempt collect under None
    instances = Counter({stages[-1].name: 1})
    for stage in reversed(stages):
        instances[stage.start] += instances[stage.name]
        for source, _ in stage.ancillas:
            instances[source] += instances[stage.name] * stage.rounds
    multiplicity = tuple(instances[stage.name] for stage in stages)
    fixed_pairs = sum(m for m, s in zip(multiplicity, stages) if s.start is None)
    # each ancilla costs one bilateral CNOT (two gates) and one bilateral
    # parity measurement (two measurements) per round
    round_cost = tuple(
        OpsTally(sum(src is None for src, _ in s.ancillas), 2 * len(s.ancillas), 2 * len(s.ancillas))
        for s in stages
    )
    gates = sum(m * s.rounds * c.twoq_gates for m, s, c in zip(multiplicity, stages, round_cost))
    tally = OpsTally(instances[None], gates, gates)  # one measurement per gate
    return StageProgram(stages, multiplicity, fixed_pairs, round_cost, tally)


@dataclass(frozen=True)
class Lanes:
    """Output of one interpreter pass over B lanes, each an independent
    pumping run.

    ``f_out[b]`` is lane b's pumped vector, ``probs[s][b]`` the success
    probability of stage s, ``p_net[b]`` the net success probability and
    ``conditionals[s][r, b]`` the conditional success probability of round r
    of stage s.  ``failed[b]`` is the index of the first stage whose success
    probability underflowed to 0 in lane b, or -1; the other entries of such
    a lane are meaningless, and NaN from that stage on.  Each round ran as
    one einsum over all lanes; the rest of the bookkeeping ran once per stage.
    """

    f_out: np.ndarray
    probs: tuple[np.ndarray, ...]
    p_net: np.ndarray
    conditionals: tuple[np.ndarray, ...]
    failed: np.ndarray
    program: StageProgram

    def result(self, b: int) -> PumpResult:
        """Lane b as a :class:`PumpResult`; raises
        :class:`SuccessProbabilityError` if the lane underflowed."""
        program = self.program
        s = int(self.failed[b])
        if s >= 0:
            raise SuccessProbabilityError(
                f"{program.stages[s].what}: success probability underflowed to 0"
            )
        return PumpResult(
            f_out=self.f_out[b],
            success_probs={st.name: float(p[b]) for st, p in zip(program.stages, self.probs)},
            attempt_cost=program.tally,
            p_net=float(self.p_net[b]),
            conditionals=tuple(c[:, b].tolist() for c in self.conditionals),
            program=program,
        )


@np.errstate(divide="ignore", invalid="ignore")
def _interpret(program: StageProgram, f_ini: np.ndarray, maps: dict[str, np.ndarray]) -> Lanes:
    """Run a stage program on every lane: lane b starts its fresh pairs from
    ``f_ini[b]`` and uses the round tensors ``maps[name][b]``.  Each round is
    one einsum into a ring of ROUND_BLOCK (B, 4) buffers; each pass round the
    ring is summed at once, and the round sums give the stage's
    conditionals, probability and failures."""
    n = len(f_ini)
    outputs = {}
    probs = []
    conditionals = []
    failed = np.full(n, -1)
    ring = np.empty((ROUND_BLOCK, n, 4))
    for s, stage in enumerate(program.stages):
        tensor = maps[stage.tensor]
        spec = _ROUND_SPEC[len(stage.ancillas)]
        ancillas = [
            f_ini if src is None else outputs[src].take(_H, axis=1) if rotated else outputs[src]
            for src, rotated in stage.ancillas
        ]
        f = f_ini if stage.start is None else outputs[stage.start]
        # start vectors are normalised; a lane whose sum reaches 0 keeps it,
        # and its later entries are NaN
        sums = np.ones((stage.rounds + 1, n))
        for r in range(stage.rounds):
            k = r % ROUND_BLOCK
            f = np.einsum(spec, tensor, f, *ancillas, out=ring[k])
            if k == ROUND_BLOCK - 1 or r == stage.rounds - 1:
                ring[:k + 1].sum(axis=2, out=sums[r - k + 1:r + 2])
        failed[(failed < 0) & (sums <= 0.0).any(axis=0)] = s
        outputs[stage.name] = f / sums[-1][:, None]
        probs.append(sums[-1])
        conditionals.append(sums[1:] / sums[:-1])
    # Python's float power, lane by lane (see _build_maps)
    p_net = np.ones(n)
    for p, m in zip(probs, program.multiplicity):
        p_net = p_net * np.array([x**m for x in p.tolist()])
    return Lanes(
        f_out=outputs[program.stages[-1].name],
        probs=tuple(probs),
        p_net=p_net,
        conditionals=tuple(conditionals),
        failed=failed,
        program=program,
    )


def pump_lanes(schedule: PumpSchedule, f_ini: np.ndarray, noises, index) -> Lanes:
    """Pump every lane in one interpreter pass: lane b starts from the
    channel vector ``f_ini[b]`` under the noise ``noises[index[b]]``.

    Only the round tensors the schedule's stages use are built, once per
    entry of ``noises``, and copied to the lanes.
    """
    program = stage_program(schedule)
    used = {stage.tensor for stage in program.stages}
    maps = _build_maps(
        np.array([n.p_table for n in noises]), np.array([n.p_M for n in noises]), "D" in used
    )
    return _interpret(program, f_ini, {name: maps[name][index] for name in used})


def pump(channel: ChannelParams, schedule: PumpSchedule, noise: NoiseParams) -> PumpResult:
    """Two-level entanglement pumping: interpret the schedule's stage
    program (see the module docstring) on one lane."""
    return pump_lanes(schedule, channel.f_ini[None], [noise], [0]).result(0)


def pump_single(channel: ChannelParams, schedule: PumpSchedule, noise: NoiseParams) -> PumpResult:
    """:func:`pump` restricted to single-selection schedules."""
    if schedule.scheme != "single":
        raise ValueError("pump_single requires a single-selection schedule")
    return pump(channel, schedule, noise)


def pump_double(channel: ChannelParams, schedule: PumpSchedule, noise: NoiseParams) -> PumpResult:
    """:func:`pump` restricted to double-selection schedules."""
    if schedule.scheme != "double":
        raise ValueError("pump_double requires a double-selection schedule")
    return pump(channel, schedule, noise)


# ---------------------------------------------------------------------------
# Exhaustive enumeration oracles
# ---------------------------------------------------------------------------
#
# These rebuild the round maps by brute force: every joint input label, every
# per-side gate error draw and every measurement flip pattern is enumerated
# and postselected explicitly.  They share only the label primitives with the
# tensor path above.


def enumerate_single_map(noise: NoiseParams) -> np.ndarray:
    """Single-selection transition probabilities by exhaustive enumeration."""
    p = noise.p_table
    p_M = noise.p_M
    flip_w = (1.0 - p_M, p_M)
    S = np.zeros((4, 4, 4))
    for i in range(4):
        for j in range(4):
            a0, b0 = cnot_propagate(i, j)
            for uA in range(4):
                for vA in range(4):
                    wA = p[uA, vA]
                    for uB in range(4):
                        for vB in range(4):
                            w = wA * p[uB, vB]
                            a = label_mul(label_mul(a0, uA), hadamard_propagate(uB))
                            b = label_mul(label_mul(b0, vA), hadamard_propagate(vB))
                            odd = X_COMPONENT[b]
                            for fA in (0, 1):
                                for fB in (0, 1):
                                    if odd ^ fA ^ fB:
                                        continue  # observed parity odd: rejected
                                    S[i, j, a] += w * flip_w[fA] * flip_w[fB]
    return S


def enumerate_double_map(noise: NoiseParams) -> np.ndarray:
    """Double-selection transition probabilities by exhaustive enumeration.

    Vectorised over the two gates' error draws; input labels and measurement
    flip patterns are enumerated explicitly.
    """
    p = noise.p_table
    p_M = noise.p_M
    flip_w = np.array([1.0 - p_M, p_M])
    idx = np.arange(4)
    uA, vA, uB, vB = np.ix_(idx, idx, idx, idx)
    draw_w = (p[uA, vA] * p[uB, vB]).ravel()
    # net labels each gate adds to its control and target pair, one entry per
    # joint draw (uA, vA, uB, vB)
    full = (4, 4, 4, 4)
    add_c = np.broadcast_to(MUL_TABLE[uA, _H[uB]], full).ravel()
    add_t = np.broadcast_to(MUL_TABLE[vA, _H[vB]], full).ravel()

    D = np.zeros((4, 4, 4, 4))
    for i in range(4):
        for j in range(4):
            a0, b0 = cnot_propagate(i, j)
            a1 = MUL_TABLE[a0, add_c]  # kept-pair label after gate 1, (draws1,)
            b1 = MUL_TABLE[b0, add_t]
            for k in range(4):
                k1 = CNOT_CONTROL_TABLE[k, b1]  # ancilla 2 after ideal gate 2
                b2 = CNOT_TARGET_TABLE[k, b1]
                # broadcast gate-2 draws against gate-1 draws
                k2 = MUL_TABLE[k1[:, None], add_c[None, :]]
                b3 = MUL_TABLE[b2[:, None], add_t[None, :]]
                w = draw_w[:, None] * draw_w[None, :]
                odd_z = X_COMPONENT[b3].astype(bool)  # ancilla 1, Z check
                odd_x = Z_COMPONENT[k2].astype(bool)  # ancilla 2, X check
                out = _H[a1]
                for f1 in (0, 1):
                    for f2 in (0, 1):
                        # observed Z-check parity even iff true parity equals the flip parity
                        ok_z = odd_z == bool(f1 ^ f2)
                        w12 = flip_w[f1] * flip_w[f2]
                        for f3 in (0, 1):
                            for f4 in (0, 1):
                                ok = ok_z & (odd_x == bool(f3 ^ f4))
                                ww = w12 * flip_w[f3] * flip_w[f4]
                                masked = np.where(ok, w, 0.0).sum(axis=1)
                                for lab in range(4):
                                    D[i, j, k, lab] += ww * masked[out == lab].sum()
    return D


def sample_single_selection(
    target, ancilla, noise: NoiseParams, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Monte Carlo single-selection round: sampled labels, draws and flips.

    Returns the postselected output label frequencies and the fraction of
    accepted samples.
    """
    f1 = as_fidelity_vector(target)
    f2 = as_fidelity_vector(ancilla)
    p_flat = noise.p_table.ravel()
    i = rng.choice(4, size=n_samples, p=f1)
    j = rng.choice(4, size=n_samples, p=f2)
    a0 = CNOT_CONTROL_TABLE[i, j]
    b0 = CNOT_TARGET_TABLE[i, j]
    dA = rng.choice(16, size=n_samples, p=p_flat)
    dB = rng.choice(16, size=n_samples, p=p_flat)
    a = MUL_TABLE[MUL_TABLE[a0, dA // 4], _H[dB // 4]]
    b = MUL_TABLE[MUL_TABLE[b0, dA % 4], _H[dB % 4]]
    flips = rng.random((n_samples, 2)) < noise.p_M
    observed_odd = X_COMPONENT[b].astype(bool) ^ flips[:, 0] ^ flips[:, 1]
    kept = a[~observed_odd]
    if kept.size == 0:
        raise SuccessProbabilityError("Monte Carlo single selection: no samples accepted")
    counts = np.bincount(kept, minlength=4).astype(float)
    return counts / kept.size, kept.size / n_samples


def sample_double_selection(
    target, ancilla1, ancilla2, noise: NoiseParams, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Monte Carlo double-selection round, same conventions as above."""
    f1 = as_fidelity_vector(target)
    f2 = as_fidelity_vector(ancilla1)
    f3 = as_fidelity_vector(ancilla2)
    p_flat = noise.p_table.ravel()
    i = rng.choice(4, size=n_samples, p=f1)
    j = rng.choice(4, size=n_samples, p=f2)
    k = rng.choice(4, size=n_samples, p=f3)
    a0 = CNOT_CONTROL_TABLE[i, j]
    b0 = CNOT_TARGET_TABLE[i, j]
    d1A = rng.choice(16, size=n_samples, p=p_flat)
    d1B = rng.choice(16, size=n_samples, p=p_flat)
    a1 = MUL_TABLE[MUL_TABLE[a0, d1A // 4], _H[d1B // 4]]
    b1 = MUL_TABLE[MUL_TABLE[b0, d1A % 4], _H[d1B % 4]]
    k1 = CNOT_CONTROL_TABLE[k, b1]
    b2 = CNOT_TARGET_TABLE[k, b1]
    d2A = rng.choice(16, size=n_samples, p=p_flat)
    d2B = rng.choice(16, size=n_samples, p=p_flat)
    k2 = MUL_TABLE[MUL_TABLE[k1, d2A // 4], _H[d2B // 4]]
    b3 = MUL_TABLE[MUL_TABLE[b2, d2A % 4], _H[d2B % 4]]
    flips = rng.random((n_samples, 4)) < noise.p_M
    odd_z = X_COMPONENT[b3].astype(bool) ^ flips[:, 0] ^ flips[:, 1]
    odd_x = Z_COMPONENT[k2].astype(bool) ^ flips[:, 2] ^ flips[:, 3]
    accept = ~(odd_z | odd_x)
    kept = _H[a1[accept]]
    if kept.size == 0:
        raise SuccessProbabilityError("Monte Carlo double selection: no samples accepted")
    counts = np.bincount(kept, minlength=4).astype(float)
    return counts / kept.size, kept.size / n_samples
