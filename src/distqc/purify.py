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

The interpreter works on lanes, each an independent pumping run with its
own channel vector and round tensors; every array carries the lane axis
last, contiguous in memory.  :func:`pump_lanes` pumps a batch of lanes in
one pass and builds the round tensors once per distinct noise point;
:func:`pump` is the one-lane call.  Each round is one einsum whose inner
loop runs along the lanes; the double-selection tensor D is kept as its 64
distinct entries, gathered to the lanes once per pass and copied by whole
rows into one buffer each round.  The rounds are summed ROUND_BLOCK at a
time, and the rest of the bookkeeping (conditionals, stage probabilities) is
done once per stage.  A lane's result is bitwise the result of pumping it
alone.  NaN is the one failure signal: a stage whose success probability
underflows to 0 in a lane leaves NaN in that lane's output from there on,
without touching the other lanes, and an attempt fails only at a stage it
runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

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
Z_CHECK_ACCEPT = X_COMPONENT == 0  # {I, Z}
X_CHECK_ACCEPT = Z_COMPONENT == 0  # {I, X}

#: most purification rounds a schedule may run per lane, sum(counts)
MAX_ROUNDS = 10_000
#: rounds the interpreter keeps in memory before summing them (2 MB at 1024 lanes)
ROUND_BLOCK = 64

_H = HAD_TABLE


class SuccessProbabilityError(RuntimeError):
    """Raised when a postselection success probability underflows to zero."""


@dataclass(frozen=True)
class PumpSchedule:
    """Repetition counts for entanglement pumping; the number of counts
    names the scheme.

    Two counts (n1, n2) are a "single" schedule: n1 level-1 rounds checking
    bit flips, then n2 Hadamard-twisted level-2 rounds checking phase flips.
    Three counts (n1, m1, m2) are a "double" schedule: m1 level-1
    double-selection rounds on the target, n1 single-selection rounds
    producing the level-2 ancilla, and m2 level-2 double-selection rounds.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) not in (2, 3):
            raise ValueError(f"a schedule has 2 (single) or 3 (double) counts, got {self.counts}")
        if any(c < 0 or int(c) != c for c in self.counts):
            raise ValueError(f"repetition counts must be non-negative integers: {self.counts}")
        if sum(self.counts) > MAX_ROUNDS:
            raise ValueError(f"schedule {self.counts} exceeds MAX_ROUNDS = {MAX_ROUNDS} rounds")
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))

    @property
    def scheme(self) -> str:
        return "single" if len(self.counts) == 2 else "double"

    @classmethod
    def single(cls, n1: int, n2: int) -> "PumpSchedule":
        return cls((n1, n2))

    @classmethod
    def double(cls, n1: int, m1: int, m2: int) -> "PumpSchedule":
        return cls((n1, m1, m2))

    @classmethod
    def parse(cls, text: str) -> "PumpSchedule":
        """Parse 'n1,n2' as a single schedule or 'n1,m1,m2' as a double one."""
        try:
            counts = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError(f"schedule counts must be integers: {text!r}") from None
        if len(counts) not in (2, 3):
            raise ValueError(f"schedule must have 2 or 3 comma-separated counts: {text!r}")
        if min(counts) < 0:
            raise ValueError(f"schedule counts must be non-negative integers: {text!r}")
        if sum(counts) > MAX_ROUNDS:
            raise ValueError(f"schedule {text!r} exceeds MAX_ROUNDS = {MAX_ROUNDS} rounds")
        return cls(counts)


class OpsTally(NamedTuple):
    """Operation counts for one full protocol attempt."""

    base_pairs: int
    twoq_gates: int
    measurements: int


@dataclass(frozen=True)
class PumpResult:
    """Output of one pumping run.

    ``success_probs`` holds each stage's success probability, ``p_net`` the
    net success probability of one full attempt, ``conditionals`` each
    stage's per-round conditional success probabilities and
    ``program.tally`` the operation counts of one attempt.
    """

    f_out: np.ndarray
    success_probs: dict[str, float]
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


def _double_terms() -> tuple[np.ndarray, np.ndarray]:
    """D[i, j, k, l] is an einsum that adds, one by one in (b, d, c) order,
    the terms ((T[i, j, H(l), b] * T[k, b, d, c]) * w_z[c]) * w_x[d], each
    entry ((16 x + y) * 2 + z) * 2 + x' of a point's table of products
    ((leg[x] * leg[y]) * w[z]) * w[x'], w = (flip, keep) indexed by the
    check's verdict.  The 256 term lists hold 64 distinct ones: returns them
    as columns, in order of first use, and the column of each flat entry of D."""
    b, d, c, i, j, k, l = np.ix_(*[np.arange(4)] * 7)
    leg = _T_LEG.astype(np.int16)
    terms = ((16 * leg[i, j, _H[l], b] + leg[k, b, d, c]) * 2 + Z_CHECK_ACCEPT[c]) * 2
    lists = (terms + X_CHECK_ACCEPT[d]).reshape(64, 256).T
    column = {}  # a term list's bytes -> its column
    index = np.array([column.setdefault(row.tobytes(), len(column)) for row in lists])
    distinct = np.empty((len(column), 64), np.intp)
    distinct[index] = lists  # each column once per entry that uses it, the same list each time
    return np.ascontiguousarray(distinct.T), index


_D_TERMS, _D_SUMS = _double_terms()
#: points whose double-selection terms are gathered at once (128 KB of terms)
_D_BLOCK = 4


def _build_maps(p_tables: np.ndarray, p_M: np.ndarray, double: bool = True) -> dict[str, np.ndarray]:
    """Round tensors of B noise points: the single-selection tensor "S", its
    Hadamard-twisted form "S_H" and, if ``double`` is set, the
    double-selection tensor "D", each with a trailing axis over the points
    ``p_tables[B, 4, 4]``, ``p_M[B]``.  "D" is stored as its 64 distinct
    entries, a (64, B) array: row ``_D_SUMS[e]`` is flat entry e of D.

    The point axis is last and contiguous, so that a round contracts all its
    lanes in one pass.  Every entry is bitwise the einsum that defines it for
    its point alone: S is that einsum, and D adds its terms in its order,
    gathered from each point's table of distinct products (see
    :func:`_double_terms`) ``_D_BLOCK`` points at a time.
    """
    n = len(p_M)
    pair = p_tables.reshape(n, 16)
    w = pair[:, :, None] * pair[:, None, :]  # p[uA, vA] * p[uB, vB]
    # the 256 draws of each point summed in order onto their net labels
    leg = np.bincount((16 * np.arange(n)[:, None] + _LEG).ravel(), w.ravel(), 16 * n).reshape(n, 16)
    # Python's float power, point by point: numpy's power may round otherwise
    keep, flip = np.array([_meas_weights(p) for p in p_M.tolist()]).reshape(n, 2).T
    # T[n, i, j, a, b]: probability the (control, target) labels (i, j) become
    # (a, b) under a noisy bilateral CNOT
    T = leg.take(_T_LEG, axis=1)
    S = np.einsum("nijkb,nb->nijk", T, np.where(Z_CHECK_ACCEPT, keep[:, None], flip[:, None]))
    S = np.ascontiguousarray(S.reshape(n, 64).T)
    maps = {"S": S.reshape(4, 4, 4, n), "S_H": S.take(_S_H, axis=0)}
    if double:
        # gate 1: target pair (i) controls ancilla 1 (j); gate 2: ancilla 2
        # (k) controls ancilla 1; ancilla 1 gets the Z check, ancilla 2 the X
        # check; a trailing bilateral Hadamard acts on the kept pair (l).
        leg, weights = leg.T, np.array([flip, keep])
        sums = np.empty((64, n))
        for s in range(0, n, _D_BLOCK):
            x, v = leg[:, s:s + _D_BLOCK], weights[:, s:s + _D_BLOCK]
            table = (((x[:, None] * x)[:, :, None] * v)[:, :, :, None] * v).reshape(1024, -1)
            # a reduce over the outer axis adds the terms in order
            np.add.reduce(table.take(_D_TERMS, axis=0), axis=0, out=sums[:, s:s + _D_BLOCK])
        maps["D"] = sums
    return maps


def single_selection_tensor(noise: NoiseParams) -> np.ndarray:
    """S[i, j, k]: unnormalised transition probabilities of one
    single-selection round for (kept, ancilla) input labels (i, j)."""
    return _build_maps(noise.p_table[None], np.array([noise.p_M]), double=False)["S"][..., 0]


def double_selection_tensor(noise: NoiseParams) -> np.ndarray:
    """D[i, j, k, l]: unnormalised transition probabilities of one
    double-selection round for (kept, ancilla1, ancilla2) labels (i, j, k)."""
    return _build_maps(noise.p_table[None], np.array([noise.p_M]))["D"][:, 0].take(_D_SUMS).reshape(4, 4, 4, 4)


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

class Stage(NamedTuple):
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


class StageProgram(NamedTuple):
    """A compiled schedule and everything derived from its stage graph.

    ``multiplicity[s]`` counts the instances of stage s one attempt runs and
    ``tally`` the base pairs, two-qubit gates and measurements of one whole
    attempt.
    """

    stages: tuple[Stage, ...]
    multiplicity: tuple[int, ...]
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
    # each ancilla costs one bilateral CNOT (two gates) and one bilateral
    # parity measurement (two measurements) per round
    gates = sum(m * s.rounds * 2 * len(s.ancillas) for m, s in zip(multiplicity, stages))
    tally = OpsTally(instances[None], gates, gates)  # one measurement per gate
    return StageProgram(stages, multiplicity, tally)


@dataclass(frozen=True)
class Lanes:
    """Output of one interpreter pass over B lanes, each an independent
    pumping run.

    ``f_out[b]`` is lane b's pumped vector, ``probs[s][b]`` the success
    probability of stage s, ``p_net[b]`` the net success probability
    (computed on first read) and ``conditionals[s][r, b]`` the conditional
    success probability of round r of stage s.  A stage whose success
    probability underflows to 0 in lane b leaves NaN in the lane's vectors
    from there on: a lane fails at a stage an attempt runs, and then its
    f_out is NaN and its p_net 0 or NaN.  Each round ran as one contraction
    over all lanes, with the lane axis last; the rest of the bookkeeping ran
    once per stage.
    """

    f_out: np.ndarray
    probs: tuple[np.ndarray, ...]
    conditionals: tuple[np.ndarray, ...]
    program: StageProgram

    @cached_property
    def p_net(self) -> np.ndarray:
        # Python's float power, lane by lane (see _build_maps)
        p_net = np.ones(len(self.f_out))
        for p, m in zip(self.probs, self.program.multiplicity):
            p_net = p_net * np.array([x**m for x in p.tolist()])
        return p_net

    def result(self, b: int) -> PumpResult:
        """Lane b as a :class:`PumpResult`; raises
        :class:`SuccessProbabilityError` at the first stage an attempt runs
        whose success probability in lane b is not positive (0 or NaN)."""
        program = self.program
        for stage, p, m in zip(program.stages, self.probs, program.multiplicity):
            if m and not p[b] > 0.0:
                raise SuccessProbabilityError(f"{stage.what}: success probability underflowed to 0")
        return PumpResult(
            f_out=self.f_out[b],
            success_probs={st.name: float(p[b]) for st, p in zip(program.stages, self.probs)},
            p_net=float(self.p_net[b]),
            conditionals=tuple(c[:, b].tolist() for c in self.conditionals),
            program=program,
        )


@np.errstate(divide="ignore", invalid="ignore")
def _interpret(program: StageProgram, f_ini: np.ndarray, maps: dict[str, np.ndarray], index) -> Lanes:
    """Run a stage program on every lane: lane b starts its fresh pairs from
    ``f_ini[b]`` and uses the round tensors ``maps[name][..., index[b]]``.
    Vectors are (4, B) and tensors carry the lanes last, so each round is one
    einsum over contiguous lanes into a ring of (4, B) buffers, one per round
    of the longest stage up to ROUND_BLOCK; each pass round the ring is
    summed at once, and the round sums give the stage's conditionals and
    probability.  D's 64 distinct entries are gathered to the lanes once; each
    D round copies them by rows into one (4, 4, 4, 4, B) buffer of products."""
    n = len(f_ini)
    f_ini = np.ascontiguousarray(f_ini.T)
    outputs = {}
    probs = []
    conditionals = []
    ring = np.empty((min(ROUND_BLOCK, max(stage.rounds for stage in program.stages)), 4, n))
    if "D" in maps:  # D's distinct sums per lane, and the buffer each round expands them into
        distinct, product = maps["D"].take(index, axis=-1), np.empty((4, 4, 4, 4, n))
    for stage in program.stages:
        double = stage.tensor == "D"
        tensor = distinct if double else maps[stage.tensor].take(index, axis=-1)
        ancillas = [
            f_ini if src is None else outputs[src].take(_H, axis=0) if rotated else outputs[src]
            for src, rotated in stage.ancillas
        ]
        f = f_ini if stage.start is None else outputs[stage.start]
        # start vectors are normalised; a lane whose sum reaches 0 keeps it,
        # and its later entries are NaN
        sums = np.ones((stage.rounds + 1, n))
        for r in range(stage.rounds):
            k = r % len(ring)
            if double:  # the product einsum forms first, in one reused buffer
                tensor.take(_D_SUMS, axis=0, out=product.reshape(256, n), mode="wrap")
                f = np.einsum("ijkln,jn,kn->ln", np.multiply(product, f[:, None, None, None], out=product),
                              *ancillas, out=ring[k])
            else:
                f = np.einsum("ijkn,in,jn->kn", tensor, f, *ancillas, out=ring[k])
            if k == len(ring) - 1 or r == stage.rounds - 1:
                ring[:k + 1].sum(axis=1, out=sums[r - k + 1:r + 2])
        outputs[stage.name] = f / sums[-1]
        probs.append(sums[-1])
        conditionals.append(sums[1:] / sums[:-1])
    return Lanes(
        f_out=np.ascontiguousarray(outputs[program.stages[-1].name].T),
        probs=tuple(probs),
        conditionals=tuple(conditionals),
        program=program,
    )


def pump_lanes(schedule: PumpSchedule, f_ini: np.ndarray, noise: NoiseParams, index) -> Lanes:
    """Pump every lane in one interpreter pass: lane b starts from the
    channel vector ``f_ini[b]`` under point ``index[b]`` of the flattened
    noise batch ``noise``; the round tensors are built once per point (D
    only if a stage runs it) and gathered to the lanes."""
    program = stage_program(schedule)
    maps = _build_maps(noise.p_table.reshape(-1, 4, 4), np.asarray(noise.p_M).reshape(-1),
                       any(stage.tensor == "D" for stage in program.stages))
    return _interpret(program, f_ini, maps, index)


def pump(channel: ChannelParams, schedule: PumpSchedule, noise: NoiseParams) -> PumpResult:
    """Two-level entanglement pumping: interpret the schedule's stage
    program (see the module docstring) on one lane at one noise point."""
    if isinstance(noise.p_M, np.ndarray) and noise.p_M.ndim:
        raise ValueError(f"pump takes one noise point, not a batch of shape {noise.p_M.shape}")
    return pump_lanes(schedule, channel.f_ini[None], noise, [0]).result(0)


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

    w = draw_w[:, None] * draw_w[None, :]  # (gate-1 draws, gate-2 draws)
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
                odd_z = X_COMPONENT[b3].astype(bool)  # ancilla 1, Z check
                odd_x = Z_COMPONENT[k2].astype(bool)  # ancilla 2, X check
                out = _H[a1]
                # an observed parity is even iff the true parity equals the flip
                # parity: the draw weight each pair of flip parities accepts
                kept = {(z, x): np.where((odd_z == z) & (odd_x == x), w, 0.0).sum(axis=1)
                        for z in (False, True) for x in (False, True)}
                for f1 in (0, 1):
                    for f2 in (0, 1):
                        w12 = flip_w[f1] * flip_w[f2]
                        for f3 in (0, 1):
                            for f4 in (0, 1):
                                ww = w12 * flip_w[f3] * flip_w[f4]
                                masked = kept[bool(f1 ^ f2), bool(f3 ^ f4)]
                                for lab in range(4):
                                    D[i, j, k, lab] += ww * masked[out == lab].sum()
    return D


# The samplers hold a (control, target) pair of labels as one uint8 label
# 4 * control + target, so each gate is one table lookup: _CNOT_PAIR[i, j] is
# the pair an ideal bilateral CNOT makes of (i, j), and
# _NOISY_GATE[16 * (16 * dA + dB) + pair] the pair after the error draws dA, dB
# of the gate's two sides (see _LEG).
_PAIR = np.arange(16)
_CNOT_PAIR = (4 * CNOT_CONTROL_TABLE + CNOT_TARGET_TABLE).astype(np.uint8)
_NOISY_GATE = 4 * MUL_TABLE[_PAIR // 4, _LEG[:, None] // 4] + MUL_TABLE[_PAIR % 4, _LEG[:, None] % 4]
_NOISY_GATE = _NOISY_GATE.astype(np.uint8).ravel()
# the parity bits each check reads off a pair
_TARGET_X = X_COMPONENT[_PAIR % 4].astype(bool)
_CONTROL_Z = Z_COMPONENT[_PAIR // 4].astype(bool)


def _noisy_gate(pair: np.ndarray, noise: NoiseParams, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """The pairs after the error draws of a noisy bilateral CNOT, one per sample."""
    p_flat = noise.p_table.ravel()
    draws = 16 * rng.choice(16, size=n_samples, p=p_flat) + rng.choice(16, size=n_samples, p=p_flat)
    return _NOISY_GATE.take(16 * draws + pair)


def sample_single_selection(
    target, ancilla, noise: NoiseParams, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Monte Carlo single-selection round: sampled labels, draws and flips.

    Returns the postselected output label frequencies and the fraction of
    accepted samples.
    """
    f1 = as_fidelity_vector(target)
    f2 = as_fidelity_vector(ancilla)
    i = rng.choice(4, size=n_samples, p=f1)
    j = rng.choice(4, size=n_samples, p=f2)
    pair = _noisy_gate(_CNOT_PAIR[i, j], noise, n_samples, rng)
    flips = rng.random((n_samples, 2)) < noise.p_M
    observed_odd = _TARGET_X[pair] ^ flips[:, 0] ^ flips[:, 1]
    kept = pair[~observed_odd] // 4
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
    i = rng.choice(4, size=n_samples, p=f1)
    j = rng.choice(4, size=n_samples, p=f2)
    k = rng.choice(4, size=n_samples, p=f3)
    # gate 1: (target, ancilla 1); gate 2: (ancilla 2, ancilla 1)
    pair = _noisy_gate(_CNOT_PAIR[i, j], noise, n_samples, rng)
    checked = _noisy_gate(_CNOT_PAIR[k, pair % 4], noise, n_samples, rng)
    flips = rng.random((n_samples, 4)) < noise.p_M
    odd_z = _TARGET_X[checked] ^ flips[:, 0] ^ flips[:, 1]
    odd_x = _CONTROL_Z[checked] ^ flips[:, 2] ^ flips[:, 3]
    accept = ~(odd_z | odd_x)
    kept = _H[pair[accept] // 4]
    if kept.size == 0:
        raise SuccessProbabilityError("Monte Carlo double selection: no samples accepted")
    counts = np.bincount(kept, minlength=4).astype(float)
    return counts / kept.size, kept.size / n_samples
