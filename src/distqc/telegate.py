"""Error tables of teleportation-based two-qubit gates.

A gate between a syndrome-side qubit and a data-side qubit on neighbouring
nodes is executed by teleporting both qubits through one shared purified pair
(the pair state is a CZ-entangled |++> pair, so the teleportation enacts the
gate).  The consumed pair's residual error, the local two-qubit gate noise and
the measurement flips all leave Pauli errors on the two output qubits.

Three gate variants appear at fixed positions of the syndrome-measurement
round.  They differ in which side carries a local Hadamard and hence in which
noise components flip the teleportation measurements:

* kind I:   starts a syndrome round; the syndrome-side output is prepared
            fresh from the pair half, so only the data-side gate and
            measurement contribute noise: kind I is kind III without the
            syndrome side.
* kind II:  both sides measure in the Z basis after Hadamard-completed gates.
* kind III: the data side measures in the X basis directly.

``gate_error_table`` evaluates the closed-form first-order tables;
``gate_error_table_from_circuit`` rebuilds them by propagating every single
error source through the reconstructed Clifford circuit and is used as an
independent cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .pauli import _FROM_BITS, _X_BIT, _Z_BIT, I, X, Y, Z, NoiseParams, as_fidelity_vector, label_mul


class GateKind(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


#: gate kind at each position l = 1..8 of the syndrome-measurement unit cell
SYNDROME_GATE_KINDS = {
    1: GateKind.I,
    2: GateKind.II,
    3: GateKind.III,
    4: GateKind.II,
    5: GateKind.I,
    6: GateKind.II,
    7: GateKind.III,
    8: GateKind.II,
}


class TableMismatchError(RuntimeError):
    """Circuit-propagated table of ``kind`` deviates from the closed form by
    ``deviation`` (the largest entry difference)."""

    def __init__(self, kind: GateKind, deviation: float):
        super().__init__(f"kind {kind.value}: circuit table deviates from the closed form by {deviation:.3e}")
        self.deviation = deviation


@dataclass(frozen=True)
class GateAggregates:
    """Class sums of a gate error table used by the threshold conditions.

    Subscript classes: z = {Y, Z}, z_bar = {I, X}, x = {X, Y}, x_bar = {I, Z},
    first letter on the syndrome side, second on the data side.
    """

    p_zx: float
    p_zxbar: float
    p_zbarx: float
    p_xz: float
    p_xzbar: float
    p_xbarz: float


_CLASS = {
    "z": (Y, Z),
    "zbar": (I, X),
    "x": (X, Y),
    "xbar": (I, Z),
}


def _class_sum(table: np.ndarray, row_class: str, col_class: str) -> float:
    rows = _CLASS[row_class]
    cols = _CLASS[col_class]
    return float(table[np.ix_(rows, cols)].sum())


def aggregates(table: np.ndarray) -> GateAggregates:
    """Six class sums of a 4x4 output error table."""
    t = np.asarray(table, dtype=float)
    if t.shape != (4, 4):
        raise ValueError(f"error table must be 4x4, got shape {t.shape}")
    return GateAggregates(
        p_zx=_class_sum(t, "z", "x"),
        p_zxbar=_class_sum(t, "z", "xbar"),
        p_zbarx=_class_sum(t, "zbar", "x"),
        p_xz=_class_sum(t, "x", "z"),
        p_xzbar=_class_sum(t, "x", "zbar"),
        p_xbarz=_class_sum(t, "xbar", "z"),
    )


def gate_error_table(
    kind: GateKind,
    f_bar,
    noise: NoiseParams,
    noise2: NoiseParams | None = None,
) -> np.ndarray:
    """Closed-form first-order output error table, entry (i, j) giving the
    probability of sigma_i on the syndrome output and sigma_j on the data
    output.

    ``noise`` supplies the data-side gate table p and the measurement error;
    ``noise2`` (defaulting to ``noise``) supplies the syndrome-side table p'.
    Cells the circuit cannot populate at first order are exactly zero.  Kind
    I is kind III without the syndrome side: its syndrome output is prepared
    fresh, so the syndrome-side table and measurement error are zero there.
    """
    f = as_fidelity_vector(f_bar)
    P = noise.p_table
    Q = (noise2 or noise).p_table
    pM = pM_s = noise.p_M
    if kind == GateKind.I:
        Q, pM_s = np.zeros((4, 4)), 0.0
    if kind == GateKind.II:
        no_flip, flip = (I, Z), (X, Y)
    elif kind in (GateKind.I, GateKind.III):
        no_flip, flip = (I, X), (Y, Z)
    else:
        raise ValueError(f"unknown gate kind {kind!r}")

    t = np.zeros((4, 4))
    t[I, X] = P[X, no_flip[0]] + P[X, no_flip[1]]
    t[I, Y] = P[Y, no_flip[0]] + P[Y, no_flip[1]]
    t[I, Z] = f[1] + P[Z, no_flip[0]] + P[Z, no_flip[1]] + Q[X, X] + Q[Y, X]
    t[X, I] = Q[I, X] + Q[Z, X]
    t[X, Z] = pM_s + Q[X, I] + Q[Y, I]
    t[Y, I] = Q[I, Y] + Q[Z, Y]
    t[Y, Z] = Q[X, Z] + Q[Y, Z]
    t[Z, I] = f[3] + P[X, flip[0]] + P[X, flip[1]] + Q[I, Z] + Q[Z, Z]
    t[Z, X] = pM + P[I, flip[0]] + P[I, flip[1]]
    t[Z, Y] = P[Z, flip[0]] + P[Z, flip[1]]
    t[Z, Z] = f[2] + P[Y, flip[0]] + P[Y, flip[1]] + Q[X, Y] + Q[Y, Y]
    return t


# ---------------------------------------------------------------------------
# Circuit reconstruction
# ---------------------------------------------------------------------------
#
# Wires: 0 = syndrome input qubit, 1 = pair half at the syndrome node (becomes
# the syndrome output), 2 = pair half at the data node (becomes the data
# output), 3 = data input qubit.
#
# Teleporting both inputs through the CZ-entangled pair gives the byproduct
# structure: flipping the syndrome-side measurement requires the correction
# X(out_A) Z(out_B), flipping the data-side one Z(out_A) X(out_B).

_A_IN, _ES, _ED, _B_IN = 0, 1, 2, 3
_FRAME_SYNDROME = (X, Z)
_FRAME_DATA = (Z, X)

# Circuit layouts: ("cz", q1, q2) | ("h", q) | ("noise", table, (q_first, q_second))
# | ("measure", q, basis, frame).  Noise follows its gate (Hadamards that
# implement a measurement-basis change are part of the gate).
_LAYOUTS = {
    GateKind.I: (
        ("cz", _B_IN, _ED),
        ("noise", "p", (_ED, _B_IN)),
        ("measure", _B_IN, "X", _FRAME_DATA),
    ),
    GateKind.II: (
        ("cz", _A_IN, _ES),
        ("h", _A_IN),
        ("noise", "q", (_A_IN, _ES)),
        ("measure", _A_IN, "Z", _FRAME_SYNDROME),
        ("cz", _B_IN, _ED),
        ("h", _B_IN),
        ("noise", "p", (_ED, _B_IN)),
        ("measure", _B_IN, "Z", _FRAME_DATA),
    ),
    GateKind.III: (
        ("cz", _A_IN, _ES),
        ("h", _A_IN),
        ("noise", "q", (_A_IN, _ES)),
        ("measure", _A_IN, "Z", _FRAME_SYNDROME),
        ("cz", _B_IN, _ED),
        ("noise", "p", (_ED, _B_IN)),
        ("measure", _B_IN, "X", _FRAME_DATA),
    ),
}


def _propagate(ops, start_index: int, labels: dict[int, int]) -> tuple[int, int]:
    """Push a sparse Pauli through the ops from ``start_index`` on; returns
    the resulting (syndrome, data) output error including flip corrections."""
    x = {q: _X_BIT[l] for q, l in labels.items()}
    z = {q: _Z_BIT[l] for q, l in labels.items()}
    for q in (_A_IN, _ES, _ED, _B_IN):
        x.setdefault(q, 0)
        z.setdefault(q, 0)
    frame = [I, I]
    for op in ops[start_index:]:
        if op[0] == "cz":
            _, q1, q2 = op
            z[q1] ^= x[q2]
            z[q2] ^= x[q1]
        elif op[0] == "h":
            q = op[1]
            x[q], z[q] = z[q], x[q]
        elif op[0] == "measure":
            _, q, basis, delta = op
            flipped = x[q] if basis == "Z" else z[q]
            if flipped:
                frame[0] = label_mul(frame[0], delta[0])
                frame[1] = label_mul(frame[1], delta[1])
            x[q] = z[q] = 0
        elif op[0] == "noise":
            continue
        else:
            raise AssertionError(f"unknown op {op!r}")
    out_a = label_mul(_FROM_BITS[x[_ES]][z[_ES]], frame[0])
    out_b = label_mul(_FROM_BITS[x[_ED]][z[_ED]], frame[1])
    return out_a, out_b


def _canonical_fresh_syndrome(out: tuple[int, int]) -> tuple[int, int]:
    # The freshly prepared syndrome output has the X(out_A) Z(out_B) gauge;
    # pick the representative without an X component on the syndrome side.
    a, b = out
    if _X_BIT[a]:
        return label_mul(a, X), label_mul(b, Z)
    return a, b


def gate_error_table_from_circuit(
    kind: GateKind,
    f_bar,
    noise: NoiseParams,
    noise2: NoiseParams | None = None,
) -> np.ndarray:
    """Output error table rebuilt by first-order propagation of every error
    source (pair label, gate noise draws, measurement flips) through the
    reconstructed circuit.

    Raises :class:`TableMismatchError` if the result disagrees with
    :func:`gate_error_table` beyond 1e-12.
    """
    f = as_fidelity_vector(f_bar)
    tables = {"p": noise.p_table, "q": (noise2 or noise).p_table}
    pM = noise.p_M
    ops = _LAYOUTS[kind]

    sources: list[tuple[float, int, dict[int, int]]] = []
    for k in (X, Y, Z):  # residual pair error, stored on the syndrome half
        sources.append((float(f[k]), 0, {_ES: k}))
    for idx, op in enumerate(ops):
        if op[0] == "noise":
            _, which, (q1, q2) = op
            tab = tables[which]
            for a in range(4):
                for b in range(4):
                    if a == b == I:
                        continue
                    sources.append((float(tab[a, b]), idx + 1, {q1: a, q2: b}))

    t = np.zeros((4, 4))
    for weight, start, labels in sources:
        out = _propagate(ops, start, labels)
        if kind == GateKind.I:
            out = _canonical_fresh_syndrome(out)
        if out != (I, I):
            t[out] += weight

    for idx, op in enumerate(ops):
        if op[0] == "measure":
            out = op[3]
            if kind == GateKind.I:
                out = _canonical_fresh_syndrome(out)
            t[out] += pM

    closed = gate_error_table(kind, f_bar, noise, noise2)
    delta = np.abs(t - closed).max()
    if delta > 1e-12:
        raise TableMismatchError(kind, delta)
    return t


def closed_form_aggregates(
    kind: GateKind, f_bar, p_g: float, p_M: float
) -> GateAggregates:
    """Class sums under the uniform convention p_ij = p_g/15, written out as
    the compact first-order expressions."""
    f = as_fidelity_vector(f_bar)
    u = p_g / 15.0
    if kind == GateKind.I:
        return GateAggregates(
            p_zx=4 * u + p_M,
            p_zxbar=f[2] + f[3] + 4 * u,
            p_zbarx=4 * u,
            p_xz=0.0,
            p_xzbar=0.0,
            p_xbarz=f[1] + f[2] + 8 * u,
        )
    if kind in (GateKind.II, GateKind.III):
        return GateAggregates(
            p_zx=4 * u + p_M,
            p_zxbar=f[2] + f[3] + 12 * u,
            p_zbarx=4 * u,
            p_xz=4 * u + p_M,
            p_xzbar=4 * u,
            p_xbarz=f[1] + f[2] + 12 * u,
        )
    raise ValueError(f"unknown gate kind {kind!r}")
