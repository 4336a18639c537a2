"""Pauli label algebra and local noise models.

Every entangled pair in this package is tracked by a single Pauli label on a
fixed half of the pair; physical errors hitting the other half are folded onto
the stored label.  All maps are diagonal in this label basis, so a pair's
state is always a length-4 probability vector over (I, X, Y, Z) and no density
matrix is ever materialised.

Label indices are fixed to I=0, X=1, Y=2, Z=3 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

I, X, Y, Z = 0, 1, 2, 3
LABELS = (I, X, Y, Z)

ATOL = 1e-12

# label -> symplectic bits; Y carries both an x and a z bit
X_BIT = (0, 1, 1, 0)
Z_BIT = (0, 0, 1, 1)
FROM_BITS = ((0, 3), (1, 2))  # indexed [x][z]


def _check_label(a: int) -> None:
    if a not in LABELS:
        raise ValueError(f"invalid Pauli label {a!r}; expected 0..3")


def label_mul(a: int, b: int) -> int:
    """Product of two Pauli labels with phases discarded."""
    _check_label(a)
    _check_label(b)
    return FROM_BITS[X_BIT[a] ^ X_BIT[b]][Z_BIT[a] ^ Z_BIT[b]]


def cnot_propagate(control: int, target: int) -> tuple[int, int]:
    """Conjugate a label pair through an ideal CNOT, signs dropped.

    X on the control copies onto the target, Z on the target copies onto the
    control; the remaining components stay put.
    """
    _check_label(control)
    _check_label(target)
    xc, zc = X_BIT[control], Z_BIT[control]
    xt, zt = X_BIT[target], Z_BIT[target]
    return FROM_BITS[xc][zc ^ zt], FROM_BITS[xt ^ xc][zt]


def hadamard_propagate(a: int) -> int:
    """Conjugate a label through a (bilateral) Hadamard: X and Z swap."""
    _check_label(a)
    return (I, Z, Y, X)[a]


# Integer lookup tables for vectorised code paths.
MUL_TABLE = np.array([[label_mul(a, b) for b in LABELS] for a in LABELS], dtype=np.int64)
HAD_TABLE = np.array([hadamard_propagate(a) for a in LABELS], dtype=np.int64)
CNOT_CONTROL_TABLE = np.array(
    [[cnot_propagate(c, t)[0] for t in LABELS] for c in LABELS], dtype=np.int64
)
CNOT_TARGET_TABLE = np.array(
    [[cnot_propagate(c, t)[1] for t in LABELS] for c in LABELS], dtype=np.int64
)
X_COMPONENT = np.array(X_BIT, dtype=np.int64)  # 1 for X, Y
Z_COMPONENT = np.array(Z_BIT, dtype=np.int64)  # 1 for Y, Z


def as_fidelity_vector(values) -> np.ndarray:
    """Validate and return a length-4 probability vector over error labels."""
    f = np.asarray(values, dtype=float)
    if f.shape != (4,):
        raise ValueError(f"fidelity vector must have 4 entries, got shape {f.shape}")
    _refuse((f >= -ATOL) & (f <= 1 + ATOL), f, "fidelity vector entries outside [0, 1]: {}")
    _refuse(abs(f.sum() - 1.0) <= ATOL, f.sum(), "fidelity vector must sum to 1, got {!r}")
    return f


@dataclass(frozen=True)
class ChannelParams:
    """Noisy channel of fidelity F sharing pairs with the standard error mix.

    The raw pair carries no error with probability F and each of X, Y, Z with
    probability (1 - F)/3.
    """

    F: float

    def __post_init__(self):
        if not 0.25 < self.F <= 1.0:
            raise ValueError(f"channel fidelity must lie in (1/4, 1], got {self.F}")

    @property
    def f_ini(self) -> np.ndarray:
        e = (1.0 - self.F) / 3.0
        return np.array([self.F, e, e, e])


@dataclass(frozen=True)
class NoiseParams:
    """Local operation noise: two-qubit gate table and measurement error.

    p_table[i][j] is the probability that a two-qubit gate is followed by the
    error sigma_i (x) sigma_j on its two qubits; p_table[0][0] = 1 - p_g.
    p_M is the per-qubit measurement flip probability.  Memory error enters
    through the gate error rate (see :func:`effective_pg`).  A batch of
    noise points holds a p_M array and a ``p_table[..., 4, 4]`` of the same
    batch shape; every check applies to each point.
    """

    p_table: np.ndarray
    p_M: float | np.ndarray

    def __post_init__(self):
        table = np.asarray(self.p_table, dtype=float)
        p_M, batch = self.p_M, ()
        if not np.isscalar(p_M):
            p_M = np.asarray(p_M, dtype=float)
            batch = p_M.shape
            object.__setattr__(self, "p_M", p_M)
        if table.shape != batch + (4, 4):
            per_point = f" for p_M of shape {batch}" if batch else ""
            raise ValueError(f"p_table must be 4x4, got shape {table.shape}{per_point}")
        _refuse(table >= -ATOL, table, "p_table entries must be non-negative, got {}")
        sums = np.add.reduce(table, axis=(-2, -1))
        _refuse(abs(sums - 1.0) <= ATOL, sums, "p_table must sum to 1, got {!r}")
        object.__setattr__(self, "p_table", table)
        _refuse((0.0 <= p_M) & (p_M < 1.0), p_M, "p_M must lie in [0, 1), got {}")


def _refuse(ok, values, message: str) -> None:
    """Raise ValueError with ``message`` naming the first value where ``ok`` fails."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError(message.format(np.asarray(values)[~np.asarray(ok)].flat[0].item()))


def depolarizing_noise(p_g, p_M) -> NoiseParams:
    """Build NoiseParams with the 15 non-identity gate errors sharing p_g
    uniformly (each entry p_g/15).  p_g and p_M are numbers or arrays of one
    shape, each point's table bitwise that of its scalar call."""
    if np.isscalar(p_g):
        table = np.full((4, 4), p_g / 15.0)
    else:
        p_g = np.asarray(p_g, dtype=float)
        table = np.full(p_g.shape + (4, 4), (p_g / 15.0)[..., None, None])
    _refuse((0.0 <= p_g) & (p_g < 1.0), p_g, "p_g must lie in [0, 1), got {}")
    table[..., 0, 0] = 1.0 - p_g
    return NoiseParams(p_table=table, p_M=p_M)


def p_M_of(p_M_rule, p_g):
    """Measurement error under a p_M rule: "equal" (p_M = p_g) and
    "four_fifteenths" (p_M = 4 p_g / 15) per rate, a fixed number in [0, 1) as is."""
    if p_M_rule == "equal":
        return p_g
    if p_M_rule == "four_fifteenths":
        return 4.0 * p_g / 15.0
    if isinstance(p_M_rule, str):
        raise ValueError(
            f"unknown p_M rule {p_M_rule!r}; expected 'equal', 'four_fifteenths' or a number"
        )
    p_M = float(p_M_rule)
    if not 0.0 <= p_M < 1.0:
        raise ValueError(f"p_M must lie in [0, 1), got {p_M}")
    return p_M


def effective_pg(p_g: float, eta: float, l_wait: int) -> float:
    """Fold memory error over l_wait waiting steps into the gate error rate."""
    if not (p_g >= 0 and eta >= 0 and l_wait >= 0):  # a NaN fails here
        raise ValueError(f"p_g, eta and l_wait must be non-negative, got {p_g}, {eta} and {l_wait}")
    total = p_g + eta * l_wait
    if not total < 1.0:  # a NaN fails here: an infinite eta times l_wait = 0
        reason = "reaches 1" if total >= 1.0 else f"is undefined at eta = {eta} and l_wait = {l_wait}"
        raise ValueError(f"effective error probability {total} {reason}")
    return total
