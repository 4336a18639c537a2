"""
Teleported-gate error tables
============================

Each two-qubit gate between neighbouring nodes consumes one purified pair.
The residual pair error, local gate noise and measurement flips leave Pauli
errors on the two outputs, collected in a 4x4 table per gate variant.  The
closed-form tables are cross-checked against a circuit-propagation oracle.
"""

import numpy as np

from distqc import (
    ChannelParams,
    GateKind,
    PumpSchedule,
    aggregates,
    depolarizing_noise,
    gate_error_table,
    gate_error_table_from_circuit,
    pump,
)

p_g = p_M = 1e-3
noise = depolarizing_noise(p_g, p_M)
f_bar = pump(ChannelParams(0.9), PumpSchedule.double(1, 2, 2), noise).f_out
print("purified pair vector:", np.array2string(f_bar, precision=6))

labels = "IXYZ"
for kind in GateKind:
    table = gate_error_table(kind, f_bar, noise)
    circuit = gate_error_table_from_circuit(kind, f_bar, noise)
    print(f"\ngate kind {kind.value}: total error weight {table.sum():.5f} "
          f"(circuit oracle deviation {np.abs(table - circuit).max():.1e})")
    print("      " + "".join(f"{c:>11s}" for c in labels))
    for i, row in enumerate(table):
        print(f"  {labels[i]}  " + "".join(f"{v:11.2e}" for v in row))
    agg = aggregates(table)
    print(f"  class sums: p_zx={agg.p_zx:.5f} p_zxbar={agg.p_zxbar:.5f} "
          f"p_xbarz={agg.p_xbarz:.5f}")

total = gate_error_table(GateKind.II, f_bar, noise).sum()
budget = (1 - f_bar[0]) + 2 * p_g + 2 * p_M
print(f"\nkind II total {total:.5f} vs first-order budget "
      f"(1 - F) + 2 p_g + 2 p_M = {budget:.5f}")
