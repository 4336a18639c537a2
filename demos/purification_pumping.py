"""
Entanglement pumping in the Pauli-label picture
===============================================

A noisy channel of fidelity F delivers pairs whose error content is a
length-4 probability vector over (I, X, Y, Z).  Pumping purifies one target
pair by repeatedly coupling it to freshly generated pairs and postselecting
on bilateral parity checks.  This script walks through the basic maps and
compares single- and double-selection pumping at a fixed pair budget.
"""

import numpy as np

from distqc import (
    ChannelParams,
    PumpSchedule,
    depolarizing_noise,
    double_selection,
    pump,
    single_selection,
)

noise = depolarizing_noise(p_g=1e-3, p_M=1e-3)
channel = ChannelParams(0.8)
print("raw channel vector:", channel.f_ini)

# One round of single selection filters bit flips but imports the ancilla's
# phase flips; one round of double selection also verifies the ancilla.
raw = channel.f_ini
f_single, p_single = single_selection(raw, raw, noise)
f_double, p_double = double_selection(raw, raw, raw, noise)
print(f"\none single-selection round:  infidelity {1 - f_single[0]:.4f}  success {p_single:.3f}")
print(f"one double-selection round:  infidelity {1 - f_double[0]:.4f}  success {p_double:.3f}")

# Full two-level pumping.  The double protocol spends 79 base pairs per
# attempt here; the single schedules below spend a comparable amount.
schedule = PumpSchedule.double(3, 4, 14)
result = pump(channel, schedule, noise)
print(f"\ndouble pumping {schedule.counts}:")
print("  purified vector:", np.array2string(result.f_out, precision=6))
print(f"  infidelity:      {1 - result.f_out[0]:.2e}")
print("  success probs:  ", {k: round(v, 4) for k, v in result.success_probs.items()})
print("  base pairs per attempt:", result.program.tally.base_pairs)

for counts in ((5, 12), (7, 9), (5, 13)):
    single = pump(channel, PumpSchedule.single(*counts), noise)
    print(
        f"single pumping {counts}: infidelity {1 - single.f_out[0]:.2e} "
        f"with {single.program.tally.base_pairs} base pairs per attempt"
    )

print("\nDouble selection reaches an order of magnitude lower infidelity at")
print("the same pair budget, which is what makes low-fidelity channels usable.")
