"""
Fault-tolerance thresholds over the channel-fidelity axis
=========================================================

The topological error-correction conditions bound six error-class rates
computed from the purified-pair vector and the local noise.  Bisecting the
full pipeline in the gate error probability traces the threshold curve; the
perfect-channel endpoints reproduce the 0.26% and 0.50% local thresholds.
"""

import numpy as np

from distqc import (
    PumpSchedule,
    ThresholdConditions,
    q_values,
    threshold_curve,
    threshold_pg,
)
from distqc.threshold import DOUBLE_SCHEDULE_PRESETS, pipeline_passes

schedule = PumpSchedule.double(1, 2, 2)

print("perfect-channel thresholds:")
print(f"  p_M = p_g:       {threshold_pg(1.0, schedule, 'equal'):.6f}")
print(f"  p_M = 4 p_g/15:  {threshold_pg(1.0, schedule, 'four_fifteenths'):.6f}")

print("\nthreshold curve for schedule (3,4,14), p_M = p_g:")
curve = threshold_curve(PumpSchedule.double(3, 4, 14), np.linspace(0.70, 1.0, 7))
for F, pg in curve:
    print(f"  F = {F:.2f}:  threshold p_g = {pg:.5f}")

print("\noperating points:")
print("  F=0.7, p=1e-3, (3,4,14), full conditions:   ",
      pipeline_passes(0.7, 1e-3, PumpSchedule.double(3, 4, 14), "equal", ThresholdConditions()))
print("  F=0.9, p=1e-3, (1,2,2), one-third margin:   ",
      pipeline_passes(0.9, 1e-3, schedule, "equal", ThresholdConditions(margin=1 / 3)))

# the error-class rates at the margined operating point
from distqc import ChannelParams, depolarizing_noise, pump

noise = depolarizing_noise(1e-3, 1e-3)
f_bar = pump(ChannelParams(0.9), schedule, noise).f_out
q = q_values(f_bar, 1e-3, 1e-3)
print(f"\nrates at (F=0.9, p=1e-3): qa={q.qa:.5f} qb={q.qb:.5f} qc={q.qc:.5f} "
      f"q_cor={q.q_correlated:.5f}")

print("\nschedules with at least one double-selection level keep working far")
print("below F = 0.9; the preset list spans the published trade-off family:")
print("  " + "  ".join(str(s.counts) for s in DOUBLE_SCHEDULE_PRESETS))
