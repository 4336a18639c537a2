"""
Resource overhead of a full computation
=======================================

The expected cost K of one delivered purified pair follows from the
all-or-nothing restart policy; combining it with the per-gate cost of the
topological layer and the gate count of a factoring run gives the total
operational overhead R = K * T.
"""

from distqc import (
    ChannelParams,
    CostModel,
    PumpSchedule,
    depolarizing_noise,
    expected_cost,
    shor_gate_count,
    simulate_expected_cost,
    total_overhead,
)
from distqc.resources import T_PER_PI8_AT_THIRD_THRESHOLD, contour_expected_cost

schedule = PumpSchedule.double(1, 2, 2)
channel = ChannelParams(0.9)
noise = depolarizing_noise(1e-3, 1e-3)

K = expected_cost(schedule, channel, noise)
K_mc = simulate_expected_cost(schedule, channel, noise, trials=10**6, seed=0)
print(f"expected base pairs per delivered purified pair: K = {K:.2f}")
print(f"Monte Carlo restart simulation (1e6 trials):     K = {K_mc:.2f}")

K_ops = expected_cost(schedule, channel, noise, CostModel(count_local_ops=True))
print(f"counting local gates and measurements as well:   K = {K_ops:.2f}")

count = shor_gate_count(1024)
report = total_overhead(K, T_PER_PI8_AT_THIRD_THRESHOLD, count.pi8)
print(f"\nfactoring a 1024-bit number needs {count.toffoli:.2e} Toffoli gates,")
print(f"hence {count.pi8:.2e} pi/8 gates; at one third of the topological")
print(f"threshold each pi/8 gate costs {T_PER_PI8_AT_THIRD_THRESHOLD:.0e} physical two-qubit gates.")
print(f"\n  T = {report.T:.2e} two-qubit gates")
print(f"  R = K * T = {report.R:.2e} total operations plus communication")

print("\ncost contours in the (F, p) plane for schedule (1,2,2):")
for level, pts in zip((30, 60, 120), contour_expected_cost(schedule, [30, 60, 120], [0.88, 0.92, 0.96])):
    line = "  ".join(f"(F={F:.2f}, p={p:.4f})" for F, p in pts)
    print(f"  K = {level:>3d}:  {line if pts else '(no crossing on this grid)'}")
