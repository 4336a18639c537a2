"""Numerical analysis of a distributed architecture for fault-tolerant
quantum computation: entanglement purification, teleported-gate error tables,
topological fault-tolerance thresholds and resource overheads, all in the
Pauli-diagonal probability representation.

``import distqc`` loads none of the modules below: each public name is
imported from its module on first use (PEP 562), so a call loads only the
modules it uses."""

import importlib

__version__ = "0.1.0"

#: each public name -> the module that defines it
_HOME = {
    **dict.fromkeys(("ChannelParams", "NoiseParams", "as_fidelity_vector", "cnot_propagate",
                     "depolarizing_noise", "effective_pg", "hadamard_propagate", "label_mul"), "pauli"),
    **dict.fromkeys(("PumpResult", "PumpSchedule", "SuccessProbabilityError", "double_selection",
                     "double_selection_tensor", "pump", "single_selection", "single_selection_tensor"),
                    "purify"),
    **dict.fromkeys(("GateAggregates", "GateKind", "aggregates", "gate_error_table",
                     "gate_error_table_from_circuit"), "telegate"),
    **dict.fromkeys(("QTuple", "ThresholdConditions", "check_ft", "contour_infidelity", "q_values",
                     "q_values_generic", "threshold_curve", "threshold_pg"), "threshold"),
    **dict.fromkeys(("CostModel", "contour_expected_cost", "expected_cost", "shor_gate_count",
                     "simulate_expected_cost", "total_overhead"), "resources"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
