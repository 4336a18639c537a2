"""Numerical analysis of a distributed architecture for fault-tolerant
quantum computation: entanglement purification, teleported-gate error tables,
topological fault-tolerance thresholds and resource overheads, all in the
Pauli-diagonal probability representation."""

__version__ = "0.1.0"

from .pauli import (
    ChannelParams,
    NoiseParams,
    as_fidelity_vector,
    cnot_propagate,
    depolarizing_noise,
    effective_pg,
    hadamard_propagate,
    label_mul,
)
from .purify import (
    PumpResult,
    PumpSchedule,
    SuccessProbabilityError,
    double_selection,
    double_selection_tensor,
    pump,
    single_selection,
    single_selection_tensor,
)
from .telegate import (
    GateAggregates,
    GateKind,
    aggregates,
    gate_error_table,
    gate_error_table_from_circuit,
)
from .threshold import (
    QTuple,
    ThresholdConditions,
    check_ft,
    contour_infidelity,
    q_values,
    q_values_generic,
    threshold_curve,
    threshold_pg,
)
from .resources import (
    CostModel,
    contour_expected_cost,
    expected_cost,
    shor_gate_count,
    simulate_expected_cost,
    total_overhead,
)

__all__ = [
    "ChannelParams",
    "CostModel",
    "GateAggregates",
    "GateKind",
    "NoiseParams",
    "PumpResult",
    "PumpSchedule",
    "QTuple",
    "SuccessProbabilityError",
    "ThresholdConditions",
    "aggregates",
    "as_fidelity_vector",
    "check_ft",
    "cnot_propagate",
    "contour_expected_cost",
    "contour_infidelity",
    "depolarizing_noise",
    "double_selection",
    "double_selection_tensor",
    "effective_pg",
    "expected_cost",
    "gate_error_table",
    "gate_error_table_from_circuit",
    "hadamard_propagate",
    "label_mul",
    "pump",
    "q_values",
    "q_values_generic",
    "shor_gate_count",
    "simulate_expected_cost",
    "single_selection",
    "single_selection_tensor",
    "threshold_curve",
    "threshold_pg",
    "total_overhead",
]
