"""Registry names and defaults the CLI parser offers as choices.

Each tuple is defined here once and re-exported by the module that
implements it (:mod:`repro.core.objective`, :mod:`repro.runtime.policies`,
:mod:`repro.resilience.faults`).  This module imports nothing, so
building the ``repro-noc`` parser loads no subsystem.
"""

from typing import Tuple

#: Canonical objective names, in presentation order (CLI choices).
OBJECTIVE_NAMES: Tuple[str, ...] = (
    "static_power",
    "static_latency",
    "static_area",
    "wire_length",
    "trace_energy",
    "multi_trace",
    "wake_qos",
    "resilience",
    "recovery",
)

#: Canonical gating-policy names, in presentation order.
POLICY_NAMES: Tuple[str, ...] = (
    "never",
    "always_off",
    "idle_timeout",
    "ewma_predictor",
    "break_even",
)

#: Canonical fault-model names, in presentation order (CLI choices).
FAULT_MODEL_NAMES: Tuple[str, ...] = (
    "single_link",
    "double_link",
    "switch",
    "island",
)

#: Default per-flow wake-latency budget (ms) when none is specified.
#: Island wake ramps in the default :class:`~repro.power.gating.GatingModel`
#: are tens of microseconds, so 50 µs passes well-behaved break-even
#: gating on the built-in benches while still catching pathological
#: policies; real QoS work should pass explicit per-flow budgets.
DEFAULT_WAKE_BUDGET_MS = 0.05
