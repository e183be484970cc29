"""Online reconfiguration control plane (closed-loop fault recovery).

PR 5 made the design statically fault-tolerant (enumerated scenarios,
k-disjoint spare paths, coverage audits); this package adds the
missing temporal dimension — an SDN-style controller that runs inside
the trace simulation loop and walks every injected fault through the
staged repair pipeline

    failed -> detected -> rerouted (degraded) -> repaired (restored)

with modeled detection and installation latencies, live flow
migration (spare activation first, online reroute on surviving
hardware second, degraded-lost last) and a deadlock-freedom audit of
every routing it installs.

``latency``
    :class:`ControlLatencyModel` — deterministic detection /
    installation delays (per-scenario jitter keyed on a stable hash).
``telemetry``
    :class:`TelemetryEvent` stream and the per-fault
    :class:`FaultRecovery` / :class:`FlowRecovery` timelines.
``controller``
    :class:`ReconfigurationController` (observe / decide / install)
    and :class:`ControlOutcome`, merged into the runtime report by
    :func:`repro.runtime.simulate.simulate_trace` via ``controller=``.
``objective``
    :class:`RecoveryObjective` — worst-case detection-to-recovery time
    as a lexicographic cost after the base objective.

See ``docs/control_plane.md``.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".controller": (
            "ControlDecision",
            "ControlOutcome",
            "FlowDecision",
            "ReconfigurationController",
            "controlled_simulation_check",
        ),
        ".latency": ("ControlLatencyModel",),
        ".objective": ("RecoveryObjective",),
        ".telemetry": (
            "ACTION_LOST",
            "ACTION_REROUTE",
            "ACTION_SPARE",
            "TELEMETRY_KINDS",
            "FaultRecovery",
            "FlowRecovery",
            "TelemetryEvent",
            "recovery_rows",
            "recovery_summary",
            "sort_telemetry",
            "telemetry_summary",
        ),
    },
)
