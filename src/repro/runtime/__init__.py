"""Runtime shutdown simulation: trace-driven island power-state machines.

The static analyses (:mod:`repro.power.leakage`,
:mod:`repro.power.gating`) answer "which islands *can* be gated and
what would that save on average"; this package answers "what does a
device actually save over a real mode sequence" — including wake-up
energy, wake latency stalls, and a dynamic verification of the paper's
core guarantee that no active flow ever crosses a gated island.

Modules
-------

``trace``
    :class:`UseCaseTrace` and the scripted / day-in-the-life / seeded
    Markov trace generators.
``states``
    Per-island ON/OFF/WAKING :class:`IslandStateMachine`.
``policies``
    Gating policies (``never``, ``always_off``, ``idle_timeout``,
    ``break_even``) and per-island :class:`IslandEconomics`.
``simulate``
    The trace replay engine: :func:`simulate_trace`,
    :func:`compare_policies`.
``report``
    :class:`RuntimeReport`, :class:`RoutabilityViolation` and table
    helpers.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".policies": (
            "AlwaysOff",
            "BreakEvenOracle",
            "EwmaIdlePredictor",
            "GatingPolicy",
            "IdleTimeout",
            "IslandEconomics",
            "NeverGate",
            "POLICY_NAMES",
            "default_policies",
            "make_policy",
        ),
        ".report": (
            "FaultImpact",
            "IslandRuntime",
            "RoutabilityViolation",
            "RuntimeReport",
            "policy_comparison_rows",
        ),
        ".simulate": (
            "canonical_fault_events",
            "certified_policy_comparison",
            "compare_policies",
            "island_economics",
            "simulate_trace",
        ),
        ".states": ("IslandState", "IslandStateMachine", "StateInterval"),
        ".trace": (
            "TraceSegment",
            "UseCaseTrace",
            "day_in_the_life_trace",
            "markov_trace",
            "scripted_trace",
        ),
    },
)
