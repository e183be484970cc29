"""Deterministic latency model of the reconfiguration control plane.

The controller is *not* omniscient: a fault raised at ``t`` is only
observed after a detection latency (heartbeat loss, credit timeout,
CRC escalation — whatever the transport detects with), and a routing
decision only takes effect after an installation latency (programming
route tables switch by switch).  Both are modeled deterministically so
two replays of the same trace produce byte-identical telemetry:

* **detection** — a base latency plus a per-scenario jitter term keyed
  on a stable hash of the scenario name (``zlib.crc32``), standing in
  for where in the polling period the fault lands.  No RNG state, no
  call-order dependence: the same scenario always detects after the
  same delay.
* **installation** — a base latency plus a per-migrated-flow term: the
  more route-table entries the decision touches, the longer the
  install transaction takes.

Repair observation reuses the detection model scaled by
``repair_detection_factor`` (detecting a link coming *back* is
typically a lazier, polled path than detecting it going away).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..exceptions import SpecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..resilience.faults import FaultScenario


def _stable_fraction(name: str) -> float:
    """Deterministic value in [0, 1] from a scenario name."""
    return (zlib.crc32(name.encode("utf-8")) % 1000) / 999.0


@dataclass(frozen=True)
class ControlLatencyModel:
    """Detection / installation latencies of the control loop (ms)."""

    #: Minimum time from fault to the controller observing it.
    detection_base_ms: float = 0.02
    #: Span of the per-scenario detection jitter (where in the polling
    #: period the fault lands); keyed on the scenario name.
    detection_jitter_ms: float = 0.01
    #: Fixed cost of one routing-install transaction.
    install_base_ms: float = 0.01
    #: Added install cost per migrated flow (route-table entries).
    install_per_flow_ms: float = 0.002
    #: Repair observation latency as a multiple of fault detection.
    repair_detection_factor: float = 2.0

    def __post_init__(self) -> None:
        for field in (
            "detection_base_ms",
            "detection_jitter_ms",
            "install_base_ms",
            "install_per_flow_ms",
            "repair_detection_factor",
        ):
            if not getattr(self, field) >= 0:  # NaN fails too
                raise SpecError(
                    "latency model %s must be >= 0, got %r"
                    % (field, getattr(self, field))
                )

    def detection_ms(self, scenario: "FaultScenario") -> float:
        """Fault-to-observation latency of one scenario."""
        return (
            self.detection_base_ms
            + self.detection_jitter_ms * _stable_fraction(scenario.name)
        )

    def install_ms(self, migrated_flows: int) -> float:
        """Decision-to-installed latency for a given migration size."""
        return self.install_base_ms + self.install_per_flow_ms * max(
            0, migrated_flows
        )

    def repair_detection_ms(self, scenario: "FaultScenario") -> float:
        """Repair-to-observation latency (lazier than fault detection)."""
        return self.detection_ms(scenario) * self.repair_detection_factor

    def recovery_ms(self, scenario: "FaultScenario", migrated_flows: int) -> float:
        """Worst-case fault-to-recovered time: detect + install."""
        return self.detection_ms(scenario) + self.install_ms(migrated_flows)
