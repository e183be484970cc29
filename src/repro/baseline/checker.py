"""Shutdown-feasibility checker for arbitrary topologies.

Answers the question the paper opens with: *given this NoC and this
use case, which voltage islands can actually be powered off?*  For
VI-aware topologies from :mod:`repro.core.synthesis` every idle island
is gateable; for the VI-oblivious baseline, live flows through
third-party switches pin idle islands awake.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence, Tuple

from ..arch.topology import Topology
from ..arch.validate import ShutdownViolation, audit_shutdown_safety
from ..power.leakage import GATING_OVERHEAD_FRACTION, ShutdownReport, _shutdown_report
from ..sim.scenarios import UseCase


@dataclass(frozen=True)
class FeasibilityReport:
    """Shutdown capability of one topology across a scenario set."""

    topology_label: str
    #: Static audit: routes touching third-party islands.
    violations: Tuple[ShutdownViolation, ...]
    #: Per use case: (gateable islands, blocked idle islands).
    per_use_case: Mapping[str, Tuple[Tuple[int, ...], Tuple[int, ...]]]
    #: Per use case: full power accounting.
    shutdown_reports: Mapping[str, ShutdownReport]

    @property
    def is_shutdown_safe(self) -> bool:
        """True when the static audit found no violations."""
        return not self.violations


def check_shutdown_feasibility(
    topology: Topology,
    use_cases: Sequence[UseCase],
    label: str = "",
) -> FeasibilityReport:
    """Audit a topology and analyze shutdown over every use case.

    The gateability rule is the design-time guarantee of
    :func:`repro.power.leakage.analyze_shutdown`: the islands the one
    audit pins stay powered in every case.
    """
    violations = tuple(audit_shutdown_safety(topology))
    pinned = {v.island for v in violations}
    per_case: Dict[str, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
    reports: Dict[str, ShutdownReport] = {}
    for case in use_cases:
        report = _shutdown_report(topology, case, pinned, GATING_OVERHEAD_FRACTION)
        per_case[case.name] = (report.gated_islands, report.blocked_islands)
        reports[case.name] = report
    return FeasibilityReport(
        topology_label=label or topology.spec.name,
        violations=violations,
        per_use_case=per_case,
        shutdown_reports=reports,
    )


def compare_shutdown_capability(
    vi_aware: Topology,
    vi_oblivious: Topology,
    use_cases: Sequence[UseCase],
) -> Dict[str, FeasibilityReport]:
    """Side-by-side feasibility of the two design styles.

    Returns ``{"vi_aware": ..., "vi_oblivious": ...}``; the interesting
    contrast is the gated and blocked islands of each use case and the
    resulting power savings in the shutdown reports.
    """
    return {
        "vi_aware": check_shutdown_feasibility(vi_aware, use_cases, "vi_aware"),
        "vi_oblivious": check_shutdown_feasibility(
            vi_oblivious, use_cases, "vi_oblivious"
        ),
    }
