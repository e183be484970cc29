"""Use-case scenarios: which cores are active when.

The leakage argument of the paper (Sections 1 and 5) rests on real SoCs
spending much of their time in use cases that exercise only a subset of
the cores — audio playback does not need the video pipeline, standby
needs almost nothing.  A :class:`UseCase` names such a mode; the
shutdown analysis (:mod:`repro.power.leakage`) computes which islands
can be gated during it and what that saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence

from ..core.spec import SoCSpec, TrafficFlow
from ..exceptions import SpecError


@dataclass(frozen=True)
class UseCase:
    """One operating mode of the SoC.

    Attributes
    ----------
    name:
        Mode identifier, e.g. ``"audio_playback"``.
    active_cores:
        Cores that must stay powered in this mode.
    time_fraction:
        Share of device-on time spent in this mode; a scenario set's
        fractions should sum to (at most) 1.0 for weighted averages.
    """

    name: str
    active_cores: FrozenSet[str]
    time_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("use case needs a name")
        if not self.active_cores:
            raise SpecError("use case %r: needs at least one active core" % self.name)
        if not 0.0 < self.time_fraction <= 1.0:
            raise SpecError(
                "use case %r: time fraction must be in (0, 1]" % self.name
            )

    def validate_against(self, spec: SoCSpec) -> None:
        """Check that every active core exists in the spec."""
        unknown = self.active_cores - set(spec.core_names)
        if unknown:
            raise SpecError(
                "use case %r: unknown cores %s" % (self.name, sorted(unknown))
            )

    def active_flows(self, spec: SoCSpec) -> List[TrafficFlow]:
        """Flows whose both endpoints are active in this mode."""
        return [
            f
            for f in spec.flows
            if f.src in self.active_cores and f.dst in self.active_cores
        ]

    def idle_islands(self, spec: SoCSpec) -> List[int]:
        """Islands with no active core — the shutdown candidates."""
        out = []
        for isl in spec.islands:
            if not any(c in self.active_cores for c in spec.cores_in_island(isl)):
                out.append(isl)
        return out


def make_use_case(
    name: str, active_cores: Iterable[str], time_fraction: float = 1.0
) -> UseCase:
    """Convenience constructor from any iterable of core names."""
    return UseCase(
        name=name,
        active_cores=frozenset(active_cores),
        time_fraction=time_fraction,
    )


def validate_scenario_set(use_cases: Sequence[UseCase]) -> None:
    """Check a *set* of use cases is a valid residency mix.

    Individual :class:`UseCase` validation cannot see the set, so the
    two set-level invariants live here: names must be unique (they key
    report dictionaries), and the ``time_fraction`` s must sum to at
    most 1.0 — they are shares of device-on time, and every weighted
    average in :mod:`repro.power.leakage` and every trace generator in
    :mod:`repro.runtime.trace` assumes that.  A small float tolerance
    absorbs sets authored as ``1/3 + 1/3 + 1/3``.
    """
    if not use_cases:
        raise SpecError("scenario set must contain at least one use case")
    names = [u.name for u in use_cases]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise SpecError("scenario set has duplicate use-case names %s" % dupes)
    total = sum(u.time_fraction for u in use_cases)
    if total > 1.0 + 1e-9:
        raise SpecError(
            "scenario set time fractions sum to %.4f > 1.0 (%s)"
            % (total, ", ".join("%s=%.3f" % (u.name, u.time_fraction) for u in use_cases))
        )
