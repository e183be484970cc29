"""Use-case traces: *when* the SoC is in which operating mode.

The static shutdown analysis (:mod:`repro.power.leakage`) weighs use
cases by ``time_fraction`` and implicitly assumes each residency is long
enough that gating always pays off.  Real devices switch modes every few
tens of milliseconds, and each off/on cycle of an island costs energy
and wake-up time (:mod:`repro.power.gating`) — so the *sequence* of
modes matters, not just the mix.  A :class:`UseCaseTrace` captures that
sequence: an ordered list of :class:`TraceSegment` s, each naming one
:class:`~repro.sim.scenarios.UseCase` and how long the device dwells in
it.

Two generators are provided:

* :func:`scripted_trace` / :func:`day_in_the_life_trace` — deterministic
  hand-written or residency-derived sequences (regression-friendly);
* :func:`markov_trace` — a seeded Markov chain over the use-case set
  with exponentially jittered dwell times, for statistical sweeps.

Traces are plain frozen data, picklable, and independent of any
topology; the runtime simulator (:mod:`repro.runtime.simulate`) replays
them against a synthesized design.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.spec import SoCSpec
from ..exceptions import SpecError
from ..sim.scenarios import UseCase


@dataclass(frozen=True)
class TraceSegment:
    """One contiguous dwell in a single operating mode."""

    #: Name of the active :class:`UseCase` during this segment.
    use_case: str
    #: Dwell time in milliseconds.
    dwell_ms: float

    def __post_init__(self) -> None:
        if not self.use_case:
            raise SpecError("trace segment needs a use-case name")
        if self.dwell_ms <= 0:
            raise SpecError(
                "trace segment %r: dwell must be positive, got %r"
                % (self.use_case, self.dwell_ms)
            )


@dataclass(frozen=True)
class UseCaseTrace:
    """An ordered mode sequence over a fixed use-case set.

    ``use_cases`` carries the full scenario set (so the simulator can
    resolve segment names to active cores and flows); ``segments`` is
    the timeline.  Time starts at 0 ms and runs to :attr:`total_ms`.
    """

    name: str
    use_cases: Tuple[UseCase, ...]
    segments: Tuple[TraceSegment, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("trace needs a name")
        if not self.use_cases:
            raise SpecError("trace %r: needs a use-case set" % self.name)
        if not self.segments:
            raise SpecError("trace %r: needs at least one segment" % self.name)
        names = [u.name for u in self.use_cases]
        if len(set(names)) != len(names):
            raise SpecError("trace %r: duplicate use-case names" % self.name)
        known = set(names)
        for seg in self.segments:
            if seg.use_case not in known:
                raise SpecError(
                    "trace %r: segment references unknown use case %r"
                    % (self.name, seg.use_case)
                )

    @property
    def total_ms(self) -> float:
        """Trace length in milliseconds."""
        return sum(s.dwell_ms for s in self.segments)

    @property
    def num_transitions(self) -> int:
        """Mode switches (boundaries where the use case changes)."""
        return sum(
            1
            for a, b in zip(self.segments, self.segments[1:])
            if a.use_case != b.use_case
        )

    def case(self, name: str) -> UseCase:
        """Look up a use case of the trace's scenario set by name."""
        for u in self.use_cases:
            if u.name == name:
                return u
        raise SpecError("trace %r: unknown use case %r" % (self.name, name))

    def validate_against(self, spec: SoCSpec) -> None:
        """Check every use case of the set against a spec."""
        for u in self.use_cases:
            u.validate_against(spec)

    def boundaries(self) -> List[Tuple[float, float, TraceSegment]]:
        """``(start_ms, end_ms, segment)`` triples in timeline order."""
        out: List[Tuple[float, float, TraceSegment]] = []
        t = 0.0
        for seg in self.segments:
            out.append((t, t + seg.dwell_ms, seg))
            t += seg.dwell_ms
        return out

    def residency_ms(self) -> Dict[str, float]:
        """Total dwell per use case over the whole trace."""
        out: Dict[str, float] = {u.name: 0.0 for u in self.use_cases}
        for seg in self.segments:
            out[seg.use_case] += seg.dwell_ms
        return out


def scripted_trace(
    use_cases: Sequence[UseCase],
    script: Iterable[Tuple[str, float]],
    name: str = "scripted",
) -> UseCaseTrace:
    """Build a trace from explicit ``(use_case_name, dwell_ms)`` steps."""
    segments = tuple(TraceSegment(uc, dwell) for uc, dwell in script)
    return UseCaseTrace(name=name, use_cases=tuple(use_cases), segments=segments)


def day_in_the_life_trace(
    use_cases: Sequence[UseCase],
    total_ms: float = 1000.0,
    rounds: int = 4,
    name: str = "day_in_the_life",
) -> UseCaseTrace:
    """Deterministic residency-faithful trace.

    Spreads each use case's ``time_fraction`` over ``rounds``
    interleaved passes (a device does not run one contiguous block of
    standby), so the per-mode residency matches the scenario set's
    fractions exactly while still exercising mode transitions.
    """
    if total_ms <= 0:
        raise SpecError("trace length must be positive, got %r" % total_ms)
    if rounds < 1:
        raise SpecError("rounds must be >= 1, got %r" % rounds)
    total_fraction = sum(u.time_fraction for u in use_cases)
    if total_fraction <= 0:
        raise SpecError("use-case set has no positive time fractions")
    script: List[Tuple[str, float]] = []
    for _ in range(rounds):
        for u in use_cases:
            dwell = total_ms * (u.time_fraction / total_fraction) / rounds
            script.append((u.name, dwell))
    return scripted_trace(use_cases, script, name=name)


def markov_trace(
    use_cases: Sequence[UseCase],
    n_segments: int = 64,
    seed: int = 0,
    mean_dwell_ms: float = 50.0,
    min_dwell_ms: float = 1.0,
    name: Optional[str] = None,
) -> UseCaseTrace:
    """Seeded-Markov mode sequence with exponential dwell jitter.

    The next mode is drawn with probability proportional to its
    ``time_fraction`` among all *other* modes (no self-loops — a
    self-transition is indistinguishable from a longer dwell), so the
    long-run residency approximates the scenario set's fractions.
    Dwell times are exponential with mean ``mean_dwell_ms``, clamped
    below at ``min_dwell_ms``.  Identical inputs produce identical
    traces (one private :class:`random.Random` per call).
    """
    if n_segments < 1:
        raise SpecError("n_segments must be >= 1, got %r" % n_segments)
    # Written so that NaN fails both checks.  An infinite mean would
    # make the exponential's rate zero.
    if not 0 < mean_dwell_ms < math.inf:
        raise SpecError("mean dwell must be positive and finite, got %r" % mean_dwell_ms)
    if not 0 < min_dwell_ms <= mean_dwell_ms:
        raise SpecError(
            "min dwell must be in (0, mean], got %r" % min_dwell_ms
        )
    cases = list(use_cases)
    if not cases:
        raise SpecError("markov trace needs a non-empty use-case set")
    rng = random.Random(seed)
    weights = [max(u.time_fraction, 1e-9) for u in cases]

    def pick(exclude: Optional[int]) -> int:
        idxs = [i for i in range(len(cases)) if i != exclude]
        if not idxs:  # single-mode set: only a dwell sequence remains
            return 0
        ws = [weights[i] for i in idxs]
        return rng.choices(idxs, weights=ws, k=1)[0]

    script: List[Tuple[str, float]] = []
    current = pick(None)
    for _ in range(n_segments):
        dwell = max(min_dwell_ms, rng.expovariate(1.0 / mean_dwell_ms))
        script.append((cases[current].name, dwell))
        current = pick(current)
    return scripted_trace(
        cases, script, name=name or ("markov_seed%d" % seed)
    )
