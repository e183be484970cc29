"""Per-island power-state machines.

Each gateable voltage island is modelled as a three-state machine:

* ``ON`` — powered, clocked, usable;
* ``OFF`` — power-gated: only residual leakage through the sleep
  transistors, no clock tree, not usable;
* ``WAKING`` — rail ramp and re-synchronization after a wake request
  (:attr:`~repro.power.gating.GatingCost.wakeup_latency_us`); the
  island draws full static power but is not yet usable.

The machine records its full state timeline so the simulator can
integrate energy over it and the routability check can ask "what state
was island *i* in during segment *s*".  Transitions are validated: an
island cannot gate while waking, and wake requests on a powered island
are no-ops.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List

from ..exceptions import SpecError


class IslandState(enum.Enum):
    """Power state of one voltage island."""

    ON = "on"
    OFF = "off"
    WAKING = "waking"

    def __str__(self) -> str:  # compact in tables and logs
        return self.value


@dataclass(frozen=True)
class StateInterval:
    """One contiguous stretch of a single power state."""

    state: IslandState
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


class IslandStateMachine:
    """Replayable ON/OFF/WAKING state machine of one island.

    Time is monotone milliseconds from trace start; the machine starts
    ``ON`` at t=0 (the device boots fully powered) and must be
    :meth:`finalize` d at the trace end before the timeline is read.
    """

    def __init__(self, island: int, wakeup_latency_ms: float) -> None:
        if wakeup_latency_ms < 0:
            raise SpecError("wake-up latency must be >= 0")
        self.island = island
        self.wakeup_latency_ms = wakeup_latency_ms
        self.state = IslandState.ON
        self.gate_events = 0
        self.wake_events = 0
        self._t = 0.0
        self._intervals: List[StateInterval] = []
        #: Interval starts, kept once the machine is finalized.
        self._starts: List[float] = []
        #: Whether each interval ends by the next one's start, so a
        #: window query may bisect the starts: true unless a transition
        #: stepped back within the 1e-9 ms that ``_advance`` tolerates.
        self._disjoint = False
        self._state_since = 0.0
        self._finalized = False

    # -- transitions ----------------------------------------------------

    def _advance(self, t_ms: float, new_state: IslandState) -> None:
        if t_ms < self._t - 1e-9:
            raise SpecError(
                "island %d: time moved backwards (%.6f < %.6f)"
                % (self.island, t_ms, self._t)
            )
        if t_ms > self._state_since:
            self._intervals.append(
                StateInterval(self.state, self._state_since, t_ms)
            )
        self.state = new_state
        self._state_since = t_ms
        self._t = max(self._t, t_ms)

    def gate_off(self, t_ms: float) -> None:
        """Power-gate the island at ``t_ms`` (must currently be ON)."""
        if self.state is not IslandState.ON:
            raise SpecError(
                "island %d: cannot gate from state %s" % (self.island, self.state)
            )
        self._advance(t_ms, IslandState.OFF)
        self.gate_events += 1

    def request_wake(self, t_ms: float) -> float:
        """Wake the island at ``t_ms``; returns the time it is usable.

        A powered island is usable immediately; a gated island ramps
        through ``WAKING`` for the wake-up latency.
        """
        if self.state is IslandState.ON:
            return t_ms
        if self.state is IslandState.WAKING:
            raise SpecError(
                "island %d: overlapping wake requests" % self.island
            )
        ready = t_ms + self.wakeup_latency_ms
        self._advance(t_ms, IslandState.WAKING)
        self._advance(ready, IslandState.ON)
        self.wake_events += 1
        return ready

    def finalize(self, t_end_ms: float) -> None:
        """Close the timeline at the trace end.

        A wake requested near the trace end may have recorded its ON
        transition *past* ``t_end_ms`` (the rail ramp does not care
        that the trace is over); the timeline is clipped back to the
        trace window rather than rejected.
        """
        if self._finalized:
            raise SpecError("island %d: timeline already finalized" % self.island)
        if t_end_ms >= self._t:
            self._advance(t_end_ms, self.state)
        else:
            kept = [iv for iv in self._intervals if iv.start_ms < t_end_ms]
            if kept and kept[-1].end_ms > t_end_ms:
                last = kept[-1]
                kept[-1] = StateInterval(last.state, last.start_ms, t_end_ms)
            if self._state_since < t_end_ms:
                kept.append(StateInterval(self.state, self._state_since, t_end_ms))
            self._intervals = kept
        self._finalized = True
        intervals = self._intervals
        self._starts = [iv.start_ms for iv in intervals]
        self._disjoint = all(
            a.end_ms <= b.start_ms for a, b in zip(intervals, intervals[1:])
        )

    # -- queries --------------------------------------------------------

    def _finalized_intervals(self) -> List[StateInterval]:
        if not self._finalized:
            raise SpecError("island %d: timeline not finalized" % self.island)
        return self._intervals

    @property
    def timeline(self) -> List[StateInterval]:
        """The full state timeline (finalized machines only)."""
        return list(self._finalized_intervals())

    def state_at(self, t_ms: float) -> IslandState:
        """State at time ``t_ms`` (intervals are [start, end))."""
        intervals = self._finalized_intervals()
        i = bisect_right(self._starts, t_ms) - 1
        if i < 0:
            return intervals[0].state
        return intervals[min(i, len(intervals) - 1)].state

    def time_in(self) -> Dict[IslandState, float]:
        """Milliseconds spent in each state over the whole timeline."""
        out = {s: 0.0 for s in IslandState}
        for iv in self._finalized_intervals():
            out[iv.state] += iv.duration_ms
        return out

    def off_overlap_ms(self, start_ms: float, end_ms: float) -> float:
        """OFF time overlapping ``[start_ms, end_ms)``."""
        return self._overlap_ms(start_ms, end_ms, IslandState.OFF)

    def waking_overlap_ms(self, start_ms: float, end_ms: float) -> float:
        """WAKING time overlapping ``[start_ms, end_ms)``."""
        return self._overlap_ms(start_ms, end_ms, IslandState.WAKING)

    def _overlap_ms(
        self, start_ms: float, end_ms: float, state: IslandState
    ) -> float:
        """Time in ``state`` overlapping ``[start_ms, end_ms)``.

        The overlaps add up in timeline order.  On disjoint intervals
        only those from the one holding ``start_ms`` to the last that
        starts before ``end_ms`` can overlap, so only those are visited:
        the same terms in the same order as a scan of the whole
        timeline, hence the same float.
        """
        intervals = self._finalized_intervals()
        first, stop = 0, len(intervals)
        if self._disjoint:
            first = max(bisect_right(self._starts, start_ms) - 1, 0)
            stop = bisect_left(self._starts, end_ms)
        total = 0.0
        for i in range(first, stop):
            iv = intervals[i]
            if iv.state is not state:
                continue
            lo = max(iv.start_ms, start_ms)
            hi = min(iv.end_ms, end_ms)
            if hi > lo:
                total += hi - lo
        return total
