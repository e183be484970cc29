"""Gating policies: *when* an idle island is actually powered off.

The synthesized topology guarantees idle islands *can* be gated; the
power controller still has to decide whether each idle interval is
worth the off/on cycle cost.  A policy maps one idle interval of one
island to a gate time (or ``None`` to stay powered):

* :class:`NeverGate` — keep everything on (the no-shutdown baseline);
* :class:`AlwaysOff` — gate the moment the island goes idle, however
  short the pause (the naive controller);
* :class:`IdleTimeout` — gate after the island has been idle for a
  fixed hold-off (the classic causal heuristic: short pauses never
  gate, long ones pay one timeout of leakage first);
* :class:`EwmaIdlePredictor` — gate immediately iff an EWMA of the
  island's *past* idle-interval lengths predicts the coming one beats
  break-even (causal: history only, no clairvoyance);
* :class:`BreakEvenOracle` — gate immediately, but only when the
  *coming* idle interval exceeds the island's break-even time
  (clairvoyant; the upper bound a causal policy can approach).

Policies see the island's :class:`IslandEconomics` — the same on/off
power split and event cost the simulator integrates — so the oracle's
decisions are optimal *for the simulator's own accounting*, which is
what makes the ``break_even <= min(never, always_off)`` invariant exact
rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..exceptions import SpecError
from ..names import POLICY_NAMES


@dataclass(frozen=True)
class IslandEconomics:
    """Per-island power economics the runtime simulator integrates.

    All figures describe the island as a whole — cores plus its share
    of the NoC (switches, NIs, converters) — per the decomposition in
    :func:`repro.runtime.simulate.island_economics`.
    """

    island: int
    #: Static power while powered: leakage + idle (clock) power, mW.
    on_static_mw: float
    #: Residual power while gated (sleep-transistor leakage), mW.
    off_static_mw: float
    #: Energy of one complete off/on cycle, nJ.
    event_energy_nj: float
    #: Wake-up latency (rail ramp + re-sync), ms.
    wakeup_latency_ms: float

    def __post_init__(self) -> None:
        if self.on_static_mw < 0 or self.off_static_mw < 0:
            raise SpecError("island %d: static power must be >= 0" % self.island)
        if self.off_static_mw > self.on_static_mw + 1e-12:
            raise SpecError(
                "island %d: gated power exceeds powered power" % self.island
            )
        if self.event_energy_nj < 0:
            raise SpecError("island %d: event energy must be >= 0" % self.island)
        if self.wakeup_latency_ms < 0:
            raise SpecError("island %d: wake latency must be >= 0" % self.island)

    @property
    def saved_mw(self) -> float:
        """Power saved while the island is gated."""
        return self.on_static_mw - self.off_static_mw

    @property
    def break_even_ms(self) -> float:
        """Idle duration above which gating saves net energy.

        ``E_event = saved_mw * t``  =>  ``t = E/P``; nJ / mW = µs.
        """
        if self.saved_mw <= 0:
            return math.inf
        return self.event_energy_nj / self.saved_mw / 1000.0

    def gating_pays_off(self, idle_ms: float) -> bool:
        """True when gating an ``idle_ms`` interval saves net energy.

        The single economics comparison every scoring layer shares:
        the oracle applies it to the true interval, causal predictors
        to their estimate, and the objective layer's trace-energy
        accounting integrates exactly the same terms.
        """
        return idle_ms > self.break_even_ms

    def gate_net_gain_uj(self, idle_ms: float) -> float:
        """Net energy saved (µJ) by gating an ``idle_ms`` interval.

        Positive exactly when :meth:`gating_pays_off`; useful when a
        cost model wants the magnitude, not just the verdict.
        """
        return self.saved_mw * idle_ms - self.event_energy_nj * 1e-3


class GatingPolicy:
    """Decides, per idle interval, when (if ever) to gate an island."""

    #: Canonical policy name; subclasses override.
    name = "abstract"

    def gate_time(
        self, idle_start_ms: float, idle_end_ms: float, econ: IslandEconomics
    ) -> Optional[float]:
        """Gate time within ``[idle_start_ms, idle_end_ms)``, or ``None``.

        ``idle_end_ms`` is when the island is next needed (trace end
        for trailing intervals).  Causal policies must not read it for
        the *decision* — only the oracle may; history-learning policies
        may record it afterwards (the interval is past by the time the
        next decision is made).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any per-trace state (called at each trace replay start).

        Stateless policies inherit the no-op; history-based predictors
        override so one instance can replay many traces/topologies
        without leaking history across runs.
        """

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return self.name


class NeverGate(GatingPolicy):
    """Keep every island powered for the whole trace."""

    name = "never"

    def gate_time(self, idle_start_ms, idle_end_ms, econ):
        return None


class AlwaysOff(GatingPolicy):
    """Gate every idle island immediately, whatever the pause costs."""

    name = "always_off"

    def gate_time(self, idle_start_ms, idle_end_ms, econ):
        return idle_start_ms


class IdleTimeout(GatingPolicy):
    """Gate after a fixed idle hold-off (causal heuristic).

    The timeout trades leakage during the hold-off against event energy
    wasted on short pauses; setting it near the fleet-average
    break-even time is the usual tuning.
    """

    name = "idle_timeout"

    def __init__(self, timeout_ms: float = 20.0) -> None:
        if timeout_ms < 0:
            raise SpecError("idle timeout must be >= 0, got %r" % timeout_ms)
        self.timeout_ms = timeout_ms

    def gate_time(self, idle_start_ms, idle_end_ms, econ):
        t = idle_start_ms + self.timeout_ms
        return t if t < idle_end_ms else None

    def describe(self) -> str:
        return "%s(%.1fms)" % (self.name, self.timeout_ms)


class EwmaIdlePredictor(GatingPolicy):
    """Causal predictor: gate iff the EWMA of past idles beats break-even.

    Keeps, per island, an exponentially weighted moving average of the
    idle-interval lengths seen *so far* and gates at idle start when
    that prediction passes :meth:`IslandEconomics.gating_pays_off`.
    The first interval of each island never gates (no history yet); the
    observed length of every interval updates the average after the
    decision, so the policy stays strictly causal while adapting to
    mode-residency shifts.  The gap between this policy and the
    clairvoyant :class:`BreakEvenOracle` is the price of causality
    (tracked in ``benchmarks/bench_runtime_shutdown.py``).
    """

    name = "ewma_predictor"

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SpecError("EWMA alpha must be in (0, 1], got %r" % alpha)
        self.alpha = alpha
        self._ewma: Dict[int, float] = {}

    def reset(self) -> None:
        self._ewma.clear()

    def gate_time(self, idle_start_ms, idle_end_ms, econ):
        predicted = self._ewma.get(econ.island)
        decision = None
        if predicted is not None and econ.gating_pays_off(predicted):
            decision = idle_start_ms
        observed = idle_end_ms - idle_start_ms
        if predicted is None:
            self._ewma[econ.island] = observed
        else:
            self._ewma[econ.island] = (
                self.alpha * observed + (1.0 - self.alpha) * predicted
            )
        return decision

    def describe(self) -> str:
        return "%s(a=%.2f)" % (self.name, self.alpha)


class BreakEvenOracle(GatingPolicy):
    """Gate immediately iff the coming idle interval beats break-even.

    Clairvoyant in the idle-interval length only; given the simulator's
    per-island economics this is the per-interval optimum, so its trace
    energy is a lower bound over {never, always_off, idle_timeout,
    ewma_predictor}.
    """

    name = "break_even"

    def gate_time(self, idle_start_ms, idle_end_ms, econ):
        if econ.gating_pays_off(idle_end_ms - idle_start_ms):
            return idle_start_ms
        return None


def make_policy(name: str, **kwargs) -> GatingPolicy:
    """Instantiate a policy by canonical name.

    Hyphens are accepted as underscores (``"break-even"``); keyword
    arguments reach the policy constructor (e.g. ``timeout_ms``).
    """
    key = name.strip().lower().replace("-", "_")
    classes: Dict[str, type] = {
        "never": NeverGate,
        "always_off": AlwaysOff,
        "idle_timeout": IdleTimeout,
        "ewma_predictor": EwmaIdlePredictor,
        "break_even": BreakEvenOracle,
    }
    if key not in classes:
        raise SpecError(
            "unknown gating policy %r (choose from %s)"
            % (name, ", ".join(POLICY_NAMES))
        )
    return classes[key](**kwargs)


def default_policies(timeout_ms: float = 20.0) -> Tuple[GatingPolicy, ...]:
    """The five standard policies, in presentation order."""
    return (
        NeverGate(),
        AlwaysOff(),
        IdleTimeout(timeout_ms=timeout_ms),
        EwmaIdlePredictor(),
        BreakEvenOracle(),
    )
