"""Outside-in layer tracing for the benchmark.

Spans are recorded around each layer's public functions by rebinding
them, from this file, wherever the program holds a reference to them
(module globals and class attributes); no file under ``src/`` knows the
tracer exists.  A span is ``[layer, start, end, parent, ok]``: ``parent``
is the index of the enclosing span (-1 for a root) and ``ok`` is the
layer's outcome flag where one is defined (``PathAllocator.allocate``
reports ``result.success``).  Spans stay in memory until the caller
drains them.

A layer's self time is its spans' durations minus the time their
direct child spans cover, so the self times of every layer sum to the
total of the root spans; whatever the traced wall clock holds beyond
that is reported as ``unattributed_s``.

The host-speed probes of :mod:`hostspeed` interrupt a traced pass on a
timer.  :meth:`LayerTracer.add_probe` records each as a :data:`PROBE`
span, a child of the span it interrupted, so no layer's self time
includes it; probes are no layer themselves.  They are kept in a list
of their own (signal handlers never touch the span indices) and drained
after the layer spans.

This module imports only the standard library, so importing it costs
nothing measurable and never pulls the program in.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(layer, module, attribute)``; ``Class.method`` wraps a method.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "repro.cli", "main"),
    ("core.explore", "repro.core.explore", "ExplorationEngine.run"),
    ("core.synthesis", "repro.core.synthesis", "synthesize"),
    ("core.frequency", "repro.core.frequency", "plan_all_islands"),
    ("core.vcg", "repro.core.vcg", "build_all_vcgs"),
    ("core.partition", "repro.core.partition", "partition_graph"),
    ("core.paths", "repro.core.paths", "PathAllocator.allocate"),
    ("floorplan", "repro.floorplan.placer", "place"),
    ("floorplan", "repro.floorplan.wires", "assign_wire_lengths"),
    ("power", "repro.power.noc_power", "compute_noc_power"),
    ("power", "repro.power.soc_power", "compute_soc_power"),
    ("sim", "repro.sim.zero_load", "evaluate_latency"),
    ("arch", "repro.arch.validate", "validate_topology"),
    ("cache.get", "repro.cache.store", "CacheStore.get_object"),
    ("cache.put", "repro.cache.store", "CacheStore.put_object"),
    ("cache.keys", "repro.cache.keys", "design_space_key"),
    ("cache.keys", "repro.cache.keys", "vcg_key"),
    ("cache.keys", "repro.cache.keys", "partition_key"),
    ("cache.keys", "repro.cache.keys", "allocation_context_key"),
    ("cache.keys", "repro.cache.keys", "allocation_base_key"),
    ("cache.keys", "repro.cache.keys", "allocation_key"),
    ("cache.signatures", "repro.cache.signatures", "design_space_signature"),
    ("cache.signatures", "repro.cache.signatures", "allocation_signature"),
    ("cache.signatures", "repro.cache.signatures", "partition_signature"),
    ("runtime", "repro.runtime.simulate", "simulate_trace"),
    ("resilience", "repro.resilience.spare_paths", "protect_design_point"),
    ("control", "repro.control.controller", "ReconfigurationController.run"),
    ("obs", "repro.obs.export", "chrome_trace_json"),
)

#: Every reported layer, in report order.  ``import`` is timed by the
#: CLI shim around ``import repro.cli``; the rest come from TARGETS.
LAYERS: Tuple[str, ...] = ("import",) + tuple(
    dict.fromkeys(layer for layer, _, _ in TARGETS)
)
#: The pseudo-layer of host-speed probe spans.
PROBE = "probe"

#: Layers whose return value carries a success flag.
_OUTCOMES: Dict[str, Callable[[object], bool]] = {
    "core.paths": lambda result: bool(getattr(result, "success", False)),
}


class LayerTracer:
    """Wraps the layer targets once; records spans while ``enabled``."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self.probes: List[list] = []
        self._stack: List[int] = []
        #: Targets that could not be found (renamed or deleted code):
        #: their layer then reports zero calls instead of failing the run.
        self.missing: List[str] = []

    def install(self) -> "LayerTracer":
        for layer, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *owner_path, name = attr.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name] if owner_path else getattr(owner, name)
            except (ImportError, AttributeError, KeyError):
                self.missing.append("%s:%s" % (module_name, attr))
                continue
            wrapped = self._wrap(layer, original)
            if owner_path:
                setattr(owner, name, wrapped)
            else:
                _rebind(original, wrapped)
        return self

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        outcome = _OUTCOMES.get(layer)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            record = [layer, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    record[4] = outcome(result)
                return result
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def call(self, layer: str, fn: Callable, *args):
        """``fn(*args)`` as one span of ``layer`` (the CLI shim's ``import``)."""
        return self._wrap(layer, fn)(*args)

    def add_probe(self, start: float, end: float) -> None:
        """Record a host-speed probe as a child of the innermost open span."""
        self.probes.append([PROBE, start, end, self._stack[-1] if self._stack else -1, None])

    def drain(self) -> List[list]:
        """The spans recorded so far, probes last; the tracer starts empty again."""
        out = self.spans + self.probes
        self.spans.clear()
        self.probes.clear()
        return out


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``wrapped``.

    Modules import layer functions by name (``from .partition import
    partition_graph``), so patching the defining module alone would
    miss the calls that matter.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped


def layer_stats(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``self_s`` and ``ok`` (successful outcomes)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: Dict[str, Dict[str, float]] = {
        layer: {"calls": 0, "self_s": 0.0, "ok": 0} for layer in LAYERS
    }
    for i, (layer, start, end, _, ok) in enumerate(spans):
        if layer == PROBE:
            continue
        entry = stats[layer]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[i]
        if ok:
            entry["ok"] += 1
    return stats


def probe_s(spans: Sequence[Sequence]) -> float:
    """Total time of the probe spans."""
    return sum(end - start for layer, start, end, _, _ in spans if layer == PROBE)


def scale_stats(stats: Dict[str, Dict[str, float]], factor: float) -> Dict[str, Dict[str, float]]:
    """``stats`` with every ``self_s`` times ``factor`` (a pass's host-speed scale)."""
    return {layer: dict(entry, self_s=entry["self_s"] * factor) for layer, entry in stats.items()}


def merge_stats(parts: Sequence[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    """Sum per-layer stats of several processes (one CLI session)."""
    total: Dict[str, Dict[str, float]] = {}
    for part in parts:
        for layer, entry in part.items():
            acc = total.setdefault(layer, {"calls": 0, "self_s": 0.0, "ok": 0})
            for key, value in entry.items():
                acc[key] += value
    return total


def program_recorder() -> Optional[Callable]:
    """``repro.perf.recording`` if the program still has it, else ``None``."""
    try:
        from repro.perf import recording  # type: ignore[import-not-found]
    except ImportError:
        return None
    return recording
