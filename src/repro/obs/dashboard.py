"""Terminal (and static-HTML) dashboard over a traced, controlled run.

Four panels, each a pure function from observability data to lines of
text so they compose into the CLI, the example tour, and tests alike:

* :func:`phase_breakdown_lines` — flamegraph-style span tree with
  per-path call counts, total seconds and proportional bars;
* :func:`recovery_timeline_lines` — the controller's staged
  fault -> detected -> installed -> restored repair per scenario;
* :func:`island_gantt_lines` — one row per island, the trace window
  rendered as ON ``#`` / WAKING ``~`` / OFF ``.`` cells;
* :func:`counter_lines` — top-N counters from the metrics registry
  (the recorder's projection is ``perf.counters.*``).

:func:`render_dashboard` stitches the panels into one report;
:func:`render_html` wraps the same text in a minimal self-contained
page (monospace ``<pre>`` blocks, no external assets) for ``--html``.
"""

from __future__ import annotations

import html as _html
import math
from typing import List, Optional, Tuple

from ..perf.instrument import Recorder
from .metrics import MetricsRegistry

#: Gantt cell glyphs per island state (ASCII so every terminal works).
_STATE_GLYPH = {"on": "#", "waking": "~", "off": "."}


def _bar(fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "-" * (width - filled)


# ----------------------------------------------------------------------
# Panel 1: phase breakdown (span flamegraph, folded)
# ----------------------------------------------------------------------


def phase_breakdown_lines(
    recorder: Recorder, width: int = 28, max_paths: int = 40
) -> List[str]:
    """Span totals as an indented tree with proportional time bars.

    Paths are folded (one row per distinct path, counts aggregated)
    and ordered depth-first by path so children sit under parents.
    Bars are scaled to the largest root total.
    """
    totals = recorder.totals_by_path()
    if not totals:
        return ["  (no spans recorded)"]
    scale = max(
        (t for p, (_, t) in totals.items() if "/" not in p),
        default=max(t for _, t in totals.values()),
    )
    scale = scale or 1.0
    lines = []
    shown = 0
    for path in sorted(totals):
        count, seconds = totals[path]
        if shown >= max_paths:
            lines.append("  ... %d more paths" % (len(totals) - shown))
            break
        depth = path.count("/")
        name = path.rsplit("/", 1)[-1]
        lines.append(
            "  %s%-*s %s %9.4fs x%-5d"
            % (
                "  " * depth,
                max(30 - 2 * depth, 8),
                name,
                _bar(seconds / scale, width),
                seconds,
                count,
            )
        )
        shown += 1
    return lines


# ----------------------------------------------------------------------
# Panel 2: controller recovery timeline
# ----------------------------------------------------------------------


def recovery_timeline_lines(report, width: int = 48) -> List[str]:
    """Per-fault staged-repair timelines from ``report.recoveries``.

    Each row places the stage markers ``F`` (fault raised), ``D``
    (detected), ``I`` (routing installed) and ``R`` (primaries
    restored) on a shared trace-time axis; the span between ``I`` and
    ``R`` — degraded service — is shaded ``=``.  An unrepaired fault
    runs degraded to the trace edge.
    """
    recoveries = getattr(report, "recoveries", ())
    if not recoveries:
        return ["  (no recoveries: run with a controller and fault events)"]
    total = getattr(report, "total_ms", 0.0) or max(
        (r.installed_ms for r in recoveries), default=1.0
    )

    def col(t_ms: float) -> int:
        if not math.isfinite(t_ms):
            return width - 1
        return min(int(t_ms / total * (width - 1)), width - 1)

    lines = [
        "  %-22s |%s|  detect  failover    flows"
        % ("scenario", "0 ms".ljust(width - len("%.0f ms" % total)) + "%.0f ms" % total)
    ]
    for rec in recoveries:
        axis = ["-"] * width
        i_col, r_col = col(rec.installed_ms), col(rec.restored_ms)
        for c in range(i_col, r_col + 1):
            axis[c] = "="
        axis[col(rec.fault_ms)] = "F"
        axis[col(rec.detected_ms)] = "D"
        axis[i_col] = "I"
        if math.isfinite(rec.restored_ms):
            axis[r_col] = "R"
        flows = "%d ok" % rec.recovered_flows
        if rec.lost_flows:
            flows += ", %d lost" % rec.lost_flows
        lines.append(
            "  %-22s |%s| %6.3fms %7.3fms  %s%s"
            % (
                rec.scenario[:22],
                "".join(axis),
                rec.detection_ms,
                rec.failover_ms,
                flows,
                "" if rec.deadlock_free and rec.restore_deadlock_free
                else "  [DEADLOCK AUDIT FAIL]",
            )
        )
    lines.append("  F fault  D detected  I installed  R restored  = degraded")
    return lines


# ----------------------------------------------------------------------
# Panel 3: island-state Gantt rows
# ----------------------------------------------------------------------


def island_gantt_lines(report, width: int = 60) -> List[str]:
    """One Gantt row per island from each ``IslandRuntime.timeline``.

    Cells sample the dominant state of each time bucket; islands
    without a recorded timeline fall back to a residency summary.
    """
    per_island = getattr(report, "per_island", {})
    if not per_island:
        return ["  (no islands simulated)"]
    total = getattr(report, "total_ms", 0.0)
    lines = []
    for isl in sorted(per_island):
        r = per_island[isl]
        timeline = getattr(r, "timeline", ())
        if not timeline or total <= 0:
            lines.append(
                "  island %-3d on %.1f ms / off %.1f ms / waking %.3f ms"
                % (isl, r.on_ms, r.off_ms, r.waking_ms)
            )
            continue
        cells = []
        for c in range(width):
            lo = c * total / width
            hi = (c + 1) * total / width
            best_state, best_overlap = "on", 0.0
            for iv in timeline:
                overlap = min(iv.end_ms, hi) - max(iv.start_ms, lo)
                if overlap > best_overlap:
                    best_overlap = overlap
                    best_state = str(iv.state)
            cells.append(_STATE_GLYPH.get(best_state, "?"))
        lines.append(
            "  island %-3d |%s| off %4.1f%%  %d gates"
            % (isl, "".join(cells), 100.0 * r.off_fraction, r.gate_events)
        )
    lines.append(
        "  %s on  %s waking  %s off"
        % (_STATE_GLYPH["on"], _STATE_GLYPH["waking"], _STATE_GLYPH["off"])
    )
    return lines


# ----------------------------------------------------------------------
# Panel 4: top-N counters
# ----------------------------------------------------------------------


def counter_lines(
    registry: MetricsRegistry, top: int = 10, width: int = 24
) -> List[str]:
    """The ``top`` largest unlabelled counter series, bar-scaled."""
    rows: List[Tuple[float, str]] = []
    for metric in registry:
        if metric.kind != "counter":
            continue
        for key, value in metric.samples.items():
            label = metric.name + (
                "{%s}" % ",".join("%s=%s" % kv for kv in key) if key else ""
            )
            rows.append((value, label))
    if not rows:
        return ["  (no counters recorded)"]
    rows.sort(key=lambda r: (-r[0], r[1]))
    scale = rows[0][0] or 1.0
    return [
        "  %-46s %s %14s"
        % (
            label[:46],
            _bar(value / scale, width),
            ("%.4f" % value).rstrip("0").rstrip("."),
        )
        for value, label in rows[:top]
    ]


# ----------------------------------------------------------------------
# Panel 5: cache effectiveness
# ----------------------------------------------------------------------


def cache_lines(registry: MetricsRegistry, width: int = 24) -> List[str]:
    """Per-tier cache hit rates from the ``cache.hit_rate`` gauge.

    Empty when the registry carries no hit-rate samples (no cache
    store was active), so the panel disappears rather than rendering
    zeros.  The ``overall`` row is hits over *all* lookups; tier rows
    share that denominator, so they sum to it.
    """
    gauge = registry.get("cache.hit_rate")
    if gauge is None or not gauge.samples:
        return []
    lines = []
    for key, value in sorted(gauge.samples.items()):
        tier = dict(key).get("tier", "?")
        lines.append(
            "  %-14s %s %6.1f%% hit rate"
            % (tier, _bar(value, width), 100.0 * value)
        )
    return lines


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------


def render_dashboard(
    recorder: Optional[Recorder] = None,
    registry: Optional[MetricsRegistry] = None,
    report=None,
    title: str = "observability dashboard",
    top: int = 10,
) -> str:
    """Stitch the available panels into one text report.

    Panels for data that was not supplied are omitted entirely, so the
    same renderer serves a synthesis-only trace and a full controlled
    replay.
    """
    sections: List[Tuple[str, List[str]]] = []
    if recorder is not None:
        sections.append(("phase breakdown (spans)", phase_breakdown_lines(recorder)))
    if report is not None:
        sections.append(("recovery timeline", recovery_timeline_lines(report)))
        sections.append(("island states", island_gantt_lines(report)))
    if registry is not None:
        sections.append(("top counters", counter_lines(registry, top=top)))
        cache = cache_lines(registry)
        if cache:
            sections.append(("cache hit rate", cache))
    rule = "=" * 78
    out = [rule, " %s" % title, rule]
    for heading, lines in sections:
        out.append("")
        out.append("-- %s %s" % (heading, "-" * max(72 - len(heading), 0)))
        out.extend(lines)
    out.append("")
    return "\n".join(out)


def render_html(
    recorder: Optional[Recorder] = None,
    registry: Optional[MetricsRegistry] = None,
    report=None,
    title: str = "observability dashboard",
    top: int = 10,
) -> str:
    """The dashboard as a self-contained static HTML page.

    Deliberately asset-free: one ``<pre>`` per panel with a dark
    monospace theme, so the file opens anywhere (CI artifacts, shared
    over plain HTTP) without a toolchain.
    """
    panels: List[Tuple[str, str]] = []
    if recorder is not None:
        panels.append(
            ("Phase breakdown", "\n".join(phase_breakdown_lines(recorder)))
        )
    if report is not None:
        panels.append(
            ("Recovery timeline", "\n".join(recovery_timeline_lines(report)))
        )
        panels.append(("Island states", "\n".join(island_gantt_lines(report))))
    if registry is not None:
        panels.append(
            ("Top counters", "\n".join(counter_lines(registry, top=top)))
        )
        cache = cache_lines(registry)
        if cache:
            panels.append(("Cache hit rate", "\n".join(cache)))
    body = "\n".join(
        "<section><h2>%s</h2><pre>%s</pre></section>"
        % (_html.escape(name), _html.escape(text))
        for name, text in panels
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        "<title>%s</title>\n<style>\n"
        "body{background:#111;color:#ddd;font-family:monospace;margin:2em}\n"
        "h1{color:#fff}h2{color:#8cf;border-bottom:1px solid #333}\n"
        "pre{background:#1a1a1a;padding:1em;overflow-x:auto}\n"
        "</style></head>\n<body>\n<h1>%s</h1>\n%s\n</body></html>\n"
        % (_html.escape(title), _html.escape(title), body)
    )
