"""Graphviz DOT export of synthesized topologies (Figure 4).

The paper's Figure 4 shows the synthesized topology for the 6-island
logical partitioning: cores hanging off island switches, converters on
the island crossings.  :func:`topology_to_dot` renders any topology the
same way — islands become DOT clusters, NIs/cores become boxes,
switches ellipses, and cross-island links are drawn dashed with the
converter annotation.
"""

from __future__ import annotations

from typing import List

from ..arch.topology import INTERMEDIATE_ISLAND, Topology

#: Pastel fill colours cycled per island cluster.
_ISLAND_COLORS = (
    "#cfe2f3", "#d9ead3", "#fff2cc", "#f4cccc", "#d9d2e9",
    "#fce5cd", "#d0e0e3", "#ead1dc", "#e6b8af", "#c9daf8",
)


def _island_color(island: int) -> str:
    if island == INTERMEDIATE_ISLAND:
        return "#eeeeee"
    return _ISLAND_COLORS[island % len(_ISLAND_COLORS)]


def _island_label(island: int) -> str:
    if island == INTERMEDIATE_ISLAND:
        return "intermediate NoC VI (never gated)"
    return "VI %d" % island


def topology_to_dot(topology: Topology) -> str:
    """Render the topology as a DOT digraph string.

    Cores connect straight to their switch, NIs implied, which matches
    the paper's figure style.
    """
    spec = topology.spec
    lines: List[str] = []
    lines.append("digraph %s {" % _dot_id(spec.name))
    lines.append("  rankdir=LR;")
    lines.append('  node [fontname="Helvetica", fontsize=10];')
    lines.append('  edge [fontname="Helvetica", fontsize=8];')

    islands = sorted({s.island for s in topology.switches.values()})
    for isl in islands:
        lines.append("  subgraph cluster_isl%s {" % str(isl).replace("-", "m"))
        lines.append('    label="%s";' % _island_label(isl))
        lines.append('    style=filled; color="%s";' % _island_color(isl))
        freq = topology.island_freqs.get(isl)
        if freq:
            lines.append('    fontsize=11; tooltip="%.0f MHz";' % freq)
        for sw in topology.island_switches(isl):
            lines.append(
                '    %s [shape=ellipse, style=filled, fillcolor=white, '
                'label="%s\\n%dx%d @ %.0fMHz"];'
                % (_dot_id(sw.id), sw.id, sw.n_in, sw.n_out, sw.freq_mhz)
            )
        if isl != INTERMEDIATE_ISLAND:
            for core in spec.cores_in_island(isl):
                lines.append(
                    '    %s [shape=box, style=filled, fillcolor=white, label="%s"];'
                    % (_dot_id("core_" + core), core)
                )
        lines.append("  }")

    # Core attachments.
    for core, sw_id in sorted(topology.core_switch.items()):
        lines.append(
            "  %s -> %s [dir=both, arrowsize=0.6];" % (_dot_id("core_" + core), _dot_id(sw_id))
        )

    # Switch-to-switch links (merge antiparallel pairs into dir=both).
    drawn = set()
    for link in sorted(topology.sw_links(), key=lambda l: l.id):
        key = tuple(sorted((link.src, link.dst)))
        reverse = topology.links_between(link.dst, link.src)
        both = bool(reverse)
        if both and key in drawn:
            continue
        drawn.add(key)
        style = "dashed" if link.converter else "solid"
        label = "conv" if link.converter else ""
        lines.append(
            '  %s -> %s [style=%s, dir=%s, label="%s", penwidth=%.1f];'
            % (
                _dot_id(link.src),
                _dot_id(link.dst),
                style,
                "both" if both else "forward",
                label,
                1.0 + 2.0 * min(link.utilization, 1.0),
            )
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_dot(topology: Topology, path: str) -> None:
    """Write the DOT rendering to a file."""
    with open(path, "w") as f:
        f.write(topology_to_dot(topology))


def _dot_id(name: str) -> str:
    """A safe DOT identifier for any component name."""
    return '"%s"' % name.replace('"', "'")
