"""Floorplan rendering: ASCII art and SVG (Figure 5).

The paper's Figure 5 shows the placed design: island regions tiling
the die, cores inside their islands, switches sitting among the cores
they serve.  :func:`floorplan_to_ascii` gives a terminal-friendly
rendering for reports and benches; :func:`floorplan_to_svg` produces a
standalone vector image without any plotting dependency.
"""

from __future__ import annotations

from typing import List, Optional

from ..arch.topology import INTERMEDIATE_ISLAND, Topology
from ..floorplan.placer import Floorplan

_SVG_COLORS = (
    "#cfe2f3", "#d9ead3", "#fff2cc", "#f4cccc", "#d9d2e9",
    "#fce5cd", "#d0e0e3", "#ead1dc", "#e6b8af", "#c9daf8",
)


def floorplan_to_ascii(floorplan: Floorplan, topology: Optional[Topology] = None) -> str:
    """Render the floorplan as a character grid, 72 columns wide.

    Each core cell is drawn with the first letters of its name; island
    boundaries appear as changes in background character; switches are
    marked ``*``.  A legend follows the grid.
    """
    width = 72
    chip = floorplan.chip
    height = max(10, int(width * chip.h / chip.w * 0.5))  # chars are ~2:1
    grid = [[" " for _ in range(width)] for _ in range(height)]

    def to_col(x: float) -> int:
        return min(width - 1, max(0, int(x / chip.w * width)))

    def to_row(y: float) -> int:
        # y grows upward; rows grow downward.
        return min(height - 1, max(0, height - 1 - int(y / chip.h * height)))

    shades = ".,:;~-+=o"
    for isl, rect in sorted(floorplan.island_rects.items()):
        shade = "#" if isl == INTERMEDIATE_ISLAND else shades[isl % len(shades)]
        for r in range(to_row(rect.y2), to_row(rect.y) + 1):
            for c in range(to_col(rect.x), to_col(rect.x2) + 1):
                grid[r][c] = shade

    labels: List[str] = []
    for i, (core, rect) in enumerate(sorted(floorplan.core_rects.items())):
        tag = core[:4]
        center = rect.center
        r, c = to_row(center.y), to_col(center.x)
        for j, ch in enumerate(tag):
            if c + j < width:
                grid[r][c + j] = ch
        labels.append("%-10s" % core)

    if topology is not None:
        for sid in sorted(floorplan.switch_pos):
            p = floorplan.switch_pos[sid]
            grid[to_row(p.y)][to_col(p.x)] = "*"

    out = ["+" + "-" * width + "+"]
    for row in grid:
        out.append("|" + "".join(row) + "|")
    out.append("+" + "-" * width + "+")
    out.append("die %.2f x %.2f mm; '*' = switch; islands shaded differently" % (chip.w, chip.h))
    return "\n".join(out) + "\n"


def floorplan_to_svg(floorplan: Floorplan, topology: Optional[Topology] = None) -> str:
    """Render the floorplan as a standalone SVG document string, at
    80 pixels per mm."""
    scale_px_per_mm = 80.0
    chip = floorplan.chip
    W = chip.w * scale_px_per_mm
    H = chip.h * scale_px_per_mm

    def X(x: float) -> float:
        return x * scale_px_per_mm

    def Y(y: float) -> float:
        return H - y * scale_px_per_mm  # SVG y is top-down

    parts: List[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="0 0 %.0f %.0f">' % (W, H, W, H)
    )
    parts.append(
        '<rect x="0" y="0" width="%.0f" height="%.0f" fill="white" stroke="black"/>' % (W, H)
    )
    for isl, rect in sorted(floorplan.island_rects.items()):
        color = "#eeeeee" if isl == INTERMEDIATE_ISLAND else _SVG_COLORS[isl % len(_SVG_COLORS)]
        parts.append(
            '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s" '
            'stroke="#333" stroke-width="2"/>'
            % (X(rect.x), Y(rect.y2), rect.w * scale_px_per_mm, rect.h * scale_px_per_mm, color)
        )
        label = "mid" if isl == INTERMEDIATE_ISLAND else "VI%d" % isl
        parts.append(
            '<text x="%.1f" y="%.1f" font-size="13" fill="#333">%s</text>'
            % (X(rect.x) + 3, Y(rect.y2) + 14, label)
        )
    for core, rect in sorted(floorplan.core_rects.items()):
        parts.append(
            '<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" '
            'stroke="#666" stroke-width="1"/>'
            % (X(rect.x), Y(rect.y2), rect.w * scale_px_per_mm, rect.h * scale_px_per_mm)
        )
        c = rect.center
        parts.append(
            '<text x="%.1f" y="%.1f" font-size="10" text-anchor="middle" '
            'fill="#222">%s</text>' % (X(c.x), Y(c.y) + 3, core)
        )
    if topology is not None:
        # Draw sw2sw links under the switch markers.
        for link in topology.sw_links():
            a = floorplan.position_of(link.src)
            b = floorplan.position_of(link.dst)
            dash = ' stroke-dasharray="6,4"' if link.converter else ""
            parts.append(
                '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#b00" '
                'stroke-width="1.5"%s/>' % (X(a.x), Y(a.y), X(b.x), Y(b.y), dash)
            )
        for sid, p in sorted(floorplan.switch_pos.items()):
            parts.append(
                '<circle cx="%.1f" cy="%.1f" r="6" fill="#b00" stroke="black"/>'
                % (X(p.x), Y(p.y))
            )
            parts.append(
                '<text x="%.1f" y="%.1f" font-size="9" fill="#b00">%s</text>'
                % (X(p.x) + 8, Y(p.y) + 3, sid)
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_floorplan_svg(
    floorplan: Floorplan, path: str, topology: Optional[Topology] = None
) -> None:
    """Write the SVG rendering to a file."""
    with open(path, "w") as f:
        f.write(floorplan_to_svg(floorplan, topology))
