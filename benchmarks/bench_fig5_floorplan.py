"""Figure 5 — floorplan of the synthesized design.

The paper's Figure 5 shows the placed SoC: contiguous island regions,
cores inside their islands, NoC switches inserted among the cores they
serve.  This bench regenerates the floorplan for the same design point
as Figure 4, renders it (ASCII for the log, SVG on disk) and asserts
the geometric invariants the figure depicts.
"""

from __future__ import annotations

from _bench_utils import write_result
from repro.io.floorplan_art import floorplan_to_ascii, floorplan_to_svg
from repro.io.report import format_table


def _floorplan_rows(point):
    fp = point.floorplan
    rows = []
    for isl, rect in sorted(fp.island_rects.items()):
        rows.append(
            {
                "island": "mid" if isl == -1 else isl,
                "x_mm": rect.x,
                "y_mm": rect.y,
                "w_mm": rect.w,
                "h_mm": rect.h,
                "area_mm2": rect.area,
            }
        )
    return rows


def test_fig5_floorplan_example(benchmark, island_sweep):
    point = island_sweep[(6, "logical")]
    rows = benchmark.pedantic(_floorplan_rows, args=(point,), rounds=1, iterations=1)
    fp = point.floorplan

    table = format_table(
        rows,
        title="Figure 5: floorplan, 6-VI logical partitioning (die %.2f x %.2f mm)"
        % (fp.chip.w, fp.chip.h),
    )
    wires = point.wires
    table += (
        "\nwire length: %.1f mm total (%.1f NI, %.1f intra-island, %.1f cross-island)\n"
        % (
            wires.total_length_mm,
            wires.ni_length_mm,
            wires.intra_island_length_mm,
            wires.cross_island_length_mm,
        )
    )
    table += floorplan_to_ascii(fp, point.topology)
    print("\n" + table)
    path = write_result("fig5_floorplan", table, rows)
    with open(path.replace(".txt", ".svg"), "w") as f:
        f.write(floorplan_to_svg(fp, point.topology))

    # Geometric invariants of the paper's figure:
    spec = point.topology.spec
    for core in spec.core_names:
        isl = spec.island_of(core)
        assert fp.island_rects[isl].contains_rect(fp.core_rects[core], tol=1e-6)
    for sid, sw in point.topology.switches.items():
        assert fp.island_rects[sw.island].contains(fp.switch_pos[sid])
    # Island regions tile the die without overlap.
    regions = sorted(fp.island_rects.items())
    for i, (_, a) in enumerate(regions):
        for _, b in regions[i + 1:]:
            assert not a.overlaps(b, tol=1e-9)
    # Wire budget: no timing violations in the chosen design point.
    assert point.wires.clean
