"""Floorplanning: geometry, slicing, placement, wires."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import FloorplanError, place
from repro.floorplan.geometry import Point, Rect
from repro.floorplan.islands import chip_rect, slice_regions
from repro.floorplan.placer import FloorplanConfig
from repro.floorplan.wires import assign_wire_lengths
from repro.arch.topology import INTERMEDIATE_ISLAND


class TestGeometry:
    def test_manhattan(self):
        assert Point(0, 0).manhattan(Point(3, 4)) == 7.0

    def test_rect_properties(self):
        r = Rect(1, 2, 4, 6)
        assert r.area == 24.0
        assert r.center == Point(3.0, 5.0)
        assert r.x2 == 5.0 and r.y2 == 8.0

    def test_contains(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains(Point(1, 1))
        assert r.contains(Point(2, 2))  # border counts
        assert not r.contains(Point(3, 1))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 3, 3))
        assert not outer.contains_rect(Rect(8, 8, 5, 5))

    def test_overlaps(self):
        a = Rect(0, 0, 2, 2)
        assert a.overlaps(Rect(1, 1, 2, 2))
        assert not a.overlaps(Rect(2, 0, 2, 2))  # touching edges: no

    def test_clamp(self):
        r = Rect(0, 0, 2, 2)
        assert r.clamp(Point(5, -1)) == Point(2, 0)
        assert r.clamp(Point(1, 1)) == Point(1, 1)

    def test_splits(self):
        r = Rect(0, 0, 4, 2)
        left, right = r.split_vertical(0.25)
        assert left.w == 1.0 and right.w == 3.0
        bottom, top = r.split_horizontal(0.5)
        assert bottom.h == 1.0 and top.h == 1.0

    def test_split_fraction_bounds(self):
        with pytest.raises(FloorplanError):
            Rect(0, 0, 1, 1).split_vertical(0.0)
        with pytest.raises(FloorplanError):
            Rect(0, 0, 1, 1).split_horizontal(1.0)

    def test_negative_extent_rejected(self):
        with pytest.raises(FloorplanError):
            Rect(0, 0, -1, 1)


class TestSlicing:
    def test_two_equal_regions(self):
        rects = slice_regions(Rect(0, 0, 2, 2), [("a", 1.0), ("b", 1.0)])
        assert rects["a"].area == pytest.approx(2.0)
        assert rects["b"].area == pytest.approx(2.0)

    def test_areas_proportional(self):
        rects = slice_regions(Rect(0, 0, 4, 3), [("a", 3.0), ("b", 1.0)])
        assert rects["a"].area == pytest.approx(9.0)
        assert rects["b"].area == pytest.approx(3.0)

    def test_rejects_empty(self):
        with pytest.raises(FloorplanError):
            slice_regions(Rect(0, 0, 1, 1), [])

    def test_rejects_nonpositive_area(self):
        with pytest.raises(FloorplanError):
            slice_regions(Rect(0, 0, 1, 1), [("a", 0.0)])

    @given(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=12
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_tiling_properties(self, areas):
        entries = [("r%d" % i, a) for i, a in enumerate(areas)]
        outer = Rect(0.0, 0.0, 10.0, 8.0)
        rects = slice_regions(outer, entries)
        # exact cover: total area preserved
        assert sum(r.area for r in rects.values()) == pytest.approx(outer.area)
        # all inside the outer rect
        for r in rects.values():
            assert outer.contains_rect(r, tol=1e-6)
        # pairwise disjoint interiors
        items = sorted(rects.items())
        for i, (_, a) in enumerate(items):
            for _, b in items[i + 1:]:
                assert not a.overlaps(b, tol=1e-9)

    def test_chip_rect_area_and_aspect(self):
        r = chip_rect(100.0, whitespace_fraction=0.2, aspect=2.0)
        assert r.area == pytest.approx(120.0)
        assert r.w / r.h == pytest.approx(2.0)

    def test_chip_rect_rejects_bad_input(self):
        with pytest.raises(FloorplanError):
            chip_rect(0.0)
        with pytest.raises(FloorplanError):
            chip_rect(10.0, whitespace_fraction=-0.1)
        with pytest.raises(FloorplanError):
            chip_rect(10.0, aspect=0.0)


class TestPlacer:
    def test_every_core_placed_inside_its_island(self, tiny_best, tiny_spec):
        fp = tiny_best.floorplan
        for core in tiny_spec.core_names:
            isl = tiny_spec.island_of(core)
            assert fp.island_rects[isl].contains_rect(fp.core_rects[core], tol=1e-6)

    def test_core_areas_preserved_up_to_margin(self, tiny_best, tiny_spec):
        fp = tiny_best.floorplan
        for core in tiny_spec.core_names:
            spec_area = tiny_spec.core(core).area_mm2
            placed = fp.core_rects[core].area
            assert placed >= spec_area * 0.999  # margin only inflates

    def test_switches_inside_their_island(self, tiny_best):
        fp = tiny_best.floorplan
        topo = tiny_best.topology
        for sid, sw in topo.switches.items():
            assert fp.island_rects[sw.island].contains(fp.switch_pos[sid])

    def test_ni_positions_at_core_centers(self, tiny_best):
        fp = tiny_best.floorplan
        topo = tiny_best.topology
        for nid, ni in topo.nis.items():
            assert fp.ni_pos[nid] == fp.core_rects[ni.core].center

    def test_position_of_unknown_raises(self, tiny_best):
        with pytest.raises(FloorplanError):
            tiny_best.floorplan.position_of("ghost")

    def test_intermediate_island_gets_region(self, d26_space):
        with_mid = [p for p in d26_space if p.num_intermediate_used > 0]
        for p in with_mid[:2]:
            assert INTERMEDIATE_ISLAND in p.floorplan.island_rects

    def test_custom_config_whitespace(self, tiny_best):
        fat = place(tiny_best.topology, FloorplanConfig(whitespace_fraction=1.0))
        slim = place(tiny_best.topology, FloorplanConfig(whitespace_fraction=0.0))
        assert fat.chip.area > slim.chip.area


class TestWires:
    def test_lengths_assigned_to_all_links(self, tiny_best):
        topo = tiny_best.topology
        # synthesis already assigned lengths; re-assign and check
        report = assign_wire_lengths(topo, tiny_best.floorplan)
        for link in topo.links.values():
            assert link.length_mm >= 0.0
        assert report.total_length_mm > 0.0

    def test_report_partitions_lengths(self, tiny_best):
        report = assign_wire_lengths(tiny_best.topology, tiny_best.floorplan)
        total = (
            report.ni_length_mm
            + report.intra_island_length_mm
            + report.cross_island_length_mm
        )
        assert total == pytest.approx(report.total_length_mm)

    def test_lengths_bounded_by_die(self, tiny_best):
        fp = tiny_best.floorplan
        half_perimeter = fp.chip.w + fp.chip.h
        for link in tiny_best.topology.links.values():
            assert link.length_mm <= half_perimeter
