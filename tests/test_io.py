"""I/O: JSON export, DOT export, floorplan art, report tables."""

import dataclasses
import json

from repro.io.dot import save_dot, topology_to_dot
from repro.io.floorplan_art import (
    floorplan_to_ascii,
    floorplan_to_svg,
    save_floorplan_svg,
)
from repro.io.json_io import (
    design_point_summary,
    save_topology,
    spec_to_dict,
    topology_to_dict,
)
from repro.io.report import format_table, percent, rows_to_csv, save_csv


def json_round_trip(data):
    """``data`` as a reader of its JSON text gets it back."""
    return json.loads(json.dumps(data))


def assert_holds_spec(data, spec):
    """``data`` holds the spec's name, every field of every core and flow,
    in spec order, and its island assignment."""
    assert data["name"] == spec.name
    assert data["cores"] == [dataclasses.asdict(c) for c in spec.cores]
    assert data["flows"] == [dataclasses.asdict(f) for f in spec.flows]
    assert data["vi_assignment"] == spec.vi_assignment


def assert_holds_components(entries, components):
    """One entry per component, in id order, holding each of its fields."""
    assert [e["id"] for e in entries] == sorted(components)
    for entry in entries:
        component = components[entry["id"]]
        assert entry == {
            f.name: json_round_trip(getattr(component, f.name))
            for f in dataclasses.fields(component)
        }


class TestSpecJson:
    def test_roundtrip_equality(self, tiny_spec):
        assert_holds_spec(json_round_trip(spec_to_dict(tiny_spec)), tiny_spec)

    def test_roundtrip_d26(self, d26):
        assert_holds_spec(json_round_trip(spec_to_dict(d26)), d26)

    def test_json_serializable(self, tiny_spec):
        json.dumps(spec_to_dict(tiny_spec))


class TestTopologyJson:
    def test_roundtrip_preserves_structure(self, d26_best):
        """The export's JSON text holds the spec, the island clocks, every
        switch, NI and link field (a link's flow charges and capacity
        among them) and each route's links."""
        topo = d26_best.topology
        data = json_round_trip(topology_to_dict(topo))
        assert_holds_spec(data["spec"], topo.spec)
        assert data["island_freqs"] == {str(k): v for k, v in topo.island_freqs.items()}
        assert_holds_components(data["switches"], topo.switches)
        assert_holds_components(data["nis"], topo.nis)
        assert_holds_components(data["links"], topo.links)
        assert any(link["flows"] for link in data["links"])
        assert data["core_switch"] == topo.core_switch
        assert data["routes"] == {
            "%s->%s" % key: list(route.links) for key, route in topo.routes.items()
        }

    def test_file_roundtrip(self, tiny_best, tmp_path):
        """``save_topology`` writes the JSON text of exactly
        ``topology_to_dict``'s dict."""
        path = tmp_path / "topo.json"
        save_topology(tiny_best.topology, str(path))
        expected = json.dumps(topology_to_dict(tiny_best.topology), indent=2, sort_keys=True)
        assert path.read_text() == expected

    def test_design_point_summary_fields(self, tiny_best):
        s = design_point_summary(tiny_best)
        for field in (
            "label",
            "noc_dynamic_power_mw",
            "avg_latency_cycles",
            "noc_area_mm2",
        ):
            assert field in s
        json.dumps(s)


class TestDot:
    def test_contains_clusters_and_edges(self, tiny_best):
        dot = topology_to_dot(tiny_best.topology)
        assert dot.startswith("digraph")
        assert "cluster_isl0" in dot and "cluster_isl1" in dot
        for sw in tiny_best.topology.switches:
            assert sw in dot
        for core in tiny_best.topology.spec.core_names:
            assert core in dot

    def test_converter_links_dashed(self, tiny_best):
        dot = topology_to_dot(tiny_best.topology)
        assert "dashed" in dot  # tiny spec has cross-island links

    def test_with_nis(self, tiny_best):
        dot = topology_to_dot(tiny_best.topology, include_nis=True)
        assert 'label="NI"' in dot

    def test_save(self, tiny_best, tmp_path):
        path = str(tmp_path / "t.dot")
        save_dot(tiny_best.topology, path)
        with open(path) as f:
            assert f.read().startswith("digraph")

    def test_balanced_braces(self, d26_best):
        dot = topology_to_dot(d26_best.topology)
        assert dot.count("{") == dot.count("}")


class TestFloorplanArt:
    def test_ascii_has_frame_and_legend(self, tiny_best):
        art = floorplan_to_ascii(tiny_best.floorplan, tiny_best.topology)
        lines = art.splitlines()
        assert lines[0].startswith("+")
        assert "die" in art
        assert "*" in art  # switches marked

    def test_svg_well_formed(self, tiny_best):
        svg = floorplan_to_svg(tiny_best.floorplan, tiny_best.topology)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= len(tiny_best.floorplan.core_rects)
        assert "<circle" in svg  # switch markers

    def test_svg_save(self, tiny_best, tmp_path):
        path = str(tmp_path / "f.svg")
        save_floorplan_svg(tiny_best.floorplan, path, tiny_best.topology)
        with open(path) as f:
            assert "</svg>" in f.read()

    def test_ascii_without_topology(self, tiny_best):
        art = floorplan_to_ascii(tiny_best.floorplan)
        assert "die" in art


class TestReport:
    def test_format_table_alignment(self):
        rows = [
            {"name": "a", "value": 1.5},
            {"name": "longer", "value": 22.25},
        ]
        out = format_table(rows, title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_selection(self):
        rows = [{"a": 1, "b": 2}]
        out = format_table(rows, columns=["b"])
        assert "a" not in out.splitlines()[0]

    def test_bool_formatting(self):
        out = format_table([{"ok": True}, {"ok": False}])
        assert "yes" in out and "no" in out

    def test_csv_roundtrip(self, tmp_path):
        rows = [{"x": 1, "y": "two"}, {"x": 3, "y": "four"}]
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == "x,y"
        path = str(tmp_path / "r.csv")
        save_csv(rows, path)
        with open(path) as f:
            assert f.read() == text

    def test_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_percent(self):
        assert percent(0.0312) == "3.1%"
