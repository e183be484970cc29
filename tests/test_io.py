"""I/O: JSON round-trips, DOT export, floorplan art, report tables."""

import json

import pytest

from repro import evaluate_latency, compute_noc_power
from repro.io.dot import save_dot, topology_to_dot
from repro.io.floorplan_art import (
    floorplan_to_ascii,
    floorplan_to_svg,
    save_floorplan_svg,
)
from repro.io.json_io import (
    design_point_summary,
    load_spec,
    load_topology,
    save_spec,
    save_topology,
    spec_from_dict,
    spec_to_dict,
    topology_from_dict,
    topology_to_dict,
)
from repro.exceptions import ValidationError
from repro.io.report import format_table, percent, rows_to_csv, save_csv


class TestSpecJson:
    def test_roundtrip_equality(self, tiny_spec):
        back = spec_from_dict(spec_to_dict(tiny_spec))
        assert back == tiny_spec

    def test_roundtrip_d26(self, d26):
        back = spec_from_dict(spec_to_dict(d26))
        assert back == d26

    def test_file_roundtrip(self, tiny_spec, tmp_path):
        path = str(tmp_path / "spec.json")
        save_spec(tiny_spec, path)
        assert load_spec(path) == tiny_spec

    def test_missing_field_raises(self):
        from repro.exceptions import SpecError

        with pytest.raises(SpecError):
            spec_from_dict({"name": "x"})

    def test_json_serializable(self, tiny_spec):
        json.dumps(spec_to_dict(tiny_spec))

    def test_nan_literal_rejected(self, tiny_spec, tmp_path):
        from repro.exceptions import SpecError

        data = spec_to_dict(tiny_spec)
        data["cores"][0]["area_mm2"] = float("nan")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data))
        assert '"area_mm2": NaN' in path.read_text()
        with pytest.raises(SpecError, match="area"):
            load_spec(str(path))


class TestTopologyJson:
    def test_roundtrip_preserves_structure(self, tiny_best):
        topo = tiny_best.topology
        back = topology_from_dict(topology_to_dict(topo), topo.library)
        assert set(back.switches) == set(topo.switches)
        assert set(back.links) == set(topo.links)
        assert set(back.routes) == set(topo.routes)
        for key in topo.routes:
            assert back.routes[key].links == topo.routes[key].links

    def test_roundtrip_preserves_metrics(self, tiny_best):
        topo = tiny_best.topology
        back = topology_from_dict(topology_to_dict(topo), topo.library)
        assert compute_noc_power(back).dynamic_mw == pytest.approx(
            compute_noc_power(topo).dynamic_mw
        )
        assert evaluate_latency(back).average_cycles == pytest.approx(
            evaluate_latency(topo).average_cycles
        )

    def test_roundtrip_validates(self, tiny_best):
        from repro import validate_topology

        topo = tiny_best.topology
        back = topology_from_dict(topology_to_dict(topo), topo.library)
        validate_topology(back)

    def test_file_roundtrip(self, tiny_best, tmp_path):
        path = str(tmp_path / "topo.json")
        save_topology(tiny_best.topology, path)
        back = load_topology(path, tiny_best.topology.library)
        assert set(back.routes) == set(tiny_best.topology.routes)

    def test_file_roundtrip_shares_flow_keys_and_charges(self, d26_best, tmp_path):
        """A loaded topology holds its spec's flow keys and charges, one
        of each per flow, as a synthesized one does."""
        topo = d26_best.topology
        path = str(tmp_path / "topo.json")
        save_topology(topo, path)
        back = load_topology(path, topo.library)
        charges = {f.key: f.charge for f in back.spec.flows}
        for link in back.links.values():
            assert all(charge is charges[charge[0]] for charge in link.flows)
        for key, route in back.routes.items():
            assert route.flow is key is charges[key][0]
        assert len({id(c) for l in back.links.values() for c in l.flows}) == len(charges)
        assert list(back.links.values()) == list(topo.links.values())
        assert back.routes == topo.routes

    def test_charge_off_its_flow_bandwidth_is_rejected(self, tiny_best):
        data = topology_to_dict(tiny_best.topology)
        link = next(l for l in data["links"] if l["flows"])
        link["flows"][0][1] += 1.0
        with pytest.raises(ValidationError, match="differs from its flow"):
            topology_from_dict(data, tiny_best.topology.library)

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
