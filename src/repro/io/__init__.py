"""Serialization and rendering.

Modules: JSON export (`json_io`), Graphviz DOT topologies (`dot`),
floorplan ASCII/SVG (`floorplan_art`), structural Verilog netlists
(`netlist`) and text/CSV tables (`report`).
"""
