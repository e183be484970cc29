"""Structural netlist export.

The paper's synthesis "can be plugged in our design flow presented in
[15] in order to generate fully implementable NoCs" — the hand-off
artifact is a structural netlist instantiating the library components
with the synthesized parameters.  This module emits that artifact:
:func:`topology_to_verilog` writes a structural Verilog module, one
instance per switch / NI / bi-synchronous FIFO and wires for every link,
parameterized by port counts and data width.  The leaf modules
(``noc_switch``, ``noc_ni``, ``noc_bisync_fifo``) are assumed to come
from the RTL library, exactly as ×pipesLite components would.

The output is deterministic (sorted instance order), so diffs between
synthesis runs are meaningful.
"""

from __future__ import annotations

from typing import List

from ..arch.topology import INTERMEDIATE_ISLAND, Topology


def _wire_name(link_id: int, src: str, dst: str) -> str:
    safe = lambda s: s.replace(".", "_")
    return "w%d_%s_to_%s" % (link_id, safe(src), safe(dst))


def _inst_name(comp_id: str) -> str:
    return "u_" + comp_id.replace(".", "_").replace("-", "m")


def topology_to_verilog(topology: Topology) -> str:
    """Structural Verilog instantiating the synthesized NoC.

    One flat module named after the spec; core-side NI ports are the
    module's external interface.  Leaf component modules are referenced,
    not defined — they come from the RTL library.
    """
    lib = topology.library
    W = lib.data_width_bits
    spec = topology.spec
    lines: List[str] = []
    lines.append("// Structural NoC netlist generated by repro (DAC'09 reproduction).")
    lines.append("// Design: %s — %s" % (spec.name, topology.summary()))
    lines.append("module noc_%s (" % spec.name.replace("-", "_"))
    ports: List[str] = ["  input  wire clk_ref", "  input  wire rst_n"]
    for isl, freq in sorted(topology.island_freqs.items()):
        tag = "mid" if isl == INTERMEDIATE_ISLAND else "vi%d" % isl
        ports.append("  input  wire clk_%s  // %.0f MHz island clock" % (tag, freq))
        if isl != INTERMEDIATE_ISLAND:
            ports.append("  input  wire pwr_en_%s  // island power-gate enable" % tag)
    for core in sorted(spec.core_names):
        c = core.replace("-", "_")
        ports.append("  input  wire [%d:0] %s_tx_data" % (W - 1, c))
        ports.append("  input  wire %s_tx_valid" % c)
        ports.append("  output wire %s_tx_ready" % c)
        ports.append("  output wire [%d:0] %s_rx_data" % (W - 1, c))
        ports.append("  output wire %s_rx_valid" % c)
        ports.append("  input  wire %s_rx_ready" % c)
    lines.append(",\n".join(ports))
    lines.append(");")
    lines.append("")

    # Internal wires, one bundle per link.
    lines.append("  // ---- link wires ------------------------------------")
    for link in sorted(topology.links.values(), key=lambda l: l.id):
        name = _wire_name(link.id, link.src, link.dst)
        lines.append("  wire [%d:0] %s_data;" % (W - 1, name))
        lines.append("  wire %s_valid, %s_ready;" % (name, name))
    lines.append("")

    # Bi-synchronous FIFOs on converter links.
    converters = [l for l in sorted(topology.links.values(), key=lambda l: l.id) if l.converter]
    if converters:
        lines.append("  // ---- voltage/frequency converters -------------------")
    for link in converters:
        name = _wire_name(link.id, link.src, link.dst)
        lines.append(
            "  noc_bisync_fifo #(.WIDTH(%d), .DEPTH(8)) %s_conv (" % (W, _inst_name(name))
        )
        lines.append("    .wr_clk(clk_%s), .rd_clk(clk_%s), .rst_n(rst_n),"
                     % (_clk_tag(link.src_island), _clk_tag(link.dst_island)))
        lines.append("    .in_data(%s_data), .in_valid(%s_valid), .in_ready(%s_ready),"
                     % (name, name, name))
        lines.append("    .out_data(), .out_valid(), .out_ready(1'b1));  // spliced by backend")
    lines.append("")

    # Switch instances.
    lines.append("  // ---- switches ---------------------------------------")
    for sw in sorted(topology.switches.values(), key=lambda s: s.id):
        ins = [l for l in topology.links.values() if l.dst == sw.id]
        outs = [l for l in topology.links.values() if l.src == sw.id]
        ins.sort(key=lambda l: l.id)
        outs.sort(key=lambda l: l.id)
        lines.append(
            "  noc_switch #(.WIDTH(%d), .N_IN(%d), .N_OUT(%d)) %s ("
            % (W, max(sw.n_in, 1), max(sw.n_out, 1), _inst_name(sw.id))
        )
        lines.append("    .clk(clk_%s), .rst_n(rst_n)," % _clk_tag(sw.island))
        for i, l in enumerate(ins):
            n = _wire_name(l.id, l.src, l.dst)
            lines.append(
                "    .in%d_data(%s_data), .in%d_valid(%s_valid), .in%d_ready(%s_ready)," % (i, n, i, n, i, n)
            )
        for i, l in enumerate(outs):
            n = _wire_name(l.id, l.src, l.dst)
            comma = "," if i < len(outs) - 1 else ""
            lines.append(
                "    .out%d_data(%s_data), .out%d_valid(%s_valid), .out%d_ready(%s_ready)%s" % (i, n, i, n, i, n, comma)
            )
        lines.append("  );")
    lines.append("")

    # NI instances bridging cores to their switch.
    lines.append("  // ---- network interfaces ------------------------------")
    for ni in sorted(topology.nis.values(), key=lambda n: n.id):
        c = ni.core.replace("-", "_")
        to_sw = topology.link_between(ni.id, topology.core_switch[ni.core])
        from_sw = topology.link_between(topology.core_switch[ni.core], ni.id)
        tx = _wire_name(to_sw.id, to_sw.src, to_sw.dst)
        rx = _wire_name(from_sw.id, from_sw.src, from_sw.dst)
        lines.append("  noc_ni #(.WIDTH(%d)) %s (" % (W, _inst_name(ni.id)))
        lines.append("    .clk(clk_%s), .core_clk(clk_ref), .rst_n(rst_n)," % _clk_tag(ni.island))
        lines.append("    .core_tx_data(%s_tx_data), .core_tx_valid(%s_tx_valid), .core_tx_ready(%s_tx_ready)," % (c, c, c))
        lines.append("    .core_rx_data(%s_rx_data), .core_rx_valid(%s_rx_valid), .core_rx_ready(%s_rx_ready)," % (c, c, c))
        lines.append("    .net_tx_data(%s_data), .net_tx_valid(%s_valid), .net_tx_ready(%s_ready)," % (tx, tx, tx))
        lines.append("    .net_rx_data(%s_data), .net_rx_valid(%s_valid), .net_rx_ready(%s_ready)" % (rx, rx, rx))
        lines.append("  );")
    lines.append("")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _clk_tag(island: int) -> str:
    return "mid" if island == INTERMEDIATE_ISLAND else "vi%d" % island


def save_verilog(topology: Topology, path: str) -> None:
    """Write the structural Verilog netlist to a file."""
    with open(path, "w") as f:
        f.write(topology_to_verilog(topology))
