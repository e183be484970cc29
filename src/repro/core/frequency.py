"""Island frequency planning (Algorithm 1, steps 1–2).

For a fixed link data width, the frequency of the NoC inside a voltage
island is set by the single NI link that must carry the most bandwidth:
"the frequency of the switches in an island is determined by the link
that has to carry the highest bandwidth from or to a core in the
island" (Section 4).

The chosen frequency then bounds the switch size — a larger crossbar
has a longer critical path — yielding ``max_sw_size_j`` and from it the
minimum switch count ``min_sw_j = ceil(|VCG_j| / max_sw_size_j)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

from .. import units
from ..exceptions import SpecError
from ..power.library import NocLibrary
from .spec import SoCSpec


@dataclass(frozen=True)
class IslandPlan:
    """Frequency and switch-size budget for one voltage island.

    Attributes
    ----------
    island:
        Island id.
    num_cores:
        Cores assigned to the island.
    peak_ni_bandwidth_mbps:
        Largest per-core NI-link bandwidth in the island.
    freq_mhz:
        Chosen NoC clock for the island (quantized up).
    max_switch_size:
        ``max_sw_size_j``: largest port count per direction a switch in
        this island may have and still close timing at ``freq_mhz``.
    min_switches:
        ``min_sw_j``: fewest switches able to host all cores under the
        size bound.
    """

    island: int
    num_cores: int
    peak_ni_bandwidth_mbps: float
    freq_mhz: float
    max_switch_size: int
    min_switches: int


def plan_all_islands(
    spec: SoCSpec,
    library: NocLibrary,
    freq_step_mhz: float = 25.0,
    min_freq_mhz: float = 100.0,
) -> Dict[int, IslandPlan]:
    """Island plans for every island in the spec (Algorithm 1 step 1).

    Every island reads one table of core peak bandwidths, built in one
    pass over the flows.
    """
    peaks = spec.core_peak_bandwidths()
    return {
        isl: _plan_island(spec, isl, peaks, library, freq_step_mhz, min_freq_mhz)
        for isl in spec.islands
    }


def _plan_island(
    spec: SoCSpec,
    island: int,
    peaks: Mapping[str, float],
    library: NocLibrary,
    freq_step_mhz: float,
    min_freq_mhz: float,
) -> IslandPlan:
    """The :class:`IslandPlan` of one island, given
    :meth:`SoCSpec.core_peak_bandwidths`.

    ``min_freq_mhz`` is a practical floor: islands whose cores only
    trickle data still get a usable NoC clock rather than a pathological
    few-MHz domain.
    """
    cores = spec.cores_in_island(island)
    # Step 1: the island's NoC must carry its busiest core's NI link.
    peak_bw = max(peaks[c] for c in cores)
    needed = library.required_freq_mhz(peak_bw)
    freq = units.quantize_frequency(max(needed, min_freq_mhz), freq_step_mhz)
    max_size = library.max_switch_size_for_freq(freq)
    min_switches = max(1, int(math.ceil(len(cores) / float(max_size))))
    return IslandPlan(
        island=island,
        num_cores=len(cores),
        peak_ni_bandwidth_mbps=peak_bw,
        freq_mhz=freq,
        max_switch_size=max_size,
        min_switches=min_switches,
    )


def intermediate_island_freq_mhz(plans: Mapping[int, IslandPlan]) -> float:
    """Clock for the intermediate NoC island.

    The intermediate island aggregates cross-island traffic from every
    other island, so it must keep up with the fastest of them; we run it
    at the maximum island frequency.
    """
    if not plans:
        raise SpecError("no island plans given")
    return max(p.freq_mhz for p in plans.values())
