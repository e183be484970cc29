"""Semantic signatures of cached values for ``verify_on_hit``.

Raw payload bytes are not a sound cross-process identity check: pickled
``set`` fields serialize in iteration order, which varies with the
interpreter hash seed.  Signatures instead digest a *canonical JSON
summary* of the decoded value — the same summaries the benchmark
identity gates compare — so a decoded hit (stored by any process) and
a verifying recompute agree exactly when the results are identical in
every observable field.  They are computed only when a hit is sampled
for verification, never on a put.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def _digest(data: Any) -> str:
    return hashlib.sha256(
        json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def design_space_signature(space: Any) -> str:
    """Identity of a :class:`DesignSpace`: all point summaries + failures."""
    from ..io.json_io import design_point_summary

    return _digest(
        {
            "spec": space.spec_name,
            "points": [design_point_summary(p) for p in space.points],
            "failures": [
                [[list(pair) for pair in counts], k_mid, reason]
                for counts, k_mid, reason in space.failures
            ],
        }
    )


def allocation_signature(result: Any) -> str:
    """Identity of an :class:`AllocationResult` incl. the routed topology."""
    from ..io.json_io import topology_to_dict

    return _digest(
        {
            "success": result.success,
            "failed_flow": list(result.failed_flow) if result.failed_flow else None,
            "reason": result.reason,
            "links_opened": result.links_opened,
            "flows_via_intermediate": result.flows_via_intermediate,
            "topology": topology_to_dict(result.topology)
            if result.topology is not None
            else None,
        }
    )
