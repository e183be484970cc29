"""Semantic signatures of cached values for ``verify_on_hit``.

Raw payload bytes are not a sound cross-process identity check: pickled
``set`` fields serialize in iteration order, which varies with the
interpreter hash seed.  Signatures instead digest a *canonical JSON
form* of the decoded value (each point's metrics summary, topology and
switch positions), so a decoded hit (stored by any process) and a
verifying recompute agree exactly when the results are identical in
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
    """Identity of a :class:`DesignSpace` (all points and failures), or
    of a synthesis candidate record: the list of its points and failures
    in candidate order.

    A point's identity is its metrics summary, its whole topology
    (:func:`~repro.io.json_io.topology_to_dict`, spec included) and its
    floorplan's switch positions: everything a hit hands on.
    """
    from ..io.json_io import design_point_summary, topology_to_dict

    def point(p: Any) -> dict:
        return {
            "summary": design_point_summary(p),
            "topology": topology_to_dict(p.topology),
            "switch_pos": {
                sid: [pos.x, pos.y] for sid, pos in p.floorplan.switch_pos.items()
            },
        }

    def failure(counts: Any, k_mid: int, reason: str) -> list:
        return [[list(pair) for pair in counts], k_mid, reason]

    if isinstance(space, list):
        return _digest(
            [
                failure(*outcome) if isinstance(outcome, tuple) else point(outcome)
                for outcome in space
            ]
        )
    return _digest(
        {
            "spec": space.spec_name,
            "points": [point(p) for p in space.points],
            "failures": [failure(*f) for f in space.failures],
        }
    )
