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
    """Identity of a :class:`DesignSpace` (all point summaries and
    failures), or of a synthesis candidate record: the list of its
    points and failures in candidate order."""
    from ..io.json_io import design_point_summary

    def failure(counts: Any, k_mid: int, reason: str) -> list:
        return [[list(pair) for pair in counts], k_mid, reason]

    if isinstance(space, list):
        return _digest(
            [
                failure(*outcome) if isinstance(outcome, tuple)
                else design_point_summary(outcome)
                for outcome in space
            ]
        )
    return _digest(
        {
            "spec": space.spec_name,
            "points": [design_point_summary(p) for p in space.points],
            "failures": [failure(*f) for f in space.failures],
        }
    )
