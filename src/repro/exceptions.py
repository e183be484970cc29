"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The subclasses mirror the major
pipeline stages: specification, partitioning, synthesis, floorplanning
and validation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SpecError(ReproError):
    """The SoC specification is malformed or inconsistent.

    Raised for unknown core references in flows, non-positive bandwidth,
    missing voltage-island assignments and similar input problems.
    """


class PartitionError(ReproError):
    """A min-cut partitioning request cannot be satisfied.

    Raised when the requested part count or the size bounds are
    impossible for the given graph (for example ``k`` larger than the
    node count with ``allow_empty=False``).
    """


class SynthesisError(ReproError):
    """Topology synthesis failed in an unexpected, non-recoverable way."""


class InfeasibleError(SynthesisError):
    """No design point satisfying all constraints could be found."""


class FloorplanError(ReproError):
    """Floorplanning failed (components do not fit, bad geometry...)."""


class CacheError(ReproError):
    """A content-addressed cache operation failed."""


class CacheKeyError(CacheError):
    """An object cannot be canonicalized into a cache key.

    Raised by :func:`repro.cache.keys.canonical` for values with no
    stable, content-addressed representation (open file handles,
    arbitrary object instances...).  Call sites treat this as
    "uncacheable" and fall through to the cold path.
    """


class CacheCorruptionError(CacheError):
    """A cached entry failed verification against a fresh recompute.

    Raised by the ``verify_on_hit`` sampling mode when the decoded
    hit's signature differs from the recomputed one — either the blob
    holds a wrong value past its checksum, or determinism was broken.
    """


class ValidationError(ReproError):
    """A synthesized topology violates a structural invariant.

    This includes violations of the shutdown-safety rule: a traffic flow
    routed through a switch that belongs to a third, gateable island.
    """
