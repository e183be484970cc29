"""Content-addressed synthesis cache (ROADMAP item 1, storage half).

Canonical hashing of the synthesis inputs (:mod:`repro.cache.keys`), a
two-tier memo store (:mod:`repro.cache.store`) and the active-store
context (:mod:`repro.cache.context`) that ``core/synthesis.py`` probes
at two granularities: full design spaces and per-candidate path
allocations.  See ``docs/caching.md``.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".context": ("active_store", "caching", "set_store"),
        ".keys": (
            "SCHEMA_VERSION",
            "allocation_base_key",
            "allocation_context_key",
            "allocation_key",
            "canonical",
            "design_space_key",
            "fingerprint",
        ),
        ".signatures": ("allocation_signature", "design_space_signature"),
        ".store": (
            "CacheStats",
            "CacheStore",
            "DiskTier",
            "MemoryTier",
            "default_cache_dir",
        ),
    },
)
