"""Content-addressed synthesis cache (ROADMAP item 1, storage half).

Canonical hashing of the synthesis inputs (:mod:`repro.cache.keys`), a
two-tier memo store (:mod:`repro.cache.store`) and the active-store
context (:mod:`repro.cache.context`) through which ``core/synthesis.py``
stores one entry per run: the objective-free candidate record.  See
``docs/caching.md``.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        ".context": ("active_store", "caching", "set_store"),
        ".keys": (
            "SCHEMA_VERSION",
            "canonical",
            "design_space_key",
        ),
        ".signatures": ("design_space_signature",),
        ".store": (
            "CacheStats",
            "CacheStore",
            "DiskTier",
            "MemoryTier",
            "default_cache_dir",
        ),
    },
)
