"""Active-store context, mirroring ``repro.perf.recording``.

Synthesis probes :func:`active_store` at its cache points; installing a
store via :func:`caching` (or :func:`set_store` for long-lived
processes) turns memoization on for everything beneath it.  No store
installed means every path runs cold — the default, so library users
opt in explicitly.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - probing for a store must not load one
    from .store import CacheStore

_ACTIVE: Optional[CacheStore] = None


def active_store() -> Optional[CacheStore]:
    """The store synthesis cache points currently write through, if any."""
    return _ACTIVE


def set_store(store: Optional[CacheStore]) -> Optional[CacheStore]:
    """Install ``store`` as the active one; returns the previous store."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = store
    return previous


@contextmanager
def caching(store: CacheStore) -> Iterator[CacheStore]:
    """Scope ``store`` as the active cache for the enclosed block."""
    previous = set_store(store)
    try:
        yield store
    finally:
        set_store(previous)
