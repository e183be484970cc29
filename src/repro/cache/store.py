"""Multi-tier content-addressed memo store for synthesis results.

Two tiers behind one :class:`CacheStore` facade:

* an in-memory LRU over the *serialized payload bytes* this process
  wrote — deliberately not over live objects, so every hit
  deserializes a fresh copy and callers mutating their result
  (synthesis assigns wire lengths onto cached topologies) can never
  poison later hits;
* an on-disk tier of self-describing blobs under ``--cache-dir`` /
  ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-noc``.  Writes go through a
  temp file + ``os.replace`` so readers never observe a partial entry;
  reads validate a sha256 over the payload and silently drop (and
  delete) anything corrupt — a damaged cache can only cause recompute,
  never a wrong result.

Blob layout (one file per entry, ``objects/<kk>/<key>.blob``)::

    {"magic": "repro-noc", "schema": 7, "key": ..., "kind": ...,
     "codec": "pickle", "sha256": ..., "size": ...}\\n
    <payload bytes>

The single JSON header line carries the payload checksum.  The
``verify_on_hit`` sampling mode needs no stored state: the caller
compares semantic signatures (:mod:`repro.cache.signatures`) of the
decoded hit and of a fresh recompute, so it checks exactly the value
it hands on.  Headers written with an older ``sig`` field still read;
the field is ignored.
"""

from __future__ import annotations

import io
import json
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Any, BinaryIO, Dict, Iterator, Optional, Tuple

from ..exceptions import CacheCorruptionError, CacheError
from ..perf.instrument import active_recorder
from .keys import SCHEMA_VERSION

_MAGIC = "repro-noc"
#: Protocol 4 is supported by every interpreter this repo targets;
#: pinning it keeps blob bytes stable across minor Python upgrades.
_PICKLE_PROTOCOL = 4


def default_cache_dir() -> Path:
    """Resolve the on-disk tier location.

    ``$REPRO_CACHE_DIR`` wins, then ``$XDG_CACHE_HOME/repro-noc``, then
    ``~/.cache/repro-noc``.
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-noc"


class CacheStats:
    """Flat event counters, mergeable across processes.

    Keys follow ``event[.tier][.kind]``, e.g. ``hits.memory.space``,
    ``misses.space``, ``bytes_written.disk``.  Worker processes ship
    deltas (``snapshot`` before/after, :meth:`diff`) which the parent
    folds back in with :meth:`merge`.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _total(self, prefix: str) -> int:
        return sum(
            v for k, v in self.counters.items()
            if k == prefix or k.startswith(prefix + ".")
        )

    @property
    def hits(self) -> int:
        return self._total("hits")

    @property
    def misses(self) -> int:
        return self._total("misses")

    @property
    def evictions(self) -> int:
        return self._total("evictions")

    @property
    def bytes_written(self) -> int:
        return self._total("bytes_written")

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counters)

    def diff(self, since: Dict[str, int]) -> Dict[str, int]:
        """Counters accumulated since a previous :meth:`snapshot`."""
        out: Dict[str, int] = {}
        for name, value in self.counters.items():
            delta = value - since.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def merge(self, delta: Dict[str, int]) -> None:
        for name, value in delta.items():
            self.incr(name, value)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes_written": self.bytes_written,
            "counters": dict(sorted(self.counters.items())),
        }


class MemoryTier:
    """Bounded LRU over payload bytes (not live objects)."""

    def __init__(self, max_bytes: int = 64 * 1024 * 1024, max_entries: int = 1024) -> None:
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, Tuple[bytes, Dict[str, Any]]]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        return self._bytes

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[Tuple[bytes, Dict[str, Any]]]:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, payload: bytes, header: Dict[str, Any]) -> int:
        """Insert and return how many entries were evicted to make room."""
        if len(payload) > self.max_bytes:
            return 0
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= len(old[0])
        self._entries[key] = (payload, header)
        self._bytes += len(payload)
        evicted = 0
        while self._entries and (
            self._bytes > self.max_bytes or len(self._entries) > self.max_entries
        ):
            _, (dropped, _) = self._entries.popitem(last=False)
            self._bytes -= len(dropped)
            evicted += 1
        return evicted

    def remove(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._bytes -= len(entry[0])

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0


class DiskTier:
    """One blob file per entry, atomic writes, checksum-validated reads."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)

    def _objects_dir(self) -> Path:
        return self.directory / "objects"

    def path_for(self, key: str) -> Path:
        return self._objects_dir() / key[:2] / (key + ".blob")

    def __contains__(self, key: str) -> bool:
        """Whether a blob is filed under ``key`` (unread, so unchecked)."""
        return self.path_for(key).is_file()

    def get(self, key: str) -> Optional[Tuple[memoryview, Dict[str, Any]]]:
        """Return ``(payload, header)`` or ``None``; the payload is a view
        of the blob read.

        Any unusable entry is deleted and reported as ``None``, so
        callers recompute, with :attr:`last_fault` saying why:
        ``"stale"`` for a well-formed blob of another schema or key,
        ``"corrupt"`` for anything else (unreadable, bad header, size
        or checksum mismatch), as :meth:`verify` classifies them.
        """
        self.last_fault = ""
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        entry, self.last_fault = self._parse(key, raw)
        if entry is None:
            try:
                path.unlink()
            except OSError:
                pass
        return entry

    #: Set by :meth:`get`: why the last read found no usable entry
    #: (``"stale"`` or ``"corrupt"``); empty after a hit or an absence.
    last_fault = ""

    @staticmethod
    def is_current(key: str, header: Dict[str, Any]) -> bool:
        """True when a header was written by this schema under ``key``."""
        return header.get("schema") == SCHEMA_VERSION and header.get("key") == key

    @staticmethod
    def _parse(
        key: str, raw: bytes
    ) -> Tuple[Optional[Tuple[memoryview, Dict[str, Any]]], str]:
        """``((payload, header), "")`` for a usable blob, else ``(None,
        "stale")`` or ``(None, "corrupt")``."""
        newline = raw.find(b"\n")
        if newline < 0:
            return None, "corrupt"
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None, "corrupt"
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            return None, "corrupt"
        if not DiskTier.is_current(key, header):
            return None, "stale"
        # A view, not a copy: a sweep caller decodes every hit it
        # serves, and a second payload-sized buffer per read grew its
        # heap (docs/performance.md, "Caller-served hits").
        payload = memoryview(raw)[newline + 1:]
        if len(payload) != header.get("size"):
            return None, "corrupt"
        import hashlib

        if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
            return None, "corrupt"
        return (payload, header), ""

    def put(self, key: str, payload: bytes, header: Dict[str, Any]) -> int:
        """Atomically write one entry; returns bytes written."""
        path = self.path_for(key)
        blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
        tmp = path.parent / (path.name + ".tmp%d" % os.getpid())
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(blob)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            raise CacheError("cache write failed for %s: %s" % (path, exc))
        return len(blob)

    def iter_keys(self) -> Iterator[str]:
        root = self._objects_dir()
        if not root.is_dir():
            return
        for sub in sorted(root.iterdir()):
            if not sub.is_dir():
                continue
            for blob in sorted(sub.glob("*.blob")):
                yield blob.stem

    def entry_count(self) -> int:
        return sum(1 for _ in self.iter_keys())

    def total_bytes(self) -> int:
        return sum(
            self.path_for(k).stat().st_size
            for k in self.iter_keys()
            if self.path_for(k).exists()
        )

    def scan_headers(self) -> Iterator[Tuple[str, Optional[Dict[str, Any]]]]:
        """Yield ``(key, header-or-None)`` reading only each blob's first line."""
        for key in self.iter_keys():
            header: Optional[Dict[str, Any]] = None
            try:
                with open(self.path_for(key), "rb") as fh:
                    line = fh.readline()
                parsed = json.loads(line.decode("utf-8"))
                if isinstance(parsed, dict) and parsed.get("magic") == _MAGIC:
                    header = parsed
            except (OSError, UnicodeDecodeError, ValueError):
                header = None
            yield key, header

    def verify(self, remove: bool = False) -> Dict[str, Any]:
        """Re-hash every stored blob; report (and optionally delete) bad ones.

        *Corrupt* entries fail structurally (unreadable, bad header,
        checksum mismatch); *stale* entries are well-formed but written
        under a different schema version or filed under the wrong key —
        unusable by the current code, harmless on disk.
        """
        checked = 0
        faults: Dict[str, list] = {"corrupt": [], "stale": []}
        kinds: Dict[str, int] = {}
        for key in list(self.iter_keys()):
            checked += 1
            path = self.path_for(key)
            try:
                entry, fault = self._parse(key, path.read_bytes())
            except OSError:
                entry, fault = None, "corrupt"
            if entry is not None:
                kind = str(entry[1].get("kind", "?"))
                kinds[kind] = kinds.get(kind, 0) + 1
                continue
            faults[fault].append(key)
            if remove:
                try:
                    path.unlink()
                except OSError:
                    pass
        corrupt, stale = faults["corrupt"], faults["stale"]
        return {
            "checked": checked,
            "ok": checked - len(corrupt) - len(stale),
            "corrupt": corrupt,
            "stale": stale,
            "removed": (len(corrupt) + len(stale)) if remove else 0,
            "kinds": dict(sorted(kinds.items())),
        }

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key in list(self.iter_keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                pass
        return removed


class _RecordPickler(pickle.Pickler):
    """The store's encoder: plain pickle, except that each exact
    :class:`~repro.arch.topology.Topology` and
    :class:`~repro.floorplan.placer.Floorplan` is written as a packed
    shell (:mod:`repro.packed`), by one packer of each per record.  A
    hit then decodes them only when something reads them.  A shell that
    was never read is of neither exact type and passes through as it
    came.
    """

    def __init__(self, file: BinaryIO) -> None:
        from ..arch.topology import Topology, TopologyPacker
        from ..floorplan.placer import Floorplan, FloorplanPacker

        super().__init__(file, _PICKLE_PROTOCOL)
        self._packers = {
            Topology: TopologyPacker(_PICKLE_PROTOCOL).reduce,
            Floorplan: FloorplanPacker(_PICKLE_PROTOCOL).reduce,
        }

    def reducer_override(self, obj: Any) -> Any:
        packer = self._packers.get(type(obj))
        return NotImplemented if packer is None else packer(obj)


class CacheStore:
    """Facade over the memory + disk tiers with hit/miss accounting.

    ``verify_every=N`` arms the sampling verifier: after every Nth hit
    (a deterministic counter, not randomness — reruns sample the same
    hits) :meth:`should_verify` is true, and the caller recomputes and
    compares the semantic signatures of the hit and the recompute via
    :meth:`check_signature`.

    Forked sweep and fan-out workers inherit the active store, its warm
    memory tier included, and send their stats deltas home.
    """

    def __init__(
        self,
        directory: Optional[Path] = None,
        *,
        max_memory_bytes: int = 64 * 1024 * 1024,
        verify_every: int = 0,
    ) -> None:
        if verify_every < 0:
            raise CacheError("verify_every must be >= 0, got %d" % verify_every)
        self.directory = Path(directory) if directory is not None else None
        self.memory = MemoryTier(max_memory_bytes)
        self.disk = DiskTier(self.directory) if self.directory is not None else None
        self.verify_every = verify_every
        self.stats = CacheStats()
        self._hit_seq = 0

    @classmethod
    def open(cls, directory: Optional[Any] = None, **kwargs: Any) -> "CacheStore":
        """Store backed by ``directory`` (default: :func:`default_cache_dir`)."""
        return cls(Path(directory) if directory else default_cache_dir(), **kwargs)

    @classmethod
    def in_memory(cls, **kwargs: Any) -> "CacheStore":
        """Process-local store with no disk tier (tests, one-shot runs)."""
        return cls(None, **kwargs)

    # -- raw byte interface -------------------------------------------------

    def put_entry(self, key: str, payload: bytes, kind: str, codec: str) -> Dict[str, Any]:
        import hashlib

        header = {
            "magic": _MAGIC,
            "schema": SCHEMA_VERSION,
            "key": key,
            "kind": kind,
            "codec": codec,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "size": len(payload),
        }
        evicted = self.memory.put(key, payload, header)
        if evicted:
            self.stats.incr("evictions.memory", evicted)
        if self.disk is not None:
            written = self.disk.put(key, payload, header)
            self.stats.incr("bytes_written.disk", written)
        self.stats.incr("puts.%s" % kind)
        return header

    # -- object interface ---------------------------------------------------

    def __contains__(self, key: str) -> bool:
        """Whether either tier holds ``key``, without reading or counting
        it: the memory tier, or a blob file, which :meth:`get_object`
        may still find stale or corrupt."""
        return key in self.memory or (self.disk is not None and key in self.disk)

    def get_object(self, key: str, kind: str) -> Optional[Any]:
        """Decode a fresh copy of the cached value, or ``None`` on miss.

        A hit counts once its payload decodes; a payload that fails to
        decode is dropped and counts as one miss.  A disk hit is not
        copied into the memory tier, which keeps only what this process
        wrote, so a warm run holds no second copy of what it read.
        """
        tier, entry = "memory", self.memory.get(key)
        if entry is None and self.disk is not None:
            tier, entry = "disk", self.disk.get(key)
            if self.disk.last_fault:
                self.stats.incr("%s.disk" % self.disk.last_fault)
            if entry is not None:
                self.stats.incr("bytes_read.disk", len(entry[0]))
        rec = active_recorder()
        if entry is not None:
            try:
                value = pickle.loads(entry[0])
            except Exception:
                # Decode failure past the checksum: schema drift within
                # the same SCHEMA_VERSION.  Treat as a corrupt miss.
                self.stats.incr("corrupt.decode")
                self.drop(key)
            else:
                self.stats.incr("hits.%s.%s" % (tier, kind))
                self._hit_seq += 1
                if rec is not None:
                    rec.count("cache_hits")
                return value
        self.stats.incr("misses.%s" % kind)
        if rec is not None:
            rec.count("cache_misses")
        return None

    def put_object(self, key: str, value: Any, kind: str) -> bytes:
        """Encode ``value`` and store it; topologies and floorplans go
        in packed (:class:`_RecordPickler`)."""
        buffer = io.BytesIO()
        _RecordPickler(buffer).dump(value)
        payload = buffer.getvalue()
        self.put_entry(key, payload, kind, "pickle")
        return payload

    def drop(self, key: str) -> None:
        self.memory.remove(key)
        if self.disk is not None:
            path = self.disk.path_for(key)
            try:
                path.unlink()
            except OSError:
                pass

    # -- verification -------------------------------------------------------

    def should_verify(self) -> bool:
        """Deterministic every-Nth-hit sampling for ``verify_on_hit``."""
        return self.verify_every > 0 and self._hit_seq % self.verify_every == 0

    def check_signature(self, cached_sig: str, fresh_sig: str, what: str) -> None:
        """Compare the signature of a decoded hit against a recompute's."""
        self.stats.incr("verify_runs")
        if cached_sig != fresh_sig:
            self.stats.incr("verify_mismatches")
            raise CacheCorruptionError(
                "verify_on_hit mismatch for %s: cached sig %s != recomputed %s"
                % (what, cached_sig, fresh_sig)
            )

    def record_key_error(self) -> None:
        self.stats.incr("key_errors")
