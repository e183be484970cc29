"""Canonical hashing for the content-addressed synthesis cache.

Every cache key is a sha256 over a *canonical form*: a nested
plain-data structure in which

* mappings and sets are order-insensitive (emitted as sorted pairs /
  sorted elements),
* sequences keep their order (synthesis results legitimately depend on
  core/flow declaration order — tiling order, float accumulation in the
  VCG — so a reordered sequence is a *different* problem),
* floats use their exact hexadecimal representation (``float.hex``), so
  ``0.1 + 0.2`` and ``0.3`` hash differently while equal values hash
  identically regardless of how they print,
* dataclasses are expanded field-by-field with fields sorted by name,
  making the hash independent of field declaration or constructor
  order, and
* every composite carries a type tag, so ``[1, 2]`` and ``(1, 2)`` and
  ``{1: 2}`` can never collide.

The digest input is prefixed with :data:`SCHEMA_VERSION` and the
running Python major.minor (pickled payloads are not portable across
interpreter versions, so keys are partitioned by it).  Bump
:data:`SCHEMA_VERSION` whenever canonicalization or any cached value's
serialized layout changes — old entries then simply miss.

Two key builders cover the cache granularities used by
``core/synthesis.py``:

``design_space_key``
    The full result of one synthesis run: spec + library + config
    (objective included).
``allocation_key``
    One ``PathAllocator.allocate`` attempt for one candidate design
    point: spec + library + path-cost config + island plans +
    partitions + intermediate-switch count.  Routes for all island
    pairs interact through shared link capacities, so the sound
    cacheable unit is the whole allocation, which covers every
    island-pair routing plan of that candidate.  Also
    objective-independent.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Any, Mapping, Sequence, Set

from ..exceptions import CacheKeyError

#: Version tag mixed into every digest.  Bump on any change to the
#: canonical form or to the serialized layout of cached values.
SCHEMA_VERSION = 1

#: Config fields excluded from cache keys.  ``enable_caches`` toggles
#: the in-run fast path (memo dicts, routing shortcuts), which is
#: pinned byte-identical to the reference path by
#: ``tests/test_perf.py`` and the ``cache_ablation`` bench section, so
#: cached and reference runs share results.
CONFIG_KEY_EXCLUDE = ("enable_caches",)


def canonical(obj: Any) -> Any:
    """Recursively normalize ``obj`` into a JSON-able canonical form.

    Raises :class:`CacheKeyError` for values with no stable
    content-addressed representation.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", obj.hex()]
    if isinstance(obj, bytes):
        return ["b", obj.hex()]
    # Objects may opt in with an explicit canonical() method (SoCSpec
    # does, to normalize vi_assignment order) — checked before the
    # generic dataclass walk so the override wins.
    method = getattr(obj, "canonical", None)
    if callable(method) and not isinstance(obj, type):
        return ["o", type(obj).__qualname__, canonical(method())]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = sorted(f.name for f in dataclasses.fields(obj) if f.init)
        return [
            "dc",
            type(obj).__qualname__,
            [[name, canonical(getattr(obj, name))] for name in fields],
        ]
    if isinstance(obj, Mapping):
        items = [[canonical(k), canonical(v)] for k, v in obj.items()]
        items.sort(key=lambda kv: _sort_token(kv[0]))
        return ["m", items]
    if isinstance(obj, (set, frozenset)):
        elems = sorted((canonical(e) for e in obj), key=_sort_token)
        return ["s", elems]
    if isinstance(obj, (list, tuple)):
        return ["l", [canonical(e) for e in obj]]
    # Callables (objective factories, policy functions) are addressed by
    # their import path — the code itself is versioned by the repo, and
    # SCHEMA_VERSION covers behavior changes that matter to the cache.
    qualname = getattr(obj, "__qualname__", None)
    module = getattr(obj, "__module__", None)
    if callable(obj) and qualname and module:
        return ["fn", module, qualname]
    raise CacheKeyError(
        "cannot canonicalize %r of type %s for cache keying"
        % (obj, type(obj).__qualname__)
    )


def _sort_token(canon: Any) -> str:
    """Deterministic total order over canonical forms of mixed types."""
    return json.dumps(canon, sort_keys=True, separators=(",", ":"))


def fingerprint(kind: str, *parts: Any) -> str:
    """sha256 hex digest of canonicalized ``parts`` under a ``kind`` tag."""
    payload = json.dumps(
        [
            "repro-noc-cache",
            SCHEMA_VERSION,
            "py%d.%d" % sys.version_info[:2],
            kind,
            [canonical(p) for p in parts],
        ],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _config_canonical(config: Any) -> Any:
    """Canonical form of a ``SynthesisConfig`` minus excluded fields."""
    if not dataclasses.is_dataclass(config) or isinstance(config, type):
        return canonical(config)
    fields = sorted(
        f.name
        for f in dataclasses.fields(config)
        if f.init and f.name not in CONFIG_KEY_EXCLUDE
    )
    return [
        "dc",
        type(config).__qualname__,
        [[name, canonical(getattr(config, name))] for name in fields],
    ]


def design_space_key(spec: Any, library: Any, config: Any) -> str:
    """Key for the full :class:`DesignSpace` of one synthesis run."""
    return fingerprint("space", spec, library, _config_canonical(config))


def allocation_context_key(spec: Any, library: Any, cost_config: Any) -> str:
    """Digest of the allocation inputs shared by the whole sweep.

    Spec and library are by far the largest canonicalization inputs
    and never change between candidates; hashing them once per sweep
    keeps the cold-path overhead of the allocation tier small.
    """
    return fingerprint("alloc-ctx", spec, library, cost_config)


def allocation_base_key(
    context_digest: str,
    plans: Mapping[int, Any],
    partitions: Mapping[int, Sequence[Set[str]]],
) -> str:
    """Shared key prefix for one candidate's path allocations.

    ``context_digest`` comes from :func:`allocation_context_key`; the
    per-k keys derive from this digest via :func:`allocation_key`.

    ``partitions`` values are sequences of sets; part order is
    preserved (it determines switch numbering) while the sets
    themselves canonicalize order-insensitively.
    """
    canon_parts = {
        isl: [sorted(part) for part in parts] for isl, parts in partitions.items()
    }
    return fingerprint("allocation-base", context_digest, dict(plans), canon_parts)


def allocation_key(base_key: str, num_intermediate: int) -> str:
    """Key for one candidate's path allocation (objective-independent)."""
    return fingerprint("allocation", base_key, num_intermediate)
