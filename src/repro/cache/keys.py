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

One key builder covers the one entry kind ``core/synthesis.py``
stores:

``design_space_key``
    The candidate record of one synthesis run (the objective-free
    pass's ordered points and failures): spec + library + every config
    field except :data:`CONFIG_KEY_EXCLUDE`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from typing import Any, Mapping

from ..exceptions import CacheKeyError

#: Version tag mixed into every digest.  Bump on any change to the
#: canonical form or to the serialized layout of cached values.
SCHEMA_VERSION = 5

#: Config fields excluded from cache keys.  ``enable_caches`` toggles
#: the in-run fast path (memo dicts, routing shortcuts), which is
#: pinned byte-identical to the reference path by
#: ``tests/test_perf.py::TestSynthesisDeterminism``, so cached and
#: reference runs share results.  ``objective`` and ``prune_sweep``
#: only steer the scoring pass, which runs on every call, hit or miss.
CONFIG_KEY_EXCLUDE = ("enable_caches", "objective", "prune_sweep")


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
    """Key for the candidate record of one synthesis run."""
    return fingerprint("space", spec, library, _config_canonical(config))

