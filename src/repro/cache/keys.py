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
from typing import Any, Callable, Mapping, Sequence

from ..exceptions import CacheKeyError

#: Version tag mixed into every digest.  Bump on any change to the
#: canonical form or to the serialized layout of cached values.
SCHEMA_VERSION = 7

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
    # Exact lists, tuples and dicts skip the slower checks below (the
    # ``Mapping`` ABC test costs most): none has a canonical() method or
    # is a dataclass, so the walk would give each the same form.
    # Subclasses take the walk.
    cls = type(obj)
    if cls is list or cls is tuple:
        return ["l", [canonical(e) for e in obj]]
    if cls is dict:
        return _canonical_mapping(obj)
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
        return _canonical_mapping(obj)
    if isinstance(obj, (set, frozenset)):
        elems = sorted((canonical(e) for e in obj), key=form_text)
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


def _canonical_mapping(obj: Mapping) -> Any:
    items = [[canonical(k), canonical(v)] for k, v in obj.items()]
    items.sort(key=lambda kv: form_text(kv[0]))
    return ["m", items]


def form_text(canon: Any) -> str:
    """The JSON text of a canonical form: what a key hashes, and the
    deterministic total order over forms of mixed types."""
    return json.dumps(canon, sort_keys=True, separators=(",", ":"))


def fingerprint(kind: str, *parts: Any) -> str:
    """sha256 hex digest of canonicalized ``parts`` under a ``kind`` tag."""
    return _digest(_payload(kind, [_part_text(p) for p in parts]))


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _part_text(part: Any) -> str:
    """``part``'s text in a key: the :func:`form_text` of its canonical form.

    An object with a ``key_text()`` method supplies that text itself
    (specs and libraries keep theirs), so each is canonicalized once
    however many keys name it.
    """
    key_text = getattr(part, "key_text", None)
    if callable(key_text) and not isinstance(part, type):
        return key_text()
    return canonical_text(part)


def _payload(kind: str, texts: Sequence[str]) -> str:
    """The text a key hashes: the parts' ``texts`` under a ``kind`` tag.

    It is the :func:`form_text` of ``["repro-noc-cache", SCHEMA_VERSION,
    "py<major>.<minor>", kind, [<part forms>]]``, put together from each
    part's own text: a canonical form holds lists and scalars only,
    never a dict, so ``sort_keys`` changes nothing and the texts join as
    ``json.dumps`` writes a list.
    """
    head = form_text(
        ["repro-noc-cache", SCHEMA_VERSION, "py%d.%d" % sys.version_info[:2], kind]
    )
    return "%s,[%s]]" % (head[:-1], ",".join(texts))


def canonical_text(obj: Any) -> str:
    """The :func:`form_text` of ``obj``'s canonical form."""
    return form_text(canonical(obj))


def object_text(obj: Any, texts: Mapping[str, str]) -> str:
    """:func:`canonical_text` of ``obj``, spliced from parts built elsewhere.

    ``obj.canonical()`` is a mapping with string keys; ``texts`` maps
    each key to the :func:`canonical_text` of its value.  The entries go
    in the order :func:`_canonical_mapping` sorts them.  A string's text
    takes none of :func:`form_text`'s options, so the default encoder
    writes it, without an encoder built per call.
    """
    entries = sorted((json.dumps(name), text) for name, text in texts.items())
    return '["o",%s,["m",[%s]]]' % (
        json.dumps(type(obj).__qualname__),
        ",".join("[%s,%s]" % entry for entry in entries),
    )


def kept_text(owner: Any, build: Callable[[Any], str]) -> str:
    """``build(owner)``, built on the first call and kept on ``owner``.

    The text sits in the owner's ``__dict__`` as ``_key_text``, beside
    its dataclass fields, so equality, hashing and ``repr`` never see
    it, and the owner's ``__getstate__`` drops it, so no pickle, copy or
    cached blob carries it.  Owners are frozen dataclasses, so the text
    cannot go stale; ``dataclasses.replace`` builds an owner without it.
    Each owner class keeps one kind of text, so one class always passes
    the same ``build``.
    """
    text = owner.__dict__.get("_key_text")
    if text is None:
        text = build(owner)
        object.__setattr__(owner, "_key_text", text)
    return text


def _config_text(config: Any) -> str:
    """A ``SynthesisConfig``'s part of a candidate record's key: the text
    of :func:`_config_canonical`'s form, canonicalized as a part."""
    return canonical_text(_config_canonical(config))


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
    return _digest(_space_payload(spec, library, config))


def _space_payload(spec: Any, library: Any, config: Any) -> str:
    """The text :func:`design_space_key` hashes.

    The config's part is :func:`_config_text`, kept on the config
    (:func:`kept_text`), so a sweep caller's hit probe and the task's
    lookup share it.  Only this function builds that text: a config has
    no ``key_text()``, so :func:`fingerprint` and :func:`canonical` give
    it every field wherever it sits.
    """
    return _payload(
        "space", [_part_text(spec), _part_text(library), kept_text(config, _config_text)]
    )
