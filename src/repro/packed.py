"""Packed shells: parts of a cache hit that decode when first read.

The cache store writes each design point's topology and floorplan as a
packed shell (``cache/store.py``).  A shell is an instance of a
subclass of the object's class, built from what its packer wrote, so
``isinstance`` checks and the owning point's fields stay as they are.
Reading an attribute the shell lacks unpacks it in place into the whole
object.  Until then pickle and ``copy`` reduce it to what the packer
wrote, so a shell that crosses a process pipe or is deep-copied passes
through undecoded.
"""

from __future__ import annotations

from .exceptions import CacheCorruptionError


class PackedShell:
    """Mixin of a shell class: ``class _PackedX(PackedShell, X)``.

    A shell class defines ``__reduce__`` (its constructor and the
    packed arguments, held in ``_packed``) and ``_whole()``, which
    decodes them into a complete ``X``.  The shell then takes the class
    and instance dict of that ``X``, so it never stays half built: a
    decode that fails raises :class:`CacheCorruptionError` and leaves it
    packed.  The hook sits on shell classes, never on ``X``: a class
    with ``__getattr__`` loses the interpreter's specialized attribute
    loads.
    """

    def __getattr__(self, name: str):
        # Probes for optional hooks (copy's ``__deepcopy__``, ...) must
        # not unpack.
        if name.startswith("__") or name == "_packed":
            raise AttributeError(name)
        self._unpack()
        return getattr(self, name)

    def _unpack(self) -> None:
        try:
            whole = self._whole()
        except Exception as exc:
            raise CacheCorruptionError(
                "undecodable %s in a cached record: %s" % (type(self).__bases__[-1].__name__, exc)
            ) from exc
        self.__class__ = type(whole)
        self.__dict__ = whole.__dict__
