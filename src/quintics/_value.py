"""The base of the package's value classes.

A value class lists its fields in ``__slots__``; a slot whose name starts
with an underscore is a cache, not a field.  Its own ``__init__`` sets the
fields with :meth:`_Value._set`, or one by one with ``_setattr`` where the
class is built on a hot path, which costs less than ``_set``'s loop.  From
:class:`_Value` it gets equality between instances of one class with equal
fields, a hash of the field values, the repr ``Name(field=value, ...)``, a
refusal of every assignment and deletion, and copies and pickles that go
through the constructor.  A class decorator of the standard library would
generate the same methods, but importing it loads ``inspect``, and compiling
each class's methods from source costs every fresh interpreter about a fifth
of its set-up.
"""

from __future__ import annotations

from operator import attrgetter

_setattr = object.__setattr__


class _Value:
    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._fields += tuple(name for name in cls.__dict__.get("__slots__", ()) if name[0] != "_")
        # not a descriptor, so self._values is the getter itself
        cls._values = attrgetter(*cls._fields)

    def _set(self, *values) -> None:
        """Set the fields, in their order, to ``values``."""
        for name, value in zip(self._fields, values):
            _setattr(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not by assignment
        return type(self), tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
