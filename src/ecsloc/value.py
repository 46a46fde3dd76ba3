"""The package's one immutable-value idiom.

A value type subclasses `Value` and names its fields in the class line; it
checks every field in its one `__new__`, which ends in
``return tuple.__new__(cls, (field, ...))``:

    class Span(Value, fields="low high"):
        def __new__(cls, low: int, high: int = 0):
            if low > high:
                raise ValueError(...)
            return tuple.__new__(cls, (low, high))

A type with nothing to check needs no `__new__` (``defaults=(...)`` in the
class line sets defaults).  The class is built on `collections.namedtuple`
with no instance dict, so a build is one call.  A field read costs about
twice a slotted attribute's on CPython 3.11, so hot code reads a field it
uses twice into a local.

A value equals only a value of its own type with equal fields, never a
bare tuple, and hashes by its fields; values are not ordered.  Setting or
deleting an attribute raises `dataclasses.FrozenInstanceError`, imported
only then, as `dataclasses` loads `inspect`.  `replace`, namedtuple's
`_replace` and `_make`, copies and pickles all build through `__new__`, so
no path skips the checks.  A derived field, such as an index, is the last:
the constructor derives it when it is None, its default, and the type
mixes in `Indexed`, so a change derives it again and a copy or pickle keeps
it.  A value is still a tuple: it unpacks, indexes and has a length, and
one with no fields is false in a truth test.
"""

from __future__ import annotations

from collections import namedtuple


class _ValueType(type):
    def __new__(mcls, name, bases, namespace, fields=None, defaults=None):
        if fields is not None:
            bases = (*bases, namedtuple(name, fields, defaults=defaults))
        namespace.setdefault("__slots__", ())
        return super().__new__(mcls, name, bases, namespace)


class Value(tuple, metaclass=_ValueType):
    """Base of every immutable value type in the package (see the module docstring)."""

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __lt__(self, other):
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """This value with *changes* applied, built and checked by the constructor again."""
        return type(self)(**{**self._asdict(), **changes})

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Indexed:
    """Mixin, listed before `Value`: `replace` and `_make` (which `_replace` calls) pass None for the last field."""

    __slots__ = ()

    def replace(self, **changes):
        return super().replace(**{self._fields[-1]: None, **changes})

    @classmethod
    def _make(cls, iterable):
        return cls(*tuple(iterable)[:-1])
