"""Plain slotted records.

A record class names its fields in ``__slots__`` and writes its own
``__init__``.  These bases give it what ``dataclasses`` would: field-wise
``==``, the ``Name(field=value, ...)`` repr, and for frozen records a
field-wise hash and fields that cannot be assigned.  They generate no code,
so defining a record costs no more than defining any class, and a CLI
request never imports ``dataclasses`` (nor the ``inspect`` it pulls in).
"""


class Record:
    """Mutable record, compared field by field and so unhashable."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # every record's __init__ takes its fields positionally, in slot order
        return type(self), self._values()


class FrozenRecord(Record):
    """Immutable record, hashed on its fields.  Its ``__init__`` stores each
    field with ``object.__setattr__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
