"""A base for the library's small record classes, importing nothing.

It stands in for ``dataclasses``, whose import pulls in ``inspect``,
``ast``, ``dis`` and more: a large share of a short CLI call.
"""


# Sets a field in __init__, past the __setattr__ that refuses it afterwards.
set_field = object.__setattr__


class Record:
    """Fields named by ``_fields``, set once in ``__init__`` by set_field.

    Behaves as a frozen dataclass: ``==`` holds only between records of
    one class with equal fields, the hash is the field tuple's, the repr
    is ``Name(field=value, ...)``, and assigning a field raises
    AttributeError.  Pickle and deepcopy rebuild through the constructor.
    """

    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
