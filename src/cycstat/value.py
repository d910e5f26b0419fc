"""Base of the engine's immutable value classes."""

from operator import attrgetter


class Value:
    """An immutable value with the fields named in _fields, which __init__
    sets through __dict__.  It equals an object of the same class with equal
    fields, is hashed and shown by its fields, and refuses assignment."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._astuple = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        astuple = self._astuple
        return astuple(self) == astuple(other)

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")
