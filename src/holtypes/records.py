"""The base of the plain records: tokens, spans, AST nodes and results.

A record lists its fields in ``__slots__`` and sets them in its own
``__init__`` (parameters in field order; nodes and tokens are built by
the thousand, and a shared field loop is slower).  The base compares
records of one class field by field, prints ``Name(field=...)`` without
``span`` and ``trace``, and copies and pickles through the constructor.
"""


class Record:
    __slots__ = ()
    __hash__ = None  # mutable

    def __init_subclass__(cls):
        # Every field, base classes first.
        cls.__match_args__ = tuple(
            f for c in reversed(cls.__mro__) for f in c.__dict__.get("__slots__", ()))

    def _values(self):
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__
                          if f not in ("span", "trace"))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


class FrozenRecord(Record):
    """A hashable record whose fields are set once, in ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return hash(self._values())
