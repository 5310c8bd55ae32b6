"""The type solver: a registry of type schemes for functions and constructors.

Schemes are stored with their original variables.  Instantiation decorates
every variable of the scheme with the current value of a monotone counter
(``'a`` becomes ``'a#k``), so two uses of one scheme can never capture each
other's variables.

Builtin schemes are parsed once per process and shared read-only, which
is safe because schemes and types are frozen; each registry copies the
table and numbers its own instances.
"""

from __future__ import annotations

from functools import cache

from .errors import DuplicateNameError, UnknownNameError
from .records import FrozenRecord
from .types import (
    Constructed,
    Fun,
    Var,
    apply_bindings,
    format_type,
)

BUILTIN = "builtin"
DATATYPE_DECL = "datatype_decl"
FUNCTION_DECL = "function_decl"


class TypeScheme(FrozenRecord):
    """A type with its origin: BUILTIN, DATATYPE_DECL or FUNCTION_DECL."""

    __slots__ = ("body", "origin")

    def __init__(self, body, origin):
        counted = sorted(format_type(v) for v in body.fv if v.counter is not None)
        if counted:
            raise ValueError(f"schemes never carry counters: {counted[0]}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "origin", origin)


@cache
def _prelude():
    from .parser import parse_type

    table = {
        "Cons": "'a => 'a list => 'a list",
        "Nil": "'a list",
        "#": "'a => 'a list => 'a list",
        "Some": "'a => 'a option",
        "None": "'a option",
        "EmptySet": "'a set",
        "If": "bool => 'a => 'a => 'a",
        "length": "'a list => nat",
        "map": "('d => 'e) => 'd list => 'e list",
        "concat": "'a list list => 'a list",
        "drop": "nat => 'a list => 'a list",
        "take": "nat => 'a list => 'a list",
        "!": "'a list => nat => 'a",
        "div": "nat => nat => nat",
        "+": "nat => nat => nat",
        "-": "nat => nat => nat",
        "*": "nat => nat => nat",
        "=": "'a => 'a => bool",
        "<": "'a => 'a => bool",
    }
    return {name: TypeScheme(parse_type(text), BUILTIN) for name, text in table.items()}


class SolverRegistry:
    """Maps names to type schemes and hands out freshened instances."""

    def __init__(self, entries=None):
        self.entries = dict(entries) if entries else {}
        self.fresh_counter = 0

    @classmethod
    def with_prelude(cls):
        return cls(_prelude())

    def __contains__(self, name):
        return name in self.entries

    def register(self, name, body, origin):
        if name in self.entries:
            raise DuplicateNameError(name)
        self.entries[name] = TypeScheme(body, origin)

    def register_datatype(self, decl):
        """Register every constructor of a datatype declaration."""
        result = Constructed(tuple(Var(p) for p in decl.type_params), decl.name)
        for ctor_name, arg_types in decl.ctors:
            if arg_types:
                body = Fun(tuple(arg_types) + (result,))
            else:
                body = result
            self.register(ctor_name, body, DATATYPE_DECL)

    def register_function(self, spec):
        """Record a function's declared type; done before inferring its
        own equations so recursive calls resolve."""
        self.register(spec.name, spec.declared_type, FUNCTION_DECL)

    def instantiate(self, name):
        """The scheme body with every variable decorated by a fresh counter;
        the counter advances even when the scheme has no variables."""
        scheme = self.lookup(name)
        k = self.fresh_counter
        self.fresh_counter += 1
        return apply_bindings({v: Var(v.name, k) for v in scheme.body.fv}, scheme.body)

    def lookup(self, name):
        if name not in self.entries:
            raise UnknownNameError(name)
        return self.entries[name]

    def dump(self):
        """All entries as ``name :: type`` lines, sorted by name."""
        return [f"{name} :: {format_type(s.body)}" for name, s in sorted(self.entries.items())]
