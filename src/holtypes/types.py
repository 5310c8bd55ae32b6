"""Type expressions, substitutions, and the typing context.

Type variables are identified by their (name, counter) pair: ``'a`` and
``'a#1`` are distinct variables.  Function types are kept in a canonical
flat form: the final component is never itself a function type, so two
spellings of the same curried type are the same type.

Types are interned (hash-consed) and immutable: each type class maps its
normalised fields to the one live instance, so ``==`` and ``hash`` are
identity, each type computes its free variables (``fv``) once, ``copy``,
``deepcopy`` and ``pickle`` return the interned object, and ``Bottom()``
is ``BOTTOM``.  The tables hold types weakly and take no lock: holtypes is
single-threaded.
"""

from __future__ import annotations

import weakref

from .records import FrozenRecord

PRIMITIVE_NAMES = ("nat", "bool", "int")

LAMBDA_NAMESPACE = "lambda@"

_NO_VARS = frozenset()


class _Entry(weakref.ref):
    """A weak table entry that removes itself once its type dies."""

    __slots__ = ("table", "key")

    def drop(self):
        if self.table.get(self.key) is self:  # not re-bound meanwhile
            del self.table[self.key]


def _interned(cls, key):
    """The live ``cls`` for ``key``; on a miss, one built from ``_fields(key)``."""
    table = cls._table
    entry = table.get(key)
    t = entry() if entry is not None else None
    if t is None:
        t = object.__new__(cls)
        for slot, value in zip(cls.__slots__, t._fields(key)):
            object.__setattr__(t, slot, value)
        entry = table[key] = _Entry(t, _Entry.drop)
        entry.table, entry.key = table, key
    return t


def _components_fv(components):
    """The variables of a composite type, after checking its components."""
    for t in components:
        if not isinstance(t, TypeExpr):
            raise TypeError(f"expected a TypeExpr, got {t!r}")
        if t is BOTTOM:
            raise ValueError("the error type cannot appear inside another type")
    return _NO_VARS.union(*[t.fv for t in components]) or _NO_VARS


class TypeExpr:
    """Base class for all type expressions, which are interned."""

    __slots__ = ("__weakref__",)
    __match_args__ = ()
    fv = _NO_VARS

    def __str__(self):
        return format_type(self)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __copy__(self, *memo):
        return self

    __deepcopy__ = __copy__


class Var(TypeExpr):
    """A type variable, optionally decorated with a modification counter."""

    __slots__ = __match_args__ = ("name", "counter")
    _table = {}

    def __new__(cls, name, counter=None):
        return _interned(cls, (name, counter))

    def _fields(self, key):
        name, counter = key
        if not name:
            raise ValueError("type variable needs a name")
        if counter is not None and counter < 0:
            raise ValueError("modification counter must be non-negative")
        return key

    @property
    def fv(self):
        # Not stored: a slot holding a set of the variable is a cycle.
        return frozenset((self,))

    def is_placeholder(self):
        return self.name.startswith(LAMBDA_NAMESPACE)


class Prim(TypeExpr):
    __slots__ = __match_args__ = ("name",)
    _table = {}

    def __new__(cls, name):
        return _interned(cls, name)

    def _fields(self, name):
        if name not in PRIMITIVE_NAMES:
            raise ValueError(f"not a primitive type: {name!r}")
        return (name,)


class Fun(TypeExpr):
    """A function type ``t1 => ... => tn => r`` stored as a flat part list.

    A trailing function type is absorbed into the part list, so curried
    spellings of one type are one object.
    """

    __slots__ = ("parts", "fv")
    __match_args__ = ("parts",)
    _table = {}

    def __new__(cls, parts):
        parts = tuple(parts)
        if parts and isinstance(parts[-1], Fun):
            parts = parts[:-1] + parts[-1].parts
        return _interned(cls, parts)

    def _fields(self, parts):
        if len(parts) < 2:
            raise ValueError("function types need at least two components")
        return parts, _components_fv(parts)


class Tuple(TypeExpr):
    __slots__ = ("left", "right", "fv")
    __match_args__ = ("left", "right")
    _table = {}

    def __new__(cls, left, right):
        return _interned(cls, (left, right))

    def _fields(self, key):
        return (*key, _components_fv(key))


BUILTIN_UNARY_CTORS = ("list", "set", "option")


class Constructed(TypeExpr):
    """A type built by applying a type constructor, e.g. ``'a list``."""

    __slots__ = ("args", "ctor", "fv")
    __match_args__ = ("args", "ctor")
    _table = {}

    def __new__(cls, args, ctor):
        return _interned(cls, (tuple(args), ctor))

    def _fields(self, key):
        args, ctor = key
        if ctor in BUILTIN_UNARY_CTORS and len(args) != 1:
            raise ValueError(f"{ctor} takes exactly one type argument")
        return (*key, _components_fv(args))


class Bottom(TypeExpr):
    """The error type: marks a node whose type could not be established."""

    __slots__ = ()

    def __new__(cls):
        return BOTTOM


BOTTOM = object.__new__(Bottom)


def list_of(t):
    return Constructed((t,), "list")


def set_of(t):
    return Constructed((t,), "set")


def option_of(t):
    return Constructed((t,), "option")


def free_type_vars(t):
    """The set of variables occurring in ``t`` (empty for the error type)."""
    return t.fv


class SubstitutionSet(FrozenRecord):
    """A set of bindings ``var := type`` applied pointwise to types.

    The mapping is kept idempotent: no domain variable occurs in any
    range type, and every binding passes the occurs check.
    """

    __slots__ = ("bindings",)

    def __init__(self, bindings=None):
        bindings = {} if bindings is None else bindings
        for var, t in bindings.items():
            if var in t.fv:
                raise ValueError(f"occurs check failed for {var} := {t}")
            if not t.fv.isdisjoint(bindings):
                raise ValueError(f"binding {var} := {t} mentions another domain variable")
        object.__setattr__(self, "bindings", bindings)

    def __len__(self):
        return len(self.bindings)

    def __bool__(self):
        return bool(self.bindings)


def apply_subst(s, t):
    """Replace every occurrence of a domain variable of ``s`` in ``t``."""
    return apply_bindings(s.bindings, t)


def apply_bindings(bindings, t):
    """``apply_subst`` on a plain ``{var: type}`` dict, which is trusted
    to be idempotent: the unifier's inner loops use it to skip building a
    validated ``SubstitutionSet`` per step."""
    if isinstance(t, Var):
        return bindings.get(t, t)
    if t.fv.isdisjoint(bindings):
        return t
    if isinstance(t, Fun):
        return Fun(tuple(apply_bindings(bindings, p) for p in t.parts))
    if isinstance(t, Tuple):
        return Tuple(apply_bindings(bindings, t.left), apply_bindings(bindings, t.right))
    return Constructed(tuple(apply_bindings(bindings, a) for a in t.args), t.ctor)


class TypeContext:
    """Maps AST node ids to types.

    Keyed by node id rather than by expression structure: two textual
    occurrences of one variable are distinct nodes, linked through the
    binder map of ``exprs.binders``.

    ``occurrences`` maps each type variable to the ids of nodes whose
    type mentions it, so a substitution can rewrite just those nodes.
    Invariant: every node whose type mentions ``v`` is indexed under
    ``v``.  ``set_type`` is the only writer of ``node_types`` and keeps
    the index; an id may stay indexed under a variable its type no
    longer mentions, which costs one rewrite that changes nothing.
    """

    def __init__(self):
        self.node_types = {}
        self.occurrences = {}

    def set_type(self, node_id, t):
        self.node_types[node_id] = t
        for v in t.fv:
            self.occurrences.setdefault(v, set()).add(node_id)

    def type_of(self, node_id):
        return self.node_types.get(node_id)


def format_type(t):
    """Render a type in the concrete syntax accepted by ``parse_type``."""
    if isinstance(t, Var):
        base = f"'{t.name}"
        return base if t.counter is None else f"{base}#{t.counter}"
    if isinstance(t, Prim):
        return t.name
    if isinstance(t, Bottom):
        return "<error>"
    if isinstance(t, Fun):
        rendered = []
        for p in t.parts:
            text = format_type(p)
            if isinstance(p, Fun):
                text = f"({text})"
            rendered.append(text)
        return " => ".join(rendered)
    if isinstance(t, Tuple):
        return f"({format_type(t.left)}, {format_type(t.right)})"
    if isinstance(t, Constructed):
        if not t.args:
            return t.ctor
        if len(t.args) == 1:
            arg = t.args[0]
            text = format_type(arg)
            if isinstance(arg, (Fun, Tuple)):
                text = f"({text})"
            return f"{text} {t.ctor}"
        inner = ", ".join(format_type(a) for a in t.args)
        return f"({inner}) {t.ctor}"
    raise TypeError(f"not a type expression: {t!r}")
