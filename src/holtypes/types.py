"""Type expressions, substitutions, and the typing context.

Type variables are identified by their (name, counter) pair: ``'a`` and
``'a#1`` are distinct variables.  Function types are kept in a canonical
flat form: the final component is never itself a function type, so two
spellings of the same curried type compare structurally equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PRIMITIVE_NAMES = ("nat", "bool", "int")

LAMBDA_NAMESPACE = "lambda@"


class TypeExpr:
    """Base class for all type expressions."""

    __slots__ = ()

    def __str__(self):
        return format_type(self)


@dataclass(frozen=True)
class Var(TypeExpr):
    """A type variable, optionally decorated with a modification counter."""

    name: str
    counter: int | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("type variable needs a name")
        if self.counter is not None and self.counter < 0:
            raise ValueError("modification counter must be non-negative")

    def is_placeholder(self):
        return self.name.startswith(LAMBDA_NAMESPACE)


@dataclass(frozen=True)
class Prim(TypeExpr):
    name: str

    def __post_init__(self):
        if self.name not in PRIMITIVE_NAMES:
            raise ValueError(f"not a primitive type: {self.name!r}")


def _check_component(t):
    if not isinstance(t, TypeExpr):
        raise TypeError(f"expected a TypeExpr, got {t!r}")
    if isinstance(t, Bottom):
        raise ValueError("the error type cannot appear inside another type")


@dataclass(frozen=True)
class Fun(TypeExpr):
    """A function type ``t1 => ... => tn => r`` stored as a flat part list.

    A trailing function type is absorbed into the part list, which makes
    structural equality coincide with curried equality.
    """

    parts: tuple[TypeExpr, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if parts and isinstance(parts[-1], Fun):
            parts = parts[:-1] + parts[-1].parts
        if len(parts) < 2:
            raise ValueError("function types need at least two components")
        for p in parts:
            _check_component(p)
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Tuple(TypeExpr):
    left: TypeExpr
    right: TypeExpr

    def __post_init__(self):
        _check_component(self.left)
        _check_component(self.right)


BUILTIN_UNARY_CTORS = ("list", "set", "option")


@dataclass(frozen=True)
class Constructed(TypeExpr):
    """A type built by applying a type constructor, e.g. ``'a list``."""

    args: tuple[TypeExpr, ...]
    ctor: str

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if self.ctor in BUILTIN_UNARY_CTORS and len(self.args) != 1:
            raise ValueError(f"{self.ctor} takes exactly one type argument")
        for a in self.args:
            _check_component(a)


@dataclass(frozen=True)
class Bottom(TypeExpr):
    """The error type: marks a node whose type could not be established."""


BOTTOM = Bottom()


def list_of(t):
    return Constructed((t,), "list")


def set_of(t):
    return Constructed((t,), "set")


def option_of(t):
    return Constructed((t,), "option")


def free_type_vars(t):
    """The set of variables occurring in ``t`` (empty for the error type)."""
    if isinstance(t, Var):
        return frozenset((t,))
    if isinstance(t, (Prim, Bottom)):
        return frozenset()
    if isinstance(t, Fun):
        out = frozenset()
        for p in t.parts:
            out |= free_type_vars(p)
        return out
    if isinstance(t, Tuple):
        return free_type_vars(t.left) | free_type_vars(t.right)
    if isinstance(t, Constructed):
        out = frozenset()
        for a in t.args:
            out |= free_type_vars(a)
        return out
    raise TypeError(f"not a type expression: {t!r}")


@dataclass(frozen=True)
class SubstitutionSet:
    """A set of bindings ``var := type`` applied pointwise to types.

    The mapping is kept idempotent: no domain variable occurs in any
    range type, and every binding passes the occurs check.
    """

    bindings: dict[Var, TypeExpr] = field(default_factory=dict)

    def __post_init__(self):
        domain = set(self.bindings)
        for var, t in self.bindings.items():
            vars_of_t = free_type_vars(t)
            if var in vars_of_t:
                raise ValueError(f"occurs check failed for {var} := {t}")
            if domain & vars_of_t:
                raise ValueError(
                    f"binding {var} := {t} mentions another domain variable"
                )

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
    if isinstance(t, (Prim, Bottom)):
        return t
    if isinstance(t, Fun):
        return Fun(tuple(apply_bindings(bindings, p) for p in t.parts))
    if isinstance(t, Tuple):
        return Tuple(apply_bindings(bindings, t.left), apply_bindings(bindings, t.right))
    if isinstance(t, Constructed):
        return Constructed(tuple(apply_bindings(bindings, a) for a in t.args), t.ctor)
    raise TypeError(f"not a type expression: {t!r}")


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
        for v in free_type_vars(t):
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
