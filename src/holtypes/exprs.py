"""Expression nodes of the abstract syntax tree.

Every node carries a unique integer id and a source span.  Nodes are
immutable by convention: inference keeps node types by id in
``TypedSpec.node_types`` and leaves the tree unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

INTEGRAL = "integral"
BOOLEAN = "boolean"

# Binary operators and their binding levels, loosest first.  Application
# binds tighter than every level; all operators associate to the left
# except those in RIGHT_ASSOC.  The parser and the printers both read
# this table.
BINARY_OPS = {"=": 1, "<": 1, "+": 2, "-": 2, "*": 3, "div": 3, "#": 4, "!": 5}
RIGHT_ASSOC = frozenset(["#"])


@dataclass
class Span:
    line: int
    column: int
    end_line: int
    end_column: int

    def to(self, other):
        return Span(self.line, self.column, other.end_line, other.end_column)


@dataclass
class Expr:
    node_id: int
    span: Span = field(default_factory=lambda: Span(0, 0, 0, 0), repr=False)

    @property
    def kind(self):
        return type(self).__name__


@dataclass
class ConstExpr(Expr):
    literal: str = ""
    literal_kind: str = INTEGRAL  # INTEGRAL or BOOLEAN


@dataclass
class VarExpr(Expr):
    name: str = ""


@dataclass
class AppExpr(Expr):
    head: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class LambdaExpr(Expr):
    params: list[str] = field(default_factory=list)
    param_ids: list[int] = field(default_factory=list)
    body: Expr = None


@dataclass
class CaseExpr(Expr):
    scrutinee: Expr = None
    branches: list[tuple[Expr, Expr]] = field(default_factory=list)


@dataclass
class LetInExpr(Expr):
    pattern: Expr = None
    bound: Expr = None
    body: Expr = None


@dataclass
class ListExpr(Expr):
    elems: list[Expr] = field(default_factory=list)


@dataclass
class SetExpr(Expr):
    elems: list[Expr] = field(default_factory=list)


def children(e):
    """Immediate sub-expressions of ``e`` in source order."""
    if isinstance(e, AppExpr):
        return list(e.args)
    if isinstance(e, LambdaExpr):
        return [e.body]
    if isinstance(e, CaseExpr):
        out = [e.scrutinee]
        for pat, body in e.branches:
            out.append(pat)
            out.append(body)
        return out
    if isinstance(e, LetInExpr):
        return [e.pattern, e.bound, e.body]
    if isinstance(e, (ListExpr, SetExpr)):
        return list(e.elems)
    return []


def walk(e):
    """Yield ``e`` and every descendant, pre-order."""
    yield e
    for c in children(e):
        yield from walk(c)


def equal_modulo_ids(a, b):
    """Structural equality ignoring node ids and spans."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ConstExpr):
        return a.literal == b.literal and a.literal_kind == b.literal_kind
    if isinstance(a, VarExpr):
        return a.name == b.name
    if isinstance(a, AppExpr):
        if a.head != b.head or len(a.args) != len(b.args):
            return False
    if isinstance(a, LambdaExpr):
        if a.params != b.params:
            return False
    if isinstance(a, CaseExpr):
        if len(a.branches) != len(b.branches):
            return False
    if isinstance(a, (ListExpr, SetExpr)) and len(a.elems) != len(b.elems):
        return False
    ca, cb = children(a), children(b)
    return len(ca) == len(cb) and all(equal_modulo_ids(x, y) for x, y in zip(ca, cb))
