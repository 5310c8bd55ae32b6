"""Expression nodes of the abstract syntax tree.

Every node carries a unique integer id and a source span.  Nodes are
immutable by convention: inference keeps node types by id in
``TypedSpec.node_types`` and leaves the tree unchanged.
"""

from __future__ import annotations

from .records import Record

INTEGRAL = "integral"
BOOLEAN = "boolean"

# Binary operators and their binding levels, loosest first.  Application
# binds tighter than every level; all operators associate to the left
# except those in RIGHT_ASSOC.  The parser and the printers both read
# this table.
BINARY_OPS = {"=": 1, "<": 1, "+": 2, "-": 2, "*": 3, "div": 3, "#": 4, "!": 5}
RIGHT_ASSOC = frozenset(["#"])


class Span(Record):
    __slots__ = ("line", "column", "end_line", "end_column")

    def __init__(self, line, column, end_line, end_column):
        self.line, self.column = line, column
        self.end_line, self.end_column = end_line, end_column


class Expr(Record):
    __slots__ = ("node_id", "span")

    def __init__(self, node_id, span=None):
        self.node_id, self.span = node_id, span or Span(0, 0, 0, 0)

    @property
    def kind(self):
        return type(self).__name__


class ConstExpr(Expr):
    __slots__ = ("literal", "literal_kind")

    def __init__(self, node_id, span=None, literal="", literal_kind=INTEGRAL):
        self.node_id, self.span = node_id, span or Span(0, 0, 0, 0)
        self.literal, self.literal_kind = literal, literal_kind  # INTEGRAL or BOOLEAN


class VarExpr(Expr):
    __slots__ = ("name",)

    def __init__(self, node_id, span=None, name=""):
        self.node_id, self.span = node_id, span or Span(0, 0, 0, 0)
        self.name = name


class AppExpr(Expr):
    __slots__ = ("head", "args")

    def __init__(self, node_id, span=None, head="", args=None):
        self.node_id, self.span = node_id, span or Span(0, 0, 0, 0)
        self.head, self.args = head, [] if args is None else args


class LambdaExpr(Expr):
    __slots__ = ("params", "param_ids", "body")

    def __init__(self, node_id, span=None, params=None, param_ids=None, body=None):
        self.node_id, self.span, self.body = node_id, span or Span(0, 0, 0, 0), body
        self.params = [] if params is None else params
        self.param_ids = [] if param_ids is None else param_ids


class CaseExpr(Expr):
    __slots__ = ("scrutinee", "branches")

    def __init__(self, node_id, span=None, scrutinee=None, branches=None):
        self.node_id, self.span = node_id, span or Span(0, 0, 0, 0)
        self.scrutinee, self.branches = scrutinee, [] if branches is None else branches


class LetInExpr(Expr):
    __slots__ = ("pattern", "bound", "body")

    def __init__(self, node_id, span=None, pattern=None, bound=None, body=None):
        self.node_id, self.span = node_id, span or Span(0, 0, 0, 0)
        self.pattern, self.bound, self.body = pattern, bound, body


class ListExpr(Expr):
    __slots__ = ("elems",)

    def __init__(self, node_id, span=None, elems=None):
        self.node_id, self.span = node_id, span or Span(0, 0, 0, 0)
        self.elems = [] if elems is None else elems


class SetExpr(Expr):
    __slots__ = ("elems",)
    __init__ = ListExpr.__init__


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
    """Yield ``e`` and every descendant, pre-order, without recursing."""
    stack = [e]
    while stack:
        e = stack.pop()
        yield e
        stack += reversed(children(e))


def binders(patterns, rhs):
    """Map the node id of every use of a local name in one equation (a
    ``VarExpr`` or an ``AppExpr`` head of ``rhs``) to the node id of its
    binder: a pattern ``VarExpr`` or a lambda parameter.  Globals are absent.

    ``patterns`` bind over ``rhs``, a let's pattern over its body, a case
    pattern over its branch, lambda parameters over the lambda's body; the
    later of two binders of one name wins."""
    uses = {}
    todo = [(rhs, _extend({}, *patterns))]
    while todo:
        e, scope = todo.pop()
        if isinstance(e, (VarExpr, AppExpr)):
            name = e.name if isinstance(e, VarExpr) else e.head
            if name in scope:
                uses[e.node_id] = scope[name]
        if isinstance(e, LetInExpr):
            todo += [(e.bound, scope), (e.body, _extend(scope, e.pattern))]
        elif isinstance(e, CaseExpr):
            todo.append((e.scrutinee, scope))
            todo += [(body, _extend(scope, pat)) for pat, body in e.branches]
        elif isinstance(e, LambdaExpr):
            todo.append((e.body, {**scope, **dict(zip(e.params, e.param_ids))}))
        else:
            todo += [(c, scope) for c in children(e)]
    return uses


def _extend(scope, *patterns):
    """A copy of ``scope`` plus the ``VarExpr`` binders of ``patterns``."""
    scope = dict(scope)
    for pat in patterns:
        scope.update((v.name, v.node_id) for v in walk(pat) if isinstance(v, VarExpr))
    return scope


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
