"""The abstract-concrete relation, reduction to substitutions, and the
unification steps for applications and lambda abstractions.

``compare(t, s)`` decides whether ``t`` is at least as abstract as ``s``.
The relation is not an ordering: it is symmetric on bare variables, and a
variable is more abstract than any type it does not occur in.  Given a
``facts`` list, the walk also appends the irreducible facts ``var :=
type`` it meets, left to right, and stops at the first incomparable part.

``reduce(t, s)`` solves those facts into one idempotent substitution set.
When two facts bind the same variable to different types, the bindings
are reconciled by a recursive reduction before giving up.

``relate`` is the pipeline's one way from a relation to a substitution:
it walks each direction it tries once, reduces the facts of the first
that holds, and each caller decides what a failure means.
"""

from __future__ import annotations

import enum

from .errors import ConflictError, MismatchError, OccursError, UnificationError
from .exprs import VarExpr
from .types import (
    BOTTOM,
    Bottom,
    Constructed,
    Fun,
    SubstitutionSet,
    Tuple,
    Var,
    apply_bindings,
    apply_subst,
)


class Relation(enum.Enum):
    MORE_ABSTRACT_STRICT = "more-abstract-strict"
    MORE_ABSTRACT = "more-abstract"
    INCOMPARABLE = "incomparable"

    def holds(self):
        """True for both the strict and the non-strict relation."""
        return self is not Relation.INCOMPARABLE


def compare(t, s, facts=None):
    """Is ``t`` at least as abstract as ``s``?

    Variables are symmetric among themselves and strictly more abstract
    than anything else, subject to the occurs check.  Structural cases
    need the same shape on both sides and compare component-wise; the
    result is strict as soon as one component is strict.  Each ``var >=
    type`` met on the way is appended to ``facts`` when one is given.
    """
    if isinstance(t, Bottom) or isinstance(s, Bottom):
        return Relation.INCOMPARABLE
    if t is s:
        return Relation.MORE_ABSTRACT
    if isinstance(t, Var):
        loose = isinstance(s, Var)
        if not loose and t in s.fv:
            return Relation.INCOMPARABLE
        if facts is not None:
            facts.append((t, s))
        return Relation.MORE_ABSTRACT if loose else Relation.MORE_ABSTRACT_STRICT
    if isinstance(t, Fun) and isinstance(s, Fun) and len(t.parts) == len(s.parts):
        pairs = zip(t.parts, s.parts)
    elif isinstance(t, Tuple) and isinstance(s, Tuple):
        pairs = ((t.left, s.left), (t.right, s.right))
    elif (isinstance(t, Constructed) and isinstance(s, Constructed)
          and t.ctor == s.ctor and len(t.args) == len(s.args)):
        pairs = zip(t.args, s.args)
    else:
        return Relation.INCOMPARABLE
    rel = Relation.MORE_ABSTRACT
    for a, b in pairs:
        # Through the module global, so wrappers see the recursive calls.
        r = compare(a, b, facts)
        if r is Relation.INCOMPARABLE:
            return r
        if r is Relation.MORE_ABSTRACT_STRICT:
            rel = r
    return rel


def _bind_priority(v):
    # Which of two variables gives way in a variable-variable binding:
    # lambda placeholders lose to everything, modified variables lose to
    # unmodified ones (fresher counters first), user-written names win.
    if v.is_placeholder():
        return (2, v.counter if v.counter is not None else -1)
    if v.counter is not None:
        return (1, v.counter)
    return (0, -1)


def _decompose(t, s, facts):
    """Split two bindings of one variable, ``t`` and ``s``, into the
    irreducible (var, type) facts that reconcile them."""
    if t is s:
        return
    if isinstance(t, Var):
        facts.append((t, s))
        return
    if isinstance(s, Var):
        facts.append((s, t))
        return
    if isinstance(t, Fun) and isinstance(s, Fun):
        # Canonical flattening makes structural equality curried equality,
        # so unequal part counts group the longer tail against the last
        # component of the shorter type.
        tp, sp = t.parts, s.parts
        if len(tp) != len(sp):
            if len(tp) < len(sp):
                tp, sp = sp, tp
            m = len(sp)
            for a, b in zip(tp[: m - 1], sp[: m - 1]):
                _decompose(a, b, facts)
            _decompose(Fun(tp[m - 1 :]), sp[m - 1], facts)
            return
        for a, b in zip(tp, sp):
            _decompose(a, b, facts)
        return
    if isinstance(t, Tuple) and isinstance(s, Tuple):
        _decompose(t.left, s.left, facts)
        _decompose(t.right, s.right, facts)
        return
    if (
        isinstance(t, Constructed)
        and isinstance(s, Constructed)
        and t.ctor == s.ctor
        and len(t.args) == len(s.args)
    ):
        for a, b in zip(t.args, s.args):
            _decompose(a, b, facts)
        return
    raise MismatchError(t, s)


class _Solution:
    """Solves (var, type) facts into variable bindings, kept idempotent
    throughout.

    The bindings are applied unvalidated while they grow; ``freeze``
    validates the finished set once.
    """

    def __init__(self, facts):
        self.bindings = {}
        for var, bound in facts:
            self.absorb(var, bound)

    def resolve(self, t):
        return apply_bindings(self.bindings, t) if self.bindings else t

    def absorb(self, var, t):
        """Record that the resolved forms of ``var`` and ``t`` must match."""
        rv = self.resolve(var)
        rt = self.resolve(t)
        if rv is rt:
            return
        if isinstance(rv, Var) and isinstance(rt, Var):
            if _bind_priority(rt) > _bind_priority(rv):
                rv, rt = rt, rv
            self._bind(rv, rt)
        elif isinstance(rv, Var):
            self._bind(rv, rt)
        elif isinstance(rt, Var):
            self._bind(rt, rv)
        else:
            # The variable already resolved to a different type: the two
            # bindings must themselves reconcile.
            self._reconcile(var, rv, rt)

    def _reconcile(self, var, t1, t2):
        facts = []
        try:
            _decompose(t1, t2, facts)
            merged = _Solution(facts).freeze()
        except UnificationError:
            raise ConflictError(var, t1, t2) from None
        for v2, t2_ in merged.bindings.items():
            self.absorb(v2, t2_)

    def _bind(self, var, t):
        if var in t.fv:
            raise OccursError(var, t)
        one = {var: t}
        for v, b in list(self.bindings.items()):
            nb = apply_bindings(one, b)
            if v in nb.fv:
                raise OccursError(v, nb)
            self.bindings[v] = nb
        self.bindings[var] = t

    def freeze(self):
        return SubstitutionSet(dict(self.bindings))


def reduce(t, s, facts=None):
    """Reduce the relation ``t >= s`` to a substitution set.

    The relation must hold (caller's responsibility); when it does not,
    the failure is a mismatch, or an occurs failure when the obstacle is
    a variable occurring in the opposing composite type.  The ``facts`` of
    a ``compare(t, s, facts)`` walk that held spare a second walk.
    """
    if facts is None:
        facts = []
        if compare(t, s, facts) is Relation.INCOMPARABLE:
            if isinstance(t, Var) and t in s.fv:
                raise OccursError(t, s)
            raise MismatchError(t, s)
    return _Solution(facts).freeze()


def relate(t, s, both=True):
    """Reduce ``t >= s`` if it holds, else, with ``both``, ``s >= t`` if
    that holds; ``None`` when neither does.  A failed reduction raises
    ``UnificationError``.  Each direction tried is walked once, and the
    walk that holds collects the facts ``reduce`` solves.  ``compare`` and
    ``reduce`` are read as module globals, so wrappers rebound over them
    see these calls."""
    for left, right in ((t, s), (s, t)) if both else ((t, s),):
        facts = []
        if compare(left, right, facts).holds():
            return reduce(left, right, facts)
    return None


def unify_app(sess, e, head_type):
    """Unify the inferred argument types of an application against the
    positional types of its head, rewriting the context after each step.
    Returns the positional types with every substitution applied.

    Per argument: relate the inferred and the positional type in either
    direction; when they do not relate, or the reduction fails, flag the
    argument and move on.
    """
    parts = list(head_type.parts)
    for i, arg in enumerate(e.args):
        sigma = sess.ctx.type_of(arg.node_id)
        tau = parts[i]
        if sigma is None or isinstance(sigma, Bottom):
            continue
        try:
            subst = relate(sigma, tau)
        except UnificationError as err:
            sess.fail_unification(arg.node_id, err)
            continue
        if subst is None:
            sess.fail(arg.node_id, "mismatch",
                      f"argument {i + 1} of {e.head!r}: {sigma} does not fit {tau}")
            continue
        if subst:
            before = sess.ctx.type_of(e.node_id)
            sess.apply_substitution(subst)
            parts = [apply_subst(subst, p) for p in parts]
            sess.trace_rule("Uni-App", e.node_id, before, sess.ctx.type_of(e.node_id))
    return parts


def unify_abs(sess, e, positions):
    """Unify a lambda with its body: a parameter that appears directly as
    an argument of the body application takes that position's type, and
    the lambda's function type is rebuilt accordingly.

    ``positions`` is what ``unify_app`` returned for the body, with no
    substitution since; ``None`` means the body is no application with
    arguments, or failed first.
    """
    if positions is None:
        return
    body = e.body
    changed = False
    for i, arg in enumerate(body.args):
        if i >= len(positions) - 1 or not isinstance(arg, VarExpr):
            continue
        param_id = sess.binders.get(arg.node_id)
        if param_id in e.param_ids and sess.ctx.type_of(param_id) is not positions[i]:
            sess.ctx.set_type(param_id, positions[i])
            changed = True
    if changed:
        before = sess.ctx.type_of(e.node_id)
        param_types = [sess.ctx.type_of(pid) for pid in e.param_ids]
        body_type = sess.ctx.type_of(body.node_id)
        if isinstance(body_type, Bottom) or any(isinstance(p, Bottom) for p in param_types):
            sess.ctx.set_type(e.node_id, BOTTOM)
            return
        new_type = Fun(tuple(param_types) + (body_type,))
        sess.ctx.set_type(e.node_id, new_type)
        sess.trace_rule("Uni-Abs", e.node_id, before, new_type)
