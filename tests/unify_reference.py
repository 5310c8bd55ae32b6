"""The walker and solver that ``holtypes.unify.relate`` was introduced beside.

A reference for the differential tests in ``test_unify.py``: ``_combine``,
``compare`` and ``_decompose`` below are the relation and the decomposition
as they stood before ``compare`` learned to collect facts as it walks, and
``_Solution``, ``_solve`` and ``reduce`` the solver as it stood before
``relate`` took over orienting relations and ``_Solution.absorb`` lost its
two unreachable branches, all unchanged, so the current walker and solver
can be compared with them fact for fact and binding for binding.  Not used
by holtypes itself.
"""

from __future__ import annotations

from holtypes.errors import ConflictError, MismatchError, OccursError, UnificationError
from holtypes.types import (
    Bottom,
    Constructed,
    Fun,
    Prim,
    SubstitutionSet,
    Tuple,
    Var,
    apply_bindings,
    free_type_vars,
)
from holtypes.unify import Relation, _bind_priority


def _combine(relations):
    if any(r is Relation.INCOMPARABLE for r in relations):
        return Relation.INCOMPARABLE
    if any(r is Relation.MORE_ABSTRACT_STRICT for r in relations):
        return Relation.MORE_ABSTRACT_STRICT
    return Relation.MORE_ABSTRACT


def compare(t, s):
    """Is ``t`` at least as abstract as ``s``?

    Variables are symmetric among themselves and strictly more abstract
    than anything else, subject to the occurs check.  Structural cases
    need the same shape on both sides and compare component-wise; the
    result is strict as soon as one component is strict.
    """
    if isinstance(t, Bottom) or isinstance(s, Bottom):
        return Relation.INCOMPARABLE
    if t is s:
        return Relation.MORE_ABSTRACT
    if isinstance(t, Var):
        if isinstance(s, Var):
            return Relation.MORE_ABSTRACT
        if t in s.fv:
            return Relation.INCOMPARABLE
        return Relation.MORE_ABSTRACT_STRICT
    if isinstance(s, Var):
        return Relation.INCOMPARABLE
    if isinstance(t, Fun) and isinstance(s, Fun):
        if len(t.parts) != len(s.parts):
            return Relation.INCOMPARABLE
        return _combine([compare(a, b) for a, b in zip(t.parts, s.parts)])
    if isinstance(t, Tuple) and isinstance(s, Tuple):
        return _combine([compare(t.left, s.left), compare(t.right, s.right)])
    if isinstance(t, Constructed) and isinstance(s, Constructed):
        if t.ctor != s.ctor or len(t.args) != len(s.args):
            return Relation.INCOMPARABLE
        return _combine([compare(a, b) for a, b in zip(t.args, s.args)])
    return Relation.INCOMPARABLE


def _decompose(t, s, facts):
    """Split ``t >= s`` into irreducible (var, type) facts."""
    if t is s:
        return
    if isinstance(t, Var):
        facts.append((t, s))
        return
    if isinstance(s, Var):
        # Only reachable through reconciliation; the initial relation never
        # puts a bare variable on the concrete side alone.
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
    """Accumulates variable bindings, kept idempotent throughout.

    The bindings are applied unvalidated while they grow; ``freeze``
    validates the finished set once.
    """

    def __init__(self):
        self.bindings = {}

    def resolve(self, t):
        return apply_bindings(self.bindings, t) if self.bindings else t

    def absorb(self, a, b):
        """Record that the resolved forms of ``a`` and ``b`` must match."""
        ra = self.resolve(a)
        rb = self.resolve(b)
        if ra == rb:
            return
        if isinstance(ra, Var) and isinstance(rb, Var):
            if _bind_priority(rb) > _bind_priority(ra):
                ra, rb = rb, ra
            self._bind(ra, rb)
        elif isinstance(ra, Var):
            self._bind(ra, rb)
        elif isinstance(rb, Var):
            self._bind(rb, ra)
        elif isinstance(a, Var) and a in self.bindings:
            # The variable already resolved to a different type: the two
            # bindings must themselves reconcile.
            self._reconcile(a, ra, rb)
        elif isinstance(b, Var) and b in self.bindings:
            self._reconcile(b, rb, ra)
        else:
            facts = []
            _decompose(ra, rb, facts)
            for x, y in facts:
                self.absorb(x, y)

    def _reconcile(self, var, t1, t2):
        try:
            merged = _solve(t1, t2)
        except UnificationError:
            raise ConflictError(var, t1, t2) from None
        for v2, t2_ in merged.bindings.items():
            self.absorb(v2, t2_)

    def _bind(self, var, t):
        if var in free_type_vars(t):
            raise OccursError(var, t)
        one = {var: t}
        for v, b in list(self.bindings.items()):
            nb = apply_bindings(one, b)
            if v in free_type_vars(nb):
                raise OccursError(v, nb)
            self.bindings[v] = nb
        self.bindings[var] = t

    def freeze(self):
        return SubstitutionSet(dict(self.bindings))


def _solve(t, s):
    facts = []
    _decompose(t, s, facts)
    sol = _Solution()
    for var, bound in facts:
        sol.absorb(var, bound)
    return sol.freeze()


def reduce(t, s):
    """Reduce the relation ``t >= s`` to a substitution set.

    The relation must hold (caller's responsibility); when it does not,
    the failure is a mismatch, or an occurs failure when the obstacle is
    a variable occurring in the opposing composite type.
    """
    rel = compare(t, s)
    if rel is Relation.INCOMPARABLE:
        if (
            isinstance(t, Var)
            and not isinstance(s, (Var, Prim, Bottom))
            and t in free_type_vars(s)
        ):
            raise OccursError(t, s)
        raise MismatchError(t, s)
    return _solve(t, s)
