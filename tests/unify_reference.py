"""The solver that ``holtypes.unify.relate`` was introduced beside.

A reference for the differential tests in ``test_unify.py``: ``_Solution``,
``_solve`` and ``reduce`` below are the code as it stood before ``relate``
took over orienting relations and ``_Solution.absorb`` lost its two
unreachable branches, unchanged, so the current solver can be compared
with it binding for binding.  Not used by holtypes itself.
"""

from __future__ import annotations

from holtypes.errors import ConflictError, MismatchError, OccursError, UnificationError
from holtypes.types import Bottom, Prim, SubstitutionSet, Var, apply_bindings, free_type_vars
from holtypes.unify import Relation, _bind_priority, _decompose, compare


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
