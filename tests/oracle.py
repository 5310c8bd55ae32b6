"""A brute-force unification oracle for validating the reduction engine.

The oracle answers the same question as ``reduce`` by different means:
it re-implements the abstract-concrete relation as a plain recursive
predicate and searches exhaustively for a substitution that makes the
two types structurally equal, enumerating candidate types over a small
grammar.  It shares no code with the engine's comparison or solver.
"""

from __future__ import annotations

import itertools

from holtypes.errors import HolTypesError
from holtypes.types import (
    Bottom,
    Constructed,
    Fun,
    Prim,
    SubstitutionSet,
    Tuple,
    Var,
    apply_subst,
    free_type_vars,
)

DEFAULT_CAP = 2_000_000


class BudgetExceededError(HolTypesError):
    def __init__(self, size, cap):
        super().__init__(f"enumeration space {size} exceeds cap {cap}")
        self.size = size
        self.cap = cap


def relation_holds(t, s):
    """Independent check of "t is at least as abstract as s"."""
    if isinstance(t, Bottom) or isinstance(s, Bottom):
        return False
    if isinstance(t, Var):
        if isinstance(s, (Var, Prim)):
            return True
        return t not in free_type_vars(s)
    if isinstance(s, Var):
        return False
    if isinstance(t, Prim):
        return isinstance(s, Prim) and t.name == s.name
    if isinstance(t, Fun) and isinstance(s, Fun):
        return len(t.parts) == len(s.parts) and all(
            relation_holds(a, b) for a, b in zip(t.parts, s.parts)
        )
    if isinstance(t, Tuple) and isinstance(s, Tuple):
        return relation_holds(t.left, s.left) and relation_holds(t.right, s.right)
    if isinstance(t, Constructed) and isinstance(s, Constructed):
        return (
            t.ctor == s.ctor
            and len(t.args) == len(s.args)
            and all(relation_holds(a, b) for a, b in zip(t.args, s.args))
        )
    return False


def enumerate_types(variables, depth):
    """All types over nat, bool, list, option, binary => and the given
    variables, up to the given structural depth."""
    current = [Prim("nat"), Prim("bool")] + list(variables)
    seen = set(current)
    for _ in range(depth - 1):
        new = []
        for t in current:
            for built in (Constructed((t,), "list"), Constructed((t,), "option")):
                if built not in seen:
                    seen.add(built)
                    new.append(built)
        for a, b in itertools.product(current, repeat=2):
            built = Fun((a, b))
            if built not in seen:
                seen.add(built)
                new.append(built)
        current = current + new
    return current


def _size(t):
    if isinstance(t, (Var, Prim)):
        return 1
    if isinstance(t, Fun):
        return 1 + sum(_size(p) for p in t.parts)
    if isinstance(t, Tuple):
        return 1 + _size(t.left) + _size(t.right)
    if isinstance(t, Constructed):
        return 1 + sum(_size(a) for a in t.args)
    return 1


def _compatible(a, b):
    """Can ``a`` and ``b`` possibly become equal under some substitution?
    Variables are treated as wildcards, so this never rules out a real
    equalizer."""
    if isinstance(a, Var) or isinstance(b, Var):
        return True
    if isinstance(a, Prim) and isinstance(b, Prim):
        return a.name == b.name
    if isinstance(a, Fun) and isinstance(b, Fun):
        pa, pb = a.parts, b.parts
        if len(pa) == len(pb):
            return all(_compatible(x, y) for x, y in zip(pa, pb))
        if len(pa) < len(pb):
            pa, pb = pb, pa
        if not isinstance(pb[-1], Var):
            return False
        return all(_compatible(x, y) for x, y in zip(pa[: len(pb) - 1], pb[:-1]))
    if isinstance(a, Tuple) and isinstance(b, Tuple):
        return _compatible(a.left, b.left) and _compatible(a.right, b.right)
    if isinstance(a, Constructed) and isinstance(b, Constructed):
        return (
            a.ctor == b.ctor
            and len(a.args) == len(b.args)
            and all(_compatible(x, y) for x, y in zip(a.args, b.args))
        )
    return False


def _oppositions(t, s, out):
    """Collect, per variable, the terms it stands opposite to when the
    two types are walked in lockstep.  Returns False when two concrete
    positions already clash."""
    if t == s:
        return True
    if isinstance(t, Var):
        if not isinstance(s, Var):
            if t in free_type_vars(s):
                return False
            out.setdefault(t, []).append(s)
        return True
    if isinstance(s, Var):
        if s in free_type_vars(t):
            return False
        out.setdefault(s, []).append(t)
        return True
    if isinstance(t, Prim) and isinstance(s, Prim):
        return t.name == s.name
    if isinstance(t, Fun) and isinstance(s, Fun):
        tp, sp = t.parts, s.parts
        if len(tp) != len(sp):
            if len(tp) < len(sp):
                tp, sp = sp, tp
            if not isinstance(sp[-1], Var):
                return False
            for a, b in zip(tp[: len(sp) - 1], sp[:-1]):
                if not _oppositions(a, b, out):
                    return False
            return _oppositions(Fun(tp[len(sp) - 1 :]), sp[-1], out)
        return all(_oppositions(a, b, out) for a, b in zip(tp, sp))
    if isinstance(t, Tuple) and isinstance(s, Tuple):
        return _oppositions(t.left, s.left, out) and _oppositions(t.right, s.right, out)
    if isinstance(t, Constructed) and isinstance(s, Constructed):
        if t.ctor != s.ctor or len(t.args) != len(s.args):
            return False
        return all(_oppositions(a, b, out) for a, b in zip(t.args, s.args))
    return False


def oracle_equalize(t, s, depth_budget=3, cap=DEFAULT_CAP):
    """Exhaustively search for a substitution that makes ``t`` and ``s``
    structurally equal; None when there is none within the budget."""
    if t == s:
        return SubstitutionSet({})
    variables = sorted(free_type_vars(t) | free_type_vars(s),
                       key=lambda v: (v.name, v.counter if v.counter is not None else -1))
    opposition = {}
    if not _oppositions(t, s, opposition):
        return None
    pool = sorted(enumerate_types(variables, depth_budget), key=_size)
    per_var = []
    for v in variables:
        opposed = opposition.get(v, [])
        candidates = [c for c in pool if c != v and all(_compatible(c, o) for o in opposed)]
        per_var.append([None] + candidates)  # None keeps the variable free
    space = 1
    for options in per_var:
        space *= len(options)
        if space > cap:
            raise BudgetExceededError(space, cap)
    for assignment in itertools.product(*per_var):
        bindings = {v: c for v, c in zip(variables, assignment) if c is not None}
        if not bindings:
            continue
        domain = set(bindings)
        if any(domain & free_type_vars(c) for c in bindings.values()):
            continue
        subst = SubstitutionSet(bindings)
        if apply_subst(subst, t) == apply_subst(subst, s):
            return subst
    return None


def oracle_unify(t, s, var_budget=2, depth_budget=3, cap=DEFAULT_CAP):
    """Reference implementation of reduction: succeeds exactly when the
    abstract-concrete relation holds and an equalizing substitution
    exists within the enumeration budget; None otherwise."""
    variables = free_type_vars(t) | free_type_vars(s)
    if len(variables) > var_budget:
        raise ValueError(f"{len(variables)} variables exceed the budget of {var_budget}")
    if not relation_holds(t, s):
        return None
    return oracle_equalize(t, s, depth_budget=depth_budget, cap=cap)
