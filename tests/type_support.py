"""Type helpers that only the tests need: counter erasure,
alpha-equivalence, and free variables found by walking a type."""

from holtypes.types import Bottom, Constructed, Fun, Prim, Tuple, Var


def erase_counters(t):
    """Strip every modification counter, keeping the structure."""
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, (Prim, Bottom)):
        return t
    if isinstance(t, Fun):
        return Fun(tuple(erase_counters(p) for p in t.parts))
    if isinstance(t, Tuple):
        return Tuple(erase_counters(t.left), erase_counters(t.right))
    if isinstance(t, Constructed):
        return Constructed(tuple(erase_counters(a) for a in t.args), t.ctor)
    raise TypeError(f"not a type expression: {t!r}")


def vars_by_walk(t):
    """The variables of ``t``, found by visiting every node: the reference
    for each type's cached ``fv``."""
    if isinstance(t, Var):
        return {t}
    if isinstance(t, Fun):
        return set().union(*map(vars_by_walk, t.parts))
    if isinstance(t, Tuple):
        return vars_by_walk(t.left) | vars_by_walk(t.right)
    if isinstance(t, Constructed):
        return set().union(*map(vars_by_walk, t.args))
    return set()


def alpha_equivalent(t, s):
    """Structural equality up to a consistent renaming of variables."""
    forward = {}
    backward = {}

    def go(a, b):
        if isinstance(a, Var) and isinstance(b, Var):
            if a in forward:
                return forward[a] == b
            if b in backward:
                return False
            forward[a] = b
            backward[b] = a
            return True
        if type(a) is not type(b):
            return False
        if isinstance(a, (Prim, Bottom)):
            return a == b
        if isinstance(a, Fun):
            return len(a.parts) == len(b.parts) and all(
                go(x, y) for x, y in zip(a.parts, b.parts)
            )
        if isinstance(a, Tuple):
            return go(a.left, b.left) and go(a.right, b.right)
        if isinstance(a, Constructed):
            return (
                a.ctor == b.ctor
                and len(a.args) == len(b.args)
                and all(go(x, y) for x, y in zip(a.args, b.args))
            )
        return False

    return go(t, s)
