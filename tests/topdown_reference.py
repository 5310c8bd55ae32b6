"""The top-down completion walk that ``holtypes.infer`` ran after the
return-type seed, before the seed became the pipeline's third stage.

A reference for the invariant tests in ``test_seed_completion.py``:
``POLYMORPHIC_COMPARISONS``, ``_td_replace`` and ``top_down`` below are
the deleted code unchanged.  ``walk_after_seed`` runs them after the seed
on every equation's live context, so a test can check that they never
change a type.  Not used by holtypes itself.
"""

from __future__ import annotations

import contextlib

from holtypes import infer
from holtypes.errors import UnificationError
from holtypes.exprs import (
    AppExpr,
    CaseExpr,
    ConstExpr,
    LambdaExpr,
    LetInExpr,
    ListExpr,
    SetExpr,
    VarExpr,
)
from holtypes.infer import UNSUPPORTED
from holtypes.types import Bottom, Constructed, Fun, apply_subst
from holtypes.unify import Relation, compare, relate

POLYMORPHIC_COMPARISONS = frozenset(["=", "<"])


def _td_replace(sess, node, new, rule, strict):
    """Replace a node's type when the current one is more abstract than
    the pushed one; a failed comparison leaves the node untouched."""
    cur = sess.ctx.type_of(node.node_id)
    if cur is None or isinstance(cur, Bottom) or isinstance(new, Bottom):
        return
    if cur == new:
        return
    rel = compare(cur, new)
    if rel is Relation.INCOMPARABLE:
        return
    if strict and rel is not Relation.MORE_ABSTRACT_STRICT:
        return
    sess.ctx.set_type(node.node_id, new)
    sess.td_replacements.append((node.node_id, cur, new))
    sess.trace_rule(rule, node.node_id, cur, new)


def top_down(sess, e):
    """Push the expected type of ``e`` (already in the context) down into
    its sub-expressions, making abstract types concrete."""
    ctx = sess.ctx
    t_e = ctx.type_of(e.node_id)
    if t_e is None or isinstance(t_e, Bottom):
        return

    if isinstance(e, AppExpr):
        if e.head in POLYMORPHIC_COMPARISONS:
            # No constraint flows from a polymorphic comparison's result
            # to its operands.
            return
        if e.node_id not in sess.binders and e.head in sess.registry:
            inst = sess.registry.instantiate(e.head)
            parts = inst.parts if isinstance(inst, Fun) else (inst,)
            if len(parts) - 1 >= len(e.args):
                ret = parts[-1] if len(e.args) == len(parts) - 1 else Fun(parts[len(e.args):])
                try:
                    subst = relate(ret, t_e, both=False)
                except UnificationError:
                    subst = None
                for i, arg in enumerate(e.args):
                    if subst is not None:
                        _td_replace(sess, arg, apply_subst(subst, parts[i]),
                                    "App-TD", strict=True)
                    top_down(sess, arg)
                return
        for arg in e.args:
            top_down(sess, arg)
        return

    if isinstance(e, (ListExpr, SetExpr)):
        ctor = "list" if isinstance(e, ListExpr) else "set"
        rule = "List-TD" if ctor == "list" else "Set-TD"
        shaped = isinstance(t_e, Constructed) and t_e.ctor == ctor
        for elem in e.elems:
            if shaped:
                _td_replace(sess, elem, ctx.type_of(e.node_id).args[0], rule, strict=False)
            top_down(sess, elem)
        return

    if isinstance(e, LetInExpr):
        _td_replace(sess, e.body, t_e, "Let-TD", strict=False)
        top_down(sess, e.body)
        return

    if isinstance(e, CaseExpr):
        for _, body in e.branches:
            _td_replace(sess, body, ctx.type_of(e.node_id), "Case-TD", strict=False)
            top_down(sess, body)
        return

    if isinstance(e, (LambdaExpr, VarExpr, ConstExpr)):
        return

    sess.fail(e.node_id, UNSUPPORTED, f"cannot complete a type for {e.kind}")


def complete(sess, rhs, declared_ret):
    """Run what followed the seed's substitution: the ``TD-Seed``
    replacement at the root, then the walk.  The walk records its
    replacements on ``sess.td_replacements``, which is set up here;
    returns that list."""
    sess.td_replacements = []
    _td_replace(sess, rhs, declared_ret, "TD-Seed", strict=False)
    top_down(sess, rhs)
    return sess.td_replacements


class _Log:
    def __init__(self):
        self.equations = 0
        self.compares = 0
        self.violations = []


@contextlib.contextmanager
def walk_after_seed():
    """Run the reference walk after every seed while the block runs;
    yields the log of equations, walk comparisons and violations."""
    global compare
    log = _Log()
    seed, original = infer._seed_return_type, compare

    def counting_compare(t, s):
        log.compares += 1
        return original(t, s)

    def seed_then_walk(sess, rhs, declared_ret):
        seed(sess, rhs, declared_ret)
        before, errors = dict(sess.ctx.node_types), len(sess.errors)
        counter = sess.registry.fresh_counter
        replaced = complete(sess, rhs, declared_ret)
        sess.registry.fresh_counter = counter
        log.equations += 1
        changed = {k: (before.get(k), t) for k, t in sess.ctx.node_types.items()
                   if before.get(k) != t}
        if replaced or changed or len(sess.errors) != errors:
            log.violations.append((rhs.node_id, replaced, changed, sess.errors[errors:]))

    infer._seed_return_type, compare = seed_then_walk, counting_compare
    try:
        yield log
    finally:
        infer._seed_return_type, compare = seed, original
