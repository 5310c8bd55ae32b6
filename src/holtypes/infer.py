"""The inference pipeline, run per function equation in three stages.

Each equation's names are resolved to their binders first, by
``exprs.binders``.  Then its patterns are typed by the declared parameter
types and decomposed, the right-hand side is inferred bottom-up with
unification, and the return-type seed relates the declared return type
to the inferred one, which rewrites every node the substitution touches.
"""

from __future__ import annotations

from .errors import (
    ConflictError,
    OccursError,
    UnificationError,
    UnknownNameError,
)
from .exprs import (
    AppExpr,
    CaseExpr,
    ConstExpr,
    INTEGRAL,
    LambdaExpr,
    LetInExpr,
    ListExpr,
    SetExpr,
    VarExpr,
    binders,
    walk,
)
from .records import Record
from .registry import SolverRegistry
from .types import (
    BOTTOM,
    Bottom,
    Constructed,
    Fun,
    LAMBDA_NAMESPACE,
    Prim,
    TypeContext,
    Var,
    apply_subst,
    format_type,
    list_of,
    set_of,
)
from .unify import relate, unify_abs, unify_app

MISMATCH = "mismatch"
OCCURS = "occurs"
CONFLICT = "conflict"
UNKNOWN_NAME = "unknown-name"
UNSUPPORTED = "unsupported"


class Diagnostic(Record):
    __slots__ = ("node_id", "kind", "message")

    def __init__(self, node_id, kind, message):
        self.node_id, self.kind, self.message = node_id, kind, message


def _kind_for(err):
    if isinstance(err, OccursError):
        return OCCURS
    if isinstance(err, ConflictError):
        return CONFLICT
    if isinstance(err, UnknownNameError):
        return UNKNOWN_NAME
    return MISMATCH


class TypedSpec(Record):
    """A function specification together with its inferred node types."""

    __slots__ = ("spec", "node_types", "diagnostics")

    def __init__(self, spec, node_types, diagnostics):
        self.spec, self.node_types, self.diagnostics = spec, node_types, diagnostics

    def type_of(self, node_id):
        return self.node_types.get(node_id)


class InferenceSession:
    """Mutable state for inferring one theory: the current equation's
    context and binder map, the error list, the lambda placeholder
    counter, and rule tracing.

    Every write to ``ctx.node_types`` goes through ``ctx.set_type``, which
    indexes each node under the variables its type mentions;
    ``apply_substitution`` relies on that index to find every node a
    substitution changes.
    """

    def __init__(self, registry, trace=False):
        self.registry = registry
        self.ctx = TypeContext()
        self.binders = {}
        self.errors: list[Diagnostic] = []
        self.lambda_counter = 0
        self.trace: list[str] | None = [] if trace else None

    def diagnose(self, node_id, kind, message):
        self.errors.append(Diagnostic(node_id, kind, message))

    def fail(self, node_id, kind, message):
        """Flag a node and degrade it to the error type."""
        self.diagnose(node_id, kind, message)
        self.ctx.set_type(node_id, BOTTOM)

    def fail_unification(self, node_id, err):
        self.fail(node_id, _kind_for(err), str(err))

    def apply_substitution(self, subst):
        """Rewrite the nodes whose types mention a domain variable of
        ``subst``, found through the context's occurrence index.  The
        result mentions no domain variable, so their entries are dropped
        until a later ``set_type`` brings one back."""
        ctx = self.ctx
        touched = set()
        for v in subst.bindings:
            touched.update(ctx.occurrences.pop(v, ()))
        for k in touched:
            ctx.set_type(k, apply_subst(subst, ctx.node_types[k]))

    def trace_rule(self, rule, node_id, before, after):
        if self.trace is not None:
            b = format_type(before) if before is not None else "-"
            a = format_type(after) if after is not None else "-"
            self.trace.append(f"{rule} @ {node_id} : {b} ⟶ {a}")


def _poison(sess, e):
    """Mark a pattern node and everything below it, binders too, as failed."""
    for node in walk(e):
        sess.ctx.set_type(node.node_id, BOTTOM)


def _literal_type(e):
    """The type of a literal: ``nat`` for a numeral, else ``bool``."""
    return Prim("nat") if e.literal_kind == INTEGRAL else Prim("bool")


def _fit_pattern(sess, pattern, name, t, expected):
    """Relate a pattern's own type ``t`` to the ``expected`` one and apply
    the substitution, which is returned.  If they do not relate, flag and
    poison the pattern and return None."""
    try:
        subst = relate(t, expected)
    except UnificationError:
        subst = None
    if subst is None:
        sess.diagnose(pattern.node_id, MISMATCH,
                      f"pattern {name!r} has type {t}, expected {expected}")
        _poison(sess, pattern)
        return None
    sess.apply_substitution(subst)
    return subst


def extract_pattern_types(sess, pattern):
    """Walk a pattern whose own type is already in the context, assigning
    types to its parameters by decomposing the constructor's scheme."""
    ctx = sess.ctx
    expected = ctx.type_of(pattern.node_id)
    if isinstance(expected, Bottom):
        _poison(sess, pattern)
        return
    if isinstance(pattern, VarExpr):
        return
    if isinstance(pattern, ConstExpr):
        literal = _literal_type(pattern)
        if literal is not expected:
            _fit_pattern(sess, pattern, pattern.literal, literal, expected)
        return
    if isinstance(pattern, AppExpr):
        try:
            inst = sess.registry.instantiate(pattern.head)
        except UnknownNameError as err:
            sess.fail_unification(pattern.node_id, err)
            _poison(sess, pattern)
            return
        if pattern.args:
            if not isinstance(inst, Fun) or len(inst.parts) - 1 != len(pattern.args):
                sess.diagnose(pattern.node_id, MISMATCH,
                              f"constructor {pattern.head!r} does not take {len(pattern.args)} argument(s)")
                _poison(sess, pattern)
                return
            ret = inst.parts[-1]
        else:
            ret = inst
        subst = _fit_pattern(sess, pattern, pattern.head, ret, expected)
        if subst is None:
            return
        for arg, part in zip(pattern.args, inst.parts[:-1] if pattern.args else ()):
            t = apply_subst(subst, part)
            ctx.set_type(arg.node_id, t)
            sess.trace_rule("EX-App", arg.node_id, None, t)
            extract_pattern_types(sess, arg)
        return
    if isinstance(pattern, (ListExpr, SetExpr)):
        ctor = "list" if isinstance(pattern, ListExpr) else "set"
        rule = "List-TD" if ctor == "list" else "Set-TD"
        if not (isinstance(expected, Constructed) and expected.ctor == ctor):
            sess.diagnose(pattern.node_id, MISMATCH,
                          f"{ctor} pattern cannot have type {expected}")
            _poison(sess, pattern)
            return
        for elem in pattern.elems:
            elem_type = ctx.type_of(pattern.node_id).args[0]
            ctx.set_type(elem.node_id, elem_type)
            sess.trace_rule(rule, elem.node_id, None, elem_type)
            extract_pattern_types(sess, elem)
        return
    sess.diagnose(pattern.node_id, UNSUPPORTED,
                  f"{pattern.kind} is not valid in a pattern")
    _poison(sess, pattern)


def _unify_against(sess, node, target_of):
    """Unify one node's type with a target read afresh from the context
    (both directions), degrading the node to the error type on failure."""
    sigma = sess.ctx.type_of(node.node_id)
    tau = target_of()
    if isinstance(sigma, Bottom) or isinstance(tau, Bottom):
        return
    if sigma is tau:
        return
    try:
        subst = relate(sigma, tau)
    except UnificationError as err:
        sess.fail_unification(node.node_id, err)
        return
    if subst is None:
        sess.fail(node.node_id, MISMATCH,
                  f"type {sigma} does not agree with {tau}")
        return
    sess.apply_substitution(subst)


def bottom_up(sess, e):
    """Infer the type of ``e`` from its sub-expressions, unifying the
    inferred and positional types of applications and lambdas.  Returns
    ``unify_app``'s result for an application that reaches it, else None."""
    ctx = sess.ctx

    if isinstance(e, AppExpr):
        for arg in e.args:
            bottom_up(sess, arg)
        binder = sess.binders.get(e.node_id)
        if binder is not None:
            # The head is pattern- or lambda-bound: it has its actual
            # type and is not freshened.
            head_type = ctx.type_of(binder)
        elif e.head in sess.registry:
            head_type = sess.registry.instantiate(e.head)
        else:
            sess.fail(e.node_id, UNKNOWN_NAME,
                      f"unknown function or constructor: {e.head!r}")
            return
        if isinstance(head_type, Bottom) or any(
            isinstance(ctx.type_of(a.node_id), Bottom) for a in e.args
        ):
            ctx.set_type(e.node_id, BOTTOM)
            return
        if not e.args:
            ctx.set_type(e.node_id, head_type)
            sess.trace_rule("App-BU", e.node_id, None, head_type)
            return
        n_args = len(e.args)
        if not isinstance(head_type, Fun):
            sess.fail(e.node_id, MISMATCH,
                      f"{e.head!r} of type {head_type} is applied to arguments")
            return
        if n_args > len(head_type.parts) - 1:
            sess.fail(e.node_id, MISMATCH,
                      f"{e.head!r} takes {len(head_type.parts) - 1} argument(s), got {n_args}")
            return
        if n_args == len(head_type.parts) - 1:
            result = head_type.parts[-1]
            rule = "App-BU"
        else:
            result = Fun(head_type.parts[n_args:])
            rule = "Currying"
        ctx.set_type(e.node_id, result)
        sess.trace_rule(rule, e.node_id, None, result)
        return unify_app(sess, e, head_type)

    if isinstance(e, (ListExpr, SetExpr)):
        make = list_of if isinstance(e, ListExpr) else set_of
        rule = "List-BU" if isinstance(e, ListExpr) else "Set-BU"
        if not e.elems:
            # The parser lowers empty literals to Nil/EmptySet; cover
            # hand-built nodes the same way.
            name = "Nil" if isinstance(e, ListExpr) else "EmptySet"
            ctx.set_type(e.node_id, sess.registry.instantiate(name))
            sess.trace_rule(rule, e.node_id, None, ctx.type_of(e.node_id))
            return
        for elem in e.elems:
            bottom_up(sess, elem)
        first = ctx.type_of(e.elems[0].node_id)
        if isinstance(first, Bottom):
            ctx.set_type(e.node_id, BOTTOM)
            return
        ctx.set_type(e.node_id, make(first))
        sess.trace_rule(rule, e.node_id, None, ctx.type_of(e.node_id))
        for elem in e.elems[1:]:
            _unify_against(sess, elem,
                           lambda: ctx.type_of(e.node_id).args[0])
        return

    if isinstance(e, LetInExpr):
        bottom_up(sess, e.bound)
        ctx.set_type(e.pattern.node_id, ctx.type_of(e.bound.node_id))
        sess.trace_rule("Let-BU", e.pattern.node_id, None, ctx.type_of(e.pattern.node_id))
        extract_pattern_types(sess, e.pattern)
        bottom_up(sess, e.body)
        ctx.set_type(e.node_id, ctx.type_of(e.body.node_id))
        return

    if isinstance(e, CaseExpr):
        bottom_up(sess, e.scrutinee)
        for pat, body in e.branches:
            ctx.set_type(pat.node_id, ctx.type_of(e.scrutinee.node_id))
            extract_pattern_types(sess, pat)
            bottom_up(sess, body)
        first_body = e.branches[0][1]
        ctx.set_type(e.node_id, ctx.type_of(first_body.node_id))
        sess.trace_rule("Case-BU", e.node_id, None, ctx.type_of(e.node_id))
        for _, body in e.branches[1:]:
            _unify_against(sess, body, lambda: ctx.type_of(e.node_id))
        return

    if isinstance(e, LambdaExpr):
        for pid in e.param_ids:
            ctx.set_type(pid, Var(f"{LAMBDA_NAMESPACE}{sess.lambda_counter}"))
            sess.lambda_counter += 1
        positions = bottom_up(sess, e.body)
        param_types = [ctx.type_of(pid) for pid in e.param_ids]
        body_type = ctx.type_of(e.body.node_id)
        if isinstance(body_type, Bottom) or any(isinstance(p, Bottom) for p in param_types):
            ctx.set_type(e.node_id, BOTTOM)
            return
        ctx.set_type(e.node_id, Fun(tuple(param_types) + (body_type,)))
        sess.trace_rule("Abs-BU", e.node_id, None, ctx.type_of(e.node_id))
        unify_abs(sess, e, positions)
        return

    if isinstance(e, VarExpr):
        binder = sess.binders.get(e.node_id)
        if binder is not None:
            ctx.set_type(e.node_id, ctx.type_of(binder))
            sess.trace_rule("Exp-BU", e.node_id, None, ctx.type_of(e.node_id))
        elif e.name in sess.registry:
            t = sess.registry.instantiate(e.name)
            ctx.set_type(e.node_id, t)
            sess.trace_rule("Exp-BU", e.node_id, None, t)
        else:
            sess.fail(e.node_id, UNKNOWN_NAME, f"unbound name: {e.name!r}")
        return

    if isinstance(e, ConstExpr):
        t = _literal_type(e)
        ctx.set_type(e.node_id, t)
        sess.trace_rule("Const-BU", e.node_id, None, t)
        return

    sess.fail(e.node_id, UNSUPPORTED, f"cannot infer a type for {e.kind}")


def _seed_return_type(sess, rhs, declared_ret):
    """Stage 3: relate the right-hand side's inferred type to the declared
    return type and apply the substitution.  The occurrence index carries
    it to every node that mentions a bound variable, so the declared type
    reaches the whole right-hand side at once (an empty list included)."""
    ctx = sess.ctx
    cur = ctx.type_of(rhs.node_id)
    if cur is None or isinstance(cur, Bottom):
        return
    try:
        subst = relate(cur, declared_ret, both=False)
    except UnificationError as err:
        sess.fail_unification(rhs.node_id, err)
        return
    if subst is None:
        sess.fail(rhs.node_id, MISMATCH,
                  f"right-hand side has type {cur}, declared return type is {declared_ret}")
        return
    if subst:
        sess.apply_substitution(subst)


def infer_spec(sess, f):
    """Run the three stages over every equation of ``f``, each with a fresh
    context and binder map, and collect the final node types into a TypedSpec.
    Counters restart per function, so earlier functions do not renumber it."""
    sess.registry.fresh_counter = 0
    sess.lambda_counter = 0
    diag_start = len(sess.errors)
    node_types = {}
    for patterns, rhs in f.equations:
        sess.ctx = ctx = TypeContext()
        sess.binders = binders(patterns, rhs)
        for pat, declared in zip(patterns, f.param_types):
            ctx.set_type(pat.node_id, declared)
            sess.trace_rule("EX-Seed", pat.node_id, None, declared)
            extract_pattern_types(sess, pat)
        bottom_up(sess, rhs)
        _seed_return_type(sess, rhs, f.return_type)
        for root in (*patterns, rhs):
            for node in walk(root):
                node_types[node.node_id] = ctx.type_of(node.node_id) or BOTTOM
                if isinstance(node, LambdaExpr):
                    for pid in node.param_ids:
                        node_types[pid] = ctx.type_of(pid) or BOTTOM
    return TypedSpec(f, node_types, list(sess.errors[diag_start:]))


class InferenceResult(Record):
    __slots__ = ("registry", "typed_specs", "trace")

    def __init__(self, registry, typed_specs, trace=None):
        self.registry, self.typed_specs = registry, typed_specs
        self.trace = trace  # the rule lines, or None untraced

    @property
    def diagnostics(self):
        return [d for ts in self.typed_specs for d in ts.diagnostics]


def infer_theory(theory, trace=False):
    """Register all declarations and infer every function of a theory."""
    registry = SolverRegistry.with_prelude()
    sess = InferenceSession(registry, trace=trace)
    for decl in theory.datatypes:
        registry.register_datatype(decl)
    typed = []
    for f in theory.functions:
        registry.register_function(f)
        typed.append(infer_spec(sess, f))
    return InferenceResult(registry, typed, sess.trace)
