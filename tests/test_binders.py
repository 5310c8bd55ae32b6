"""Name analysis: ``exprs.binders`` maps each use of a local name to its
binder, and inference types every use from that map alone."""

import pytest
from hypothesis import example, given, settings, strategies as st

import holtypes as h
from holtypes.exprs import AppExpr, LambdaExpr, VarExpr, binders, walk
from holtypes.parser import BUILTIN_CTOR_NAMES, KEYWORDS

from corpus import infer_source


def _equation(declared, equation):
    """Patterns and right-hand side of a one-equation function ``f``."""
    theory = h.parse_theory(f'fun f :: "{declared}" where "{equation}"')
    return theory.functions[0].equations[0]


def _vars(root, name):
    """Every ``VarExpr`` named ``name`` under ``root``, pre-order."""
    return [n for n in walk(root) if isinstance(n, VarExpr) and n.name == name]


def test_let_bound_sees_the_outer_scope():
    (x,), rhs = _equation("nat => nat", "f x = (let x = x + 1 in x)")
    pattern, bound_use, body_use = _vars(rhs, "x")
    uses = binders([x], rhs)
    assert uses[bound_use.node_id] == x.node_id
    assert uses[body_use.node_id] == pattern.node_id
    assert pattern.node_id not in uses


def test_lambda_param_shadows_pattern_variable():
    (x,), rhs = _equation("nat => nat list", "f x = map (\\<lambda>x. x + 1) [x]")
    lam = next(n for n in walk(rhs) if isinstance(n, LambdaExpr))
    inner, outer = _vars(rhs, "x")
    uses = binders([x], rhs)
    assert uses[inner.node_id] == lam.param_ids[0]
    assert uses[outer.node_id] == x.node_id


def test_case_names_stay_in_their_branch():
    patterns, rhs = _equation("nat list => nat",
                              "f xs = (case y of (y # ys) => y | [] => y + length ys)")
    scrutinee, pattern, first, second = _vars(rhs, "y")
    _, ys_use = _vars(rhs, "ys")
    uses = binders(patterns, rhs)
    assert uses[first.node_id] == pattern.node_id
    assert scrutinee.node_id not in uses
    assert second.node_id not in uses
    assert ys_use.node_id not in uses


@pytest.mark.parametrize("declared, equation", [
    ("nat list => nat", "f (x # x) = x"),
    ("nat => nat => nat", "f x x = x"),
    ("nat => nat", "f y = (let [x, x] = [y, y] in x)"),
])
def test_later_pattern_binder_wins(declared, equation):
    patterns, rhs = _equation(declared, equation)
    *bound, use = [v for root in (*patterns, rhs) for v in _vars(root, "x")]
    assert binders(patterns, rhs)[use.node_id] == bound[-1].node_id


def test_later_lambda_param_wins():
    patterns, rhs = _equation("nat => nat", "f y = (\\<lambda>x x. x)")
    (use,) = _vars(rhs, "x")
    assert binders(patterns, rhs) == {use.node_id: rhs.param_ids[1]}


def test_shadowed_lambda_param_takes_no_position_type():
    # Only the later ``k`` is an argument of ``take``; the earlier one stays
    # unconstrained, so the declared ``'q`` fits it.
    src = ('fun g :: "nat list => (\'q => nat => nat list) list" where '
           '"g xs = [(\\<lambda>k k. take k xs)]"')
    theory, result = infer_source(src)
    (ts,) = result.typed_specs
    lam = next(n for n in walk(theory.functions[0].equations[0][1]) if isinstance(n, LambdaExpr))
    assert not ts.diagnostics
    assert ts.type_of(lam.node_id) == h.parse_type("'q => nat => nat list")


def test_globals_are_absent():
    patterns, rhs = _equation("nat list => nat", "f xs = length xs + length [] + size")
    (xs,) = patterns
    assert binders(patterns, rhs) == {_vars(rhs, "xs")[0].node_id: xs.node_id}


def test_local_application_head_maps_to_its_binder():
    patterns, rhs = _equation("(nat => nat) => nat", "f length = length 0")
    assert isinstance(rhs, AppExpr)
    assert binders(patterns, rhs) == {rhs.node_id: patterns[0].node_id}


# Well-typed equations with one bound variable ``{v}``, bound by each kind
# of binder.  ``map`` in the lambda template stays outside the lambda body,
# so renaming the parameter to ``map`` captures nothing.
RENAMING_TEMPLATES = [
    ("('b => nat) => 'b => nat", "h f y = (let {v} = f in {v} y)"),
    ("('b => nat) list => 'b => nat", "h fs y = (case fs of ({v} # r) => {v} y | [] => 0)"),
    ("('b => nat) => 'b => nat", "h {v} y = {v} y"),
    ("nat list => nat list", "h xs = map (\\<lambda>{v}. {v} + 1) xs"),
    ("'b list => 'b list", "h xs = (case xs of [] => [] | ({v} # r) => {v} # r)"),
    ("nat => nat", "h x = (let {v} = x + 1 in {v} * {v})"),
]
REGISTRY_FUNCTIONS = ["length", "map", "take"]
_TAKEN = {"h", "f", "y", "fs", "r", "xs", "x", "v"}
_PRELUDE = h.SolverRegistry.with_prelude()


def _node_types(declared, equation, name):
    source = f'fun h :: "{declared}" where "{equation.format(v=name)}"'
    theory, result = infer_source(source)
    (ts,) = result.typed_specs
    return ts.node_types, [(d.kind, d.message) for d in ts.diagnostics]


fresh_names = st.from_regex(r"[a-z][a-z0-9]{0,4}", fullmatch=True).filter(
    lambda n: n not in KEYWORDS and n not in BUILTIN_CTOR_NAMES and n not in _TAKEN
    and n not in _PRELUDE)


@settings(max_examples=60, deadline=None)
@given(template=st.sampled_from(RENAMING_TEMPLATES),
       name=st.sampled_from(REGISTRY_FUNCTIONS) | fresh_names)
@example(template=RENAMING_TEMPLATES[0], name="length")
@example(template=RENAMING_TEMPLATES[1], name="length")
def test_renaming_a_bound_variable_keeps_every_node_type(template, name):
    declared, equation = template
    expected = _node_types(declared, equation, "v")
    assert not expected[1]
    assert _node_types(declared, equation, name) == expected
