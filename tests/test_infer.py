import copy
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import holtypes as h
from holtypes.exprs import AppExpr, ConstExpr, LambdaExpr, LetInExpr, VarExpr, binders, walk
from holtypes.infer import InferenceSession, bottom_up, extract_pattern_types
from holtypes.parser import BUILTIN_CTOR_NAMES, _ExprParser, _IdAllocator, _TokenStream, tokenize
from holtypes.unify import compare

from corpus import (
    BS_SPEC,
    CORPUS,
    MYMAP_SPEC,
    NEGATIVE_SPEC,
    PRODUCT_LISTS_SPEC,
    TEST_SPEC,
    all_diagnostics,
    find_app,
    infer_source,
    long_equation,
)
from conftest import type_exprs
from type_support import alpha_equivalent, erase_counters

nat = h.Prim("nat")
a = h.Var("a")


def parse_expr(text, start_id=1000):
    ids = _IdAllocator()
    ids.next_id = start_id
    ts = _TokenStream(tokenize(text))
    return _ExprParser(ts, ids, set(BUILTIN_CTOR_NAMES)).parse_expr()


def fresh_session():
    return InferenceSession(h.SolverRegistry.with_prelude())


class TestPatternExtraction:
    def test_list_pattern_elements_take_element_type(self):
        # second equation of the binary-search spec: pattern [y] against nat list
        theory, result = infer_source(BS_SPEC)
        ts = result.typed_specs[0]
        pattern = theory.functions[0].equations[1][0][1]
        assert ts.type_of(pattern.elems[0].node_id) == nat

    def test_cons_pattern_decomposition(self):
        theory, result = infer_source(TEST_SPEC)
        ts = result.typed_specs[0]
        pattern = theory.functions[0].equations[1][0][0]
        x, xs = pattern.args
        assert ts.type_of(x.node_id) == a
        assert ts.type_of(xs.node_id) == h.list_of(a)

    def test_constant_pattern_is_a_leaf(self):
        sess = fresh_session()
        pat = parse_expr("True")
        sess.ctx.set_type(pat.node_id, h.Prim("bool"))
        extract_pattern_types(sess, pat)
        assert not sess.errors

    def test_list_pattern_against_non_list_is_flagged(self):
        sess = fresh_session()
        ids = _IdAllocator()
        ids.next_id = 500
        ts = _TokenStream(tokenize("[y]"))
        pat = _ExprParser(ts, ids, set(BUILTIN_CTOR_NAMES)).parse_pattern_atom()
        sess.ctx.set_type(pat.node_id, nat)
        extract_pattern_types(sess, pat)
        assert sess.errors and sess.errors[0].kind == "mismatch"
        assert sess.ctx.type_of(pat.elems[0].node_id) == h.BOTTOM

    def test_unknown_constructor_flagged(self):
        sess = fresh_session()
        pat = parse_expr("Wrap x")
        sess.ctx.set_type(pat.node_id, nat)
        extract_pattern_types(sess, pat)
        assert sess.errors[0].kind == "unknown-name"

    def test_unsupported_pattern_degrades_its_binders(self):
        # A let whose pattern is a lambda, which only a hand-built tree has:
        # the variable under it is a binder and fails with it.
        binder, use = VarExpr(1, name="y"), VarExpr(4, name="y")
        pattern = LambdaExpr(2, params=["z"], param_ids=[3], body=binder)
        e = LetInExpr(5, pattern=pattern, bound=ConstExpr(6, literal="1"), body=use)
        sess = fresh_session()
        sess.binders = binders([], e)
        bottom_up(sess, e)
        assert [d.kind for d in sess.errors] == ["unsupported"]
        assert sess.ctx.type_of(use.node_id) == h.BOTTOM


class TestBottomUp:
    def run(self, text, bindings=()):
        # Each binding is a pattern variable with its type, outside ``e``.
        sess = fresh_session()
        e = parse_expr(text)
        patterns = [VarExpr(-1 - i, name=name) for i, (name, _) in enumerate(bindings)]
        for pat, (_, t) in zip(patterns, bindings):
            sess.ctx.set_type(pat.node_id, t)
        sess.binders = binders(patterns, e)
        bottom_up(sess, e)
        return sess, e

    def test_partial_application_curries(self):
        sess, e = self.run("Cons x", bindings=[("x", a)])
        assert sess.ctx.type_of(e.node_id) == h.Fun((h.list_of(a), h.list_of(a)))
        assert not sess.errors

    def test_empty_list_through_nil_scheme(self):
        sess, e = self.run("[]")
        t = sess.ctx.type_of(e.node_id)
        (v,) = h.free_type_vars(t)
        assert t == h.list_of(v)
        assert v.counter is not None

    def test_case_over_option(self):
        sess, e = self.run(
            "case bs of Some n => Some (n + 1) | None => None",
            bindings=[("bs", h.option_of(nat))],
        )
        assert sess.ctx.type_of(e.node_id) == h.option_of(nat)
        assert not sess.errors

    def test_integral_literal(self):
        sess, e = self.run("2")
        assert sess.ctx.type_of(e.node_id) == nat

    def test_boolean_literal(self):
        sess, e = self.run("False")
        assert sess.ctx.type_of(e.node_id) == h.Prim("bool")

    def test_list_literal_element_unification(self):
        # [0, x] with abstract x forces x to nat
        sess, e = self.run("[0, x]", bindings=[("x", h.Var("q", 9))])
        assert sess.ctx.type_of(e.node_id) == h.list_of(nat)
        assert sess.ctx.type_of(e.elems[1].node_id) == nat

    def test_set_literal(self):
        sess, e = self.run("{1, 2}")
        assert sess.ctx.type_of(e.node_id) == h.set_of(nat)

    def test_let_binding_types_body(self):
        sess, e = self.run("let y = 1 + 1 in y")
        assert sess.ctx.type_of(e.node_id) == nat

    def test_unknown_name_degrades_to_error_type(self):
        sess, e = self.run("frobnicate 1")
        assert sess.ctx.type_of(e.node_id) == h.BOTTOM
        assert sess.errors[0].kind == "unknown-name"

    def test_over_application_flagged(self):
        sess, e = self.run("length [1] [2]")
        assert sess.ctx.type_of(e.node_id) == h.BOTTOM
        assert sess.errors[0].kind == "mismatch"


class TestUnifyAppExamples:
    def test_if_application_resolves_nil(self):
        theory, result = infer_source(TEST_SPEC)
        ts = result.typed_specs[0]
        rhs = theory.functions[0].equations[1][1]
        if_app = find_app(rhs, "If")
        assert ts.type_of(if_app.node_id) == h.list_of(a)
        assert ts.type_of(if_app.args[1].node_id) == h.list_of(a)

    def test_length_argument_drives_scheme_variable(self):
        sess, e = TestBottomUp().run("length xs", bindings=[("xs", h.list_of(a))])
        assert sess.ctx.type_of(e.node_id) == nat
        assert not sess.errors

    def test_some_zero(self):
        sess, e = TestBottomUp().run("Some 0")
        assert sess.ctx.type_of(e.node_id) == h.option_of(nat)


class TestUnifyAbsExamples:
    def test_product_lists_lambda(self):
        theory, result = infer_source(PRODUCT_LISTS_SPEC)
        ts = result.typed_specs[0]
        rhs = theory.functions[0].equations[1][1]
        (lam,) = [n for n in walk(rhs) if isinstance(n, LambdaExpr)]
        assert ts.type_of(lam.node_id) == h.Fun((a, h.list_of(h.list_of(a))))

    def test_identity_lambda_keeps_placeholder(self):
        sess, e = TestBottomUp().run("%x. x")
        t = sess.ctx.type_of(e.node_id)
        assert isinstance(t, h.Fun) and t.parts[0] == t.parts[1]
        assert t.parts[0].is_placeholder()

    def test_two_parameter_lambda_matches_constructor_positions(self):
        sess, e = TestBottomUp().run("%x y. Cons x y")
        t = sess.ctx.type_of(e.node_id)
        assert alpha_equivalent(t, h.parse_type("'q => 'q list => 'q list"))
        # all three positions share one variable
        v = t.parts[0]
        assert t == h.Fun((v, h.list_of(v), h.list_of(v)))

    @staticmethod
    def traced_lambda(source):
        theory = h.parse_theory(source)
        result = h.infer_theory(theory, trace=True)
        rhs = theory.functions[-1].equations[0][1]
        (lam,) = [n for n in walk(rhs) if isinstance(n, LambdaExpr)]
        uni_abs = [line for line in result.trace if line.startswith("Uni-Abs")]
        return lam, result.typed_specs[-1], uni_abs

    def test_parameter_takes_body_position_type(self):
        # x is both arguments of g; Uni-Abs gives it the second position's type.
        lam, ts, uni_abs = self.traced_lambda(
            'fun g :: "nat => bool => nat" where "g n b = n"\n'
            'fun k :: "nat list => nat list" where "k xs = map (%x. g x x) xs"')
        assert uni_abs == [f"Uni-Abs @ {lam.node_id} : nat => nat ⟶ bool => nat"]
        assert [d.kind for d in ts.diagnostics] == ["mismatch", "mismatch"]

    def test_positions_come_from_the_body_application(self):
        # The inner application g x is unified last-but-one; the lambda must
        # read the positions of the outer one, whose argument is no parameter.
        lam, ts, uni_abs = self.traced_lambda(
            'fun g :: "nat => nat" where "g n = n"\n'
            'fun k :: "nat list => nat list" where "k xs = map (%x. g (g x)) xs"')
        assert ts.type_of(lam.node_id) == h.Fun((nat, nat))
        assert uni_abs == []
        assert not ts.diagnostics

    def test_positions_are_read_after_substitution(self):
        # Unifying 0 turns Cons's second position from 'a list into nat list;
        # the lambda must see the substituted position, which x already has.
        lam, ts, uni_abs = self.traced_lambda(
            'fun k :: "nat list list => nat list list" where '
            '"k xss = map (%x. Cons 0 x) xss"')
        assert ts.type_of(lam.node_id) == h.Fun((h.list_of(nat), h.list_of(nat)))
        assert uni_abs == []
        assert not ts.diagnostics

    def test_nullary_body(self):
        lam, ts, uni_abs = self.traced_lambda(
            'fun k :: "nat list => nat list list" where "k xs = map (%x. Nil) xs"')
        assert ts.type_of(lam.node_id) == h.Fun((nat, h.list_of(nat)))
        assert uni_abs == []
        assert not ts.diagnostics


class TestReturnTypeSeed:
    def test_nested_empty_list_completed(self):
        theory, result = infer_source(PRODUCT_LISTS_SPEC)
        ts = result.typed_specs[0]
        rhs = theory.functions[0].equations[0][1]
        assert ts.type_of(rhs.node_id) == h.list_of(h.list_of(a))
        inner = rhs.elems[0]
        assert ts.type_of(inner.node_id) == h.list_of(a)

    def test_substitution_reaches_let_binder_and_bound_value(self):
        # Bottom-up types [] as 'a#0 list; relating the result to the
        # declared nat list rewrites every node that mentions 'a#0.
        theory, result = infer_source(
            'fun f :: "nat => nat list" where "f x = (let z = [] in z)"')
        ts = result.typed_specs[0]
        let = theory.functions[0].equations[0][1]
        for node in (let, let.pattern, let.bound, let.body):
            assert ts.type_of(node.node_id) == h.list_of(nat)
        assert not ts.diagnostics


class TestInferSpec:
    def test_test_spec_fully_typed(self):
        theory, result = infer_source(TEST_SPEC)
        ts = result.typed_specs[0]
        assert not ts.diagnostics
        for patterns, rhs in theory.functions[0].equations:
            for node in walk(rhs):
                t = ts.type_of(node.node_id)
                assert t is not None and t != h.BOTTOM

    def test_bs_recursive_calls(self):
        theory, result = infer_source(BS_SPEC)
        ts = result.typed_specs[0]
        assert not ts.diagnostics
        rhs3 = theory.functions[0].equations[2][1]
        for call in (n for n in walk(rhs3) if isinstance(n, AppExpr) and n.head == "bs"):
            assert ts.type_of(call.node_id) == h.option_of(nat)
            assert ts.type_of(call.args[1].node_id) == h.list_of(nat)
        for patterns, rhs in theory.functions[0].equations:
            assert ts.type_of(rhs.node_id) == h.option_of(nat)

    def test_product_lists_annotation_types(self):
        theory, result = infer_source(PRODUCT_LISTS_SPEC)
        ts = result.typed_specs[0]
        assert not ts.diagnostics
        rhs = theory.functions[0].equations[1][1]
        cons_app = find_app(rhs, "Cons")
        assert ts.type_of(cons_app.node_id) == h.Fun((h.list_of(a), h.list_of(a)))
        outer_map = find_app(rhs, "map")
        assert ts.type_of(outer_map.node_id) == h.list_of(h.list_of(h.list_of(a)))
        assert ts.type_of(rhs.node_id) == h.list_of(h.list_of(a))

    def test_mymap_empty_list_takes_return_element_type(self):
        theory, result = infer_source(MYMAP_SPEC)
        ts = result.typed_specs[0]
        assert not ts.diagnostics
        rhs1 = theory.functions[0].equations[0][1]
        assert ts.type_of(rhs1.node_id) == h.list_of(h.Var("e"))

    def test_negative_spec_flags_rhs_root(self):
        theory, result = infer_source(NEGATIVE_SPEC)
        ts = result.typed_specs[0]
        assert len(ts.diagnostics) == 1
        d = ts.diagnostics[0]
        assert d.kind == "mismatch"
        assert d.node_id == theory.functions[0].equations[0][1].node_id
        assert ts.type_of(d.node_id) == h.BOTTOM

    def test_type_slots_populated(self):
        theory, result = infer_source(TEST_SPEC)
        ts = result.typed_specs[0]
        for node in theory.all_exprs():
            assert ts.type_of(node.node_id) is not None

    @pytest.mark.parametrize("name", sorted(CORPUS) + ["negative"])
    def test_inference_leaves_the_parse_unchanged(self, name):
        theory = h.parse_theory(NEGATIVE_SPEC if name == "negative" else CORPUS[name])
        before = copy.deepcopy(theory)
        first = h.infer_theory(theory, trace=True)
        assert theory == before
        second = h.infer_theory(theory, trace=True)
        assert second.typed_specs == first.typed_specs
        assert second.trace == first.trace

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_is_clean(self, name):
        theory, result = infer_source(CORPUS[name])
        assert not all_diagnostics(result)
        for f, ts in zip(theory.functions, result.typed_specs):
            assert not [nid for nid, t in ts.node_types.items() if isinstance(t, h.Bottom)]
            for patterns, rhs in f.equations:
                for p in patterns:
                    for node in walk(p):
                        assert node.node_id in ts.node_types
                for node in walk(rhs):
                    assert node.node_id in ts.node_types

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_pattern_types_consistent_with_declared(self, name):
        theory, result = infer_source(CORPUS[name])
        for f, ts in zip(theory.functions, result.typed_specs):
            for patterns, _ in f.equations:
                for pat, declared in zip(patterns, f.param_types):
                    assigned = ts.type_of(pat.node_id)
                    assert compare(declared, assigned).holds()

    def test_equation_order_does_not_change_types(self):
        fwd = ('fun f :: "nat list => nat" where '
               '"f [] = 0" | "f (y # ys) = y"')
        rev = ('fun f :: "nat list => nat" where '
               '"f (y # ys) = y" | "f [] = 0"')
        t1, r1 = infer_source(fwd)
        t2, r2 = infer_source(rev)
        types1 = [r1.typed_specs[0].type_of(rhs.node_id)
                  for _, rhs in t1.functions[0].equations]
        types2 = [r2.typed_specs[0].type_of(rhs.node_id)
                  for _, rhs in t2.functions[0].equations]
        assert sorted(map(str, types1)) == sorted(map(str, types2))

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_final_types_use_declared_variables_only(self, name):
        theory, result = infer_source(CORPUS[name])
        for f, ts in zip(theory.functions, result.typed_specs):
            declared = h.free_type_vars(f.declared_type)
            for t in ts.node_types.values():
                for v in h.free_type_vars(erase_counters(t)):
                    assert v in declared

    def test_equation_scopes_reset(self):
        # The same variable name takes unrelated types in different equations.
        src = ('fun f :: "nat => nat list => nat" where '
               '"f x [] = x" | "f x (y # ys) = y"')
        theory, result = infer_source(src)
        assert not result.typed_specs[0].diagnostics

    def test_later_equation_does_not_rewrite_earlier_one(self):
        # The second equation binds 'a := nat; the first keeps 'a.
        src = 'fun f :: "\'a => \'a" where "f x = x" | "f y = y + 1"'
        theory, result = infer_source(src)
        ts = result.typed_specs[0]
        (first_pats, first_rhs), (second_pats, _) = theory.functions[0].equations
        assert ts.type_of(first_pats[0].node_id) == a
        assert ts.type_of(first_rhs.node_id) == a
        assert ts.type_of(second_pats[0].node_id) == nat

    def test_trace_lines_have_rule_format(self):
        theory = h.parse_theory(TEST_SPEC)
        result = h.infer_theory(theory, trace=True)
        assert result.trace
        for line in result.trace:
            assert " @ " in line and " : " in line and "⟶" in line


class TestApplySubstitution:
    def test_rewrites_node_types(self):
        sess = fresh_session()
        sess.ctx.set_type(1, h.list_of(a))
        sess.apply_substitution(h.SubstitutionSet({a: nat}))
        assert sess.ctx.type_of(1) == h.list_of(nat)

    def test_identity(self):
        sess = fresh_session()
        sess.ctx.set_type(1, h.Prim("bool"))
        before = dict(sess.ctx.node_types)
        sess.apply_substitution(h.SubstitutionSet({}))
        assert sess.ctx.node_types == before

    def test_no_occurrence(self):
        sess = fresh_session()
        sess.ctx.set_type(1, h.Prim("bool"))
        sess.apply_substitution(h.SubstitutionSet({a: nat}))
        assert sess.ctx.type_of(1) == h.Prim("bool")

    def test_overwritten_node_keeps_a_stale_entry(self):
        # Node 1 stays indexed under 'a after its type stops mentioning it.
        sess = fresh_session()
        sess.ctx.set_type(1, h.list_of(a))
        sess.ctx.set_type(1, nat)
        sess.ctx.set_type(2, a)
        sess.apply_substitution(h.SubstitutionSet({a: h.Prim("bool")}))
        assert sess.ctx.node_types == {1: nat, 2: h.Prim("bool")}

    def test_bound_variable_reintroduced_later(self):
        b = h.Var("b")
        sess = fresh_session()
        sess.ctx.set_type(1, a)
        sess.apply_substitution(h.SubstitutionSet({a: h.list_of(b)}))
        sess.ctx.set_type(2, h.option_of(a))
        sess.apply_substitution(h.SubstitutionSet({a: nat}))
        sess.apply_substitution(h.SubstitutionSet({b: h.Prim("bool")}))
        assert sess.ctx.node_types == {1: h.list_of(h.Prim("bool")), 2: h.option_of(nat)}


_INDEX_VARS = (a, h.Var("b"), h.Var("a", 1))

# Types over each subset of the variables, built once: the range of a
# binding must avoid the substitution's domain.
_TYPES_OVER = {
    free: type_exprs(variables=list(free))
    for n in range(len(_INDEX_VARS) + 1)
    for free in combinations(_INDEX_VARS, n)
}

_set_step = st.tuples(st.just("set"), st.integers(0, 3), _TYPES_OVER[_INDEX_VARS])


@st.composite
def _subst_step(draw):
    domain = draw(st.lists(st.sampled_from(_INDEX_VARS), unique=True, min_size=1))
    free = _TYPES_OVER[tuple(v for v in _INDEX_VARS if v not in domain)]
    return ("subst", {v: draw(free) for v in domain})


# ``("set", node id, type)`` and ``("subst", bindings)`` steps over three
# variables and four node ids.
_context_steps = st.lists(st.one_of(_set_step, _subst_step()), min_size=1, max_size=12)


class TestOccurrenceIndex:
    """``apply_substitution`` through the index agrees with rewriting
    every node type of the context."""

    @settings(max_examples=200, deadline=None)
    @given(_context_steps)
    # A node overwritten with a type that no longer mentions 'a.
    @example([("set", 0, h.list_of(a)), ("set", 0, nat), ("subst", {a: h.Prim("bool")})])
    # A bound variable brought back by a later set_type.
    @example([("set", 0, a), ("subst", {a: nat}), ("set", 1, h.list_of(a)),
              ("subst", {a: h.option_of(h.Var("b"))})])
    def test_matches_whole_context_rewrite(self, steps):
        sess = fresh_session()
        reference = {}
        for step in steps:
            if step[0] == "set":
                _, node_id, t = step
                sess.ctx.set_type(node_id, t)
                reference[node_id] = t
            else:
                subst = h.SubstitutionSet(step[1])
                sess.apply_substitution(subst)
                reference = {k: h.apply_subst(subst, t) for k, t in reference.items()}
            assert list(sess.ctx.node_types.items()) == list(reference.items())
            for node_id, t in sess.ctx.node_types.items():
                for v in h.free_type_vars(t):
                    assert node_id in sess.ctx.occurrences[v]


# Prints how many types ``infer_theory`` builds (interning-table misses)
# on the theory read from stdin.
_COUNT_TYPES_BUILT = """
import sys
import holtypes as h
built = [0]
for cls in (h.Var, h.Prim, h.Fun, h.Tuple, h.Constructed):
    def fields(self, key, original=cls._fields):
        built[0] += 1
        return original(self, key)
    cls._fields = fields
theory = h.parse_theory(sys.stdin.read())
built[0] = 0
h.infer_theory(theory)
print(built[0])
"""


class TestScaling:
    def test_long_equation_builds_types_linearly(self, monkeypatch):
        """Inferring one long equation does work linear in its length (4x
        the elements, under 6x the work), not the length times the node
        count: both the function and constructed types built and the node
        types written.  Types are interned, so a full-context rewrite
        builds nothing new; the ``set_type`` count is what catches it."""
        work = {"built": 0, "written": 0}
        for cls in (h.Fun, h.Constructed):
            # ``_fields`` runs once per interning-table miss.
            def fields(self, key, original=cls._fields):
                work["built"] += 1
                return original(self, key)

            monkeypatch.setattr(cls, "_fields", fields)

        def set_type(self, node_id, t, original=h.TypeContext.set_type):
            work["written"] += 1
            original(self, node_id, t)

        monkeypatch.setattr(h.TypeContext, "set_type", set_type)

        def work_of_inference(length):
            theory = h.parse_theory(long_equation(length))
            work.update(built=0, written=0)
            result = h.infer_theory(theory)
            assert not result.diagnostics
            return dict(work)

        short, long = work_of_inference(100), work_of_inference(400)
        for kind in work:
            assert long[kind] / short[kind] < 6, (kind, short, long)

    def test_nested_partial_if_builds_types_linearly(self):
        """``f x = (If (x = 0) (If ... x))``: each partial ``If`` applies
        ``'a => 'a`` to the type so far, so the type has 2^N leaves but N
        distinct subterms.  A type's free variables are computed once, when
        it is built, so this also bounds the free-variable work (a walk
        over the leaves makes about 590,000 calls at N=16).  Each count is
        one cold ``infer_theory`` call, prelude included, in a fresh
        interpreter, where no type another test keeps alive turns a
        construction into a table hit."""
        def built(n):
            rhs = "(If (x = 0) " * n + "x" + ")" * n
            src = str(Path(h.__file__).resolve().parents[1])
            run = subprocess.run(
                [sys.executable, "-c", _COUNT_TYPES_BUILT],
                input=f'fun f :: "nat => nat" where "f x = {rhs}"',
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True, text=True, timeout=120, check=True)
            return int(run.stdout)

        at_8, at_16 = built(8), built(16)
        assert at_16 <= 2 * at_8, (at_8, at_16)


def _rebind(monkeypatch, original, wrapper):
    """Rebind ``original`` to ``wrapper`` wherever a holtypes module holds
    it, as the benchmark's tracer does."""
    for module in [m for n, m in sys.modules.items()
                   if n == "holtypes" or n.startswith("holtypes.")]:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)


def _check_corpus(tmp_path, capsys):
    from holtypes import cli

    assert len(CORPUS) == 23
    for name, source in CORPUS.items():
        path = tmp_path / f"{name}.thy"
        path.write_text(source, encoding="utf-8")
        assert cli.main(["check", str(path)]) == 0
    capsys.readouterr()


class TestCostBudget:
    def test_corpus_check_stays_within_call_budget(self, tmp_path, monkeypatch, capsys):
        """Machine-independent cost pin: ``check`` on the 23 corpus
        theories makes at most this many relation comparisons (recursive
        calls included) and scheme instantiations.  Every binding of
        ``compare`` in a holtypes module is wrapped, as the benchmark's
        tracer wraps it."""
        from holtypes import unify

        calls = {"compare": 0, "instantiate": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        _rebind(monkeypatch, unify.compare, counted("compare", unify.compare))
        monkeypatch.setattr(h.SolverRegistry, "instantiate",
                            counted("instantiate", h.SolverRegistry.instantiate))
        _check_corpus(tmp_path, capsys)
        assert calls["compare"] <= 251, calls
        assert calls["instantiate"] <= 86, calls

    def test_corpus_relate_walks_each_direction_once(self, tmp_path, monkeypatch, capsys):
        """Each ``relate`` on the corpus makes at most one top-level
        ``compare`` walk per direction it tries, and exactly one when the
        first direction holds (judged by the reference walker).  Outside
        ``_Solution._reconcile``, nothing decomposes a pair a second time:
        ``_decompose`` never runs."""
        import unify_reference
        from holtypes import unify

        depth = {"compare": 0, "reconcile": 0}
        walks, per_relate, outside_reconcile = [0], [], []

        def compare(t, s, *facts):
            walks[0] += depth["compare"] == 0
            depth["compare"] += 1
            try:
                return original_compare(t, s, *facts)
            finally:
                depth["compare"] -= 1

        def relate(t, s, both=True):
            walks[0] = 0
            try:
                return original_relate(t, s, both)
            finally:
                first = unify_reference.compare(t, s).holds()
                per_relate.append((walks[0], 1 if first or not both else 2, first))

        def reconcile(self, *args):
            depth["reconcile"] += 1
            try:
                return original_reconcile(self, *args)
            finally:
                depth["reconcile"] -= 1

        def decompose(t, s, facts):
            outside_reconcile.append(depth["reconcile"] == 0)
            return original_decompose(t, s, facts)

        original_compare, original_relate = unify.compare, unify.relate
        original_reconcile, original_decompose = unify._Solution._reconcile, unify._decompose
        _rebind(monkeypatch, original_compare, compare)
        _rebind(monkeypatch, original_relate, relate)
        _rebind(monkeypatch, original_decompose, decompose)
        monkeypatch.setattr(unify._Solution, "_reconcile", reconcile)
        _check_corpus(tmp_path, capsys)
        assert len(per_relate) >= 150
        assert any(not first for _, _, first in per_relate)
        for walked, tried, first in per_relate:
            assert walked <= tried
            assert walked == 1 or not first
        assert not any(outside_reconcile)
        # The wrappers see a reconciliation when one happens.
        unify.relate(h.Fun((a, a)), h.Fun((h.list_of(h.Var("b")), h.list_of(nat))))
        assert outside_reconcile and not any(outside_reconcile)
