import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holtypes as h
from holtypes.errors import ArityMismatchError, DuplicateNameError, ParseError
from holtypes.exprs import (
    BINARY_OPS,
    BOOLEAN,
    RIGHT_ASSOC,
    AppExpr,
    ConstExpr,
    LambdaExpr,
    ListExpr,
    SetExpr,
    Span,
    VarExpr,
    equal_modulo_ids,
    walk,
)
from holtypes.parser import tokenize

from corpus import BS_SPEC, CORPUS, TEST_SPEC


class TestParseType:
    def test_list_to_nat(self):
        t = h.parse_type("'a list => nat")
        assert t == h.Fun((h.list_of(h.Var("a")), h.Prim("nat")))

    def test_primitive(self):
        assert h.parse_type("nat") == h.Prim("nat")

    def test_higher_order_map_type(self):
        t = h.parse_type("('d => 'e) => 'd list => 'e list")
        d, e = h.Var("d"), h.Var("e")
        assert t == h.Fun((h.Fun((d, e)), h.list_of(d), h.list_of(e)))

    def test_arrow_is_right_associative_and_flat(self):
        assert h.parse_type("'a => 'b => 'c") == h.parse_type("'a => ('b => 'c)")
        assert len(h.parse_type("'a => 'b => 'c").parts) == 3

    def test_postfix_binds_tighter_than_arrow(self):
        t = h.parse_type("'a list => 'a")
        assert t.parts[0] == h.list_of(h.Var("a"))

    def test_counter_suffix(self):
        assert h.parse_type("'a#3") == h.Var("a", 3)

    def test_multi_argument_constructor(self):
        t = h.parse_type("('a, nat) pair")
        assert t == h.Constructed((h.Var("a"), h.Prim("nat")), "pair")

    def test_bare_tuple(self):
        assert h.parse_type("('a, 'b)") == h.Tuple(h.Var("a"), h.Var("b"))

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            h.parse_type("'a =>")
        with pytest.raises(ParseError):
            h.parse_type("list")  # bare ctor is fine...
        # ... but an unfinished group is not


class TestParseTheory:
    def test_test_spec_shape(self):
        theory = h.parse_theory(TEST_SPEC)
        (f,) = theory.functions
        assert f.name == "test"
        assert f.declared_type == h.parse_type("'a list => nat")
        assert len(f.equations) == 2

    def test_identity_function(self):
        theory = h.parse_theory('fun f :: "nat => nat" where "f x = x"')
        (f,) = theory.functions
        (patterns, rhs) = f.equations[0]
        assert len(patterns) == 1
        assert isinstance(patterns[0], VarExpr) and patterns[0].name == "x"
        assert isinstance(rhs, VarExpr) and rhs.name == "x"

    def test_bs_equations_and_list_pattern(self):
        theory = h.parse_theory(BS_SPEC)
        (f,) = theory.functions
        assert len(f.equations) == 3
        pattern = f.equations[1][0][1]
        assert isinstance(pattern, ListExpr)
        assert isinstance(pattern.elems[0], VarExpr) and pattern.elems[0].name == "y"

    def test_empty_list_lowers_to_nil(self):
        theory = h.parse_theory('fun f :: "nat => nat list" where "f x = []"')
        rhs = theory.functions[0].equations[0][1]
        assert isinstance(rhs, AppExpr) and rhs.head == "Nil" and not rhs.args

    def test_empty_set_lowers_to_emptyset(self):
        theory = h.parse_theory('fun f :: "nat => nat set" where "f x = {}"')
        rhs = theory.functions[0].equations[0][1]
        assert isinstance(rhs, AppExpr) and rhs.head == "EmptySet"

    def test_if_then_else_lowers_to_if_application(self):
        theory = h.parse_theory('fun f :: "bool => nat" where "f b = (if b then 1 else 0)"')
        rhs = theory.functions[0].equations[0][1]
        assert isinstance(rhs, AppExpr) and rhs.head == "If" and len(rhs.args) == 3

    def test_nullary_constructor_pattern_is_not_a_binding(self):
        theory = h.parse_theory(
            'fun f :: "nat option => nat" where "f None = 0" | "f (Some n) = n"'
        )
        pat = theory.functions[0].equations[0][0][0]
        assert isinstance(pat, AppExpr) and pat.head == "None" and not pat.args

    def test_patterns_stay_pattern_kinds(self):
        theory = h.parse_theory(BS_SPEC)
        for patterns, _ in theory.functions[0].equations:
            for p in patterns:
                assert all(isinstance(n, (VarExpr, ConstExpr, AppExpr, ListExpr, SetExpr))
                           for n in walk(p))

    def test_duplicate_names_rejected(self):
        with pytest.raises(DuplicateNameError):
            h.parse_theory('fun f :: "nat => nat" where "f x = x"\n'
                           'fun f :: "nat => nat" where "f x = x"')

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityMismatchError):
            h.parse_theory('fun f :: "nat => nat => nat" where "f x = x"')

    def test_equation_head_must_match(self):
        with pytest.raises(ParseError):
            h.parse_theory('fun f :: "nat => nat" where "g x = x"')

    def test_datatype_declaration(self):
        theory = h.parse_theory("datatype color = Red | Green\n"
                                'fun f :: "color => nat" where "f c = 0"')
        (d,) = theory.datatypes
        assert d.name == "color"
        assert [c for c, _ in d.ctors] == ["Red", "Green"]

    def test_datatype_with_parameters(self):
        theory = h.parse_theory("datatype 'a tree = Leaf | Node \"'a tree\" 'a \"'a tree\"\n")
        (d,) = theory.datatypes
        assert d.type_params == ["a"]
        assert d.ctors[1][1][0] == h.Constructed((h.Var("a"),), "tree")

    def test_datatype_ctor_vars_must_be_parameters(self):
        with pytest.raises(ParseError):
            h.parse_theory("datatype bad = Mk 'a")

    def test_operator_precedence(self):
        theory = h.parse_theory('fun f :: "nat list => nat" where "f xs = xs ! 0 + 1"')
        rhs = theory.functions[0].equations[0][1]
        assert rhs.head == "+"
        assert rhs.args[0].head == "!"

    def test_cons_is_right_associative(self):
        theory = h.parse_theory('fun f :: "nat => nat list" where "f x = x # x # []"')
        rhs = theory.functions[0].equations[0][1]
        assert rhs.head == "#"
        assert rhs.args[1].head == "#"

    def test_comments_are_skipped(self):
        theory = h.parse_theory('(* one (* two *) *) fun f :: "nat => nat" where "f x = x"')
        assert theory.functions[0].name == "f"

    def test_tuple_expressions_rejected(self):
        with pytest.raises(ParseError):
            h.parse_theory('fun f :: "nat => nat" where "f x = (x, x)"')

    def test_application_head_must_be_identifier(self):
        with pytest.raises(ParseError):
            h.parse_theory('fun f :: "(nat => nat) => nat" where "f g = (g g) 1"')

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            h.parse_theory('fun f :: "nat\n=>" where "f x = x"')
        assert exc.value.line >= 1 and exc.value.column >= 1

    def test_counters_reserved_in_declared_types(self):
        with pytest.raises(ParseError):
            h.parse_theory('fun f :: "\'a#1 => nat" where "f x = 0"')

    def test_modification_suffix_allowed_in_plain_parse_type(self):
        assert h.parse_type("'a#1 list") == h.list_of(h.Var("a", 1))


def all_node_ids(theory):
    """Every node id in the theory, lambda parameter slots included."""
    for e in theory.all_exprs():
        yield e.node_id
        if isinstance(e, LambdaExpr):
            yield from e.param_ids


class TestNodeIds:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_ids_unique_and_dense(self, name):
        theory = h.parse_theory(CORPUS[name])
        ids = list(all_node_ids(theory))
        assert len(ids) == len(set(ids))
        assert set(ids) == set(range(len(ids)))

    def test_parse_is_deterministic(self):
        t1 = h.parse_theory(TEST_SPEC)
        t2 = h.parse_theory(TEST_SPEC)
        for f1, f2 in zip(t1.functions, t2.functions):
            for (p1, r1), (p2, r2) in zip(f1.equations, f2.equations):
                assert all(equal_modulo_ids(a, b) for a, b in zip(p1, p2))
                assert equal_modulo_ids(r1, r2)

    def test_spans_point_into_source(self):
        theory = h.parse_theory(TEST_SPEC)
        for e in theory.all_exprs():
            assert e.span.line >= 1
            assert e.span.column >= 1


def _walk_recursively(e):
    """The recursive pre-order walk that ``exprs.walk`` replaced."""
    yield e
    for c in h.exprs.children(e):
        yield from _walk_recursively(c)


class TestWalk:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_order_matches_a_recursive_walk(self, name):
        for f in h.parse_theory(CORPUS[name]).functions:
            for patterns, rhs in f.equations:
                for root in (*patterns, rhs):
                    assert list(map(id, walk(root))) == list(map(id, _walk_recursively(root)))

    def test_deep_chain_walks_without_recursion(self):
        depth = 5000
        e = VarExpr(0, name="x")
        for i in range(1, depth):
            e = AppExpr(2 * i, head="+", args=[e, VarExpr(2 * i - 1, name="x")])
        ids = [n.node_id for n in walk(e)]
        # Down the left spine to the innermost x, then each right operand.
        assert ids == [*range(2 * depth - 2, -1, -2), *range(1, 2 * depth - 2, 2)]


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_print_then_reparse_preserves_structure(self, name):
        theory = h.parse_theory(CORPUS[name])
        for f in theory.functions:
            for patterns, rhs in f.equations:
                pats = " ".join(h.format_expr(p, 7) for p in patterns)
                text = f'"{f.name} {pats} = {h.format_expr(rhs)}"'.replace("  ", " ")
                line = f'fun {f.name}2 :: "{h.format_type(f.declared_type)}" where {text}'
                line = line.replace(f'"{f.name} ', f'"{f.name}2 ')
                re_theory = h.parse_theory(_with_datatypes(CORPUS[name], line))
                re_f = re_theory.functions[-1]
                (re_pats, re_rhs) = re_f.equations[0]
                assert equal_modulo_ids(re_rhs, rhs)
                assert all(equal_modulo_ids(a, b) for a, b in zip(re_pats, patterns))


def _rhs(text):
    theory = h.parse_theory(f'fun f :: "nat => nat" where "f x = {text}"')
    return theory.functions[0].equations[0][1]


def _op(head, left, right):
    return AppExpr(0, head=head, args=[left, right])


class TestBinaryOperators:
    @pytest.mark.parametrize("op1, op2", list(itertools.product(BINARY_OPS, repeat=2)))
    def test_pair_groups_by_level_and_associativity(self, op1, op2):
        a, b, c = (VarExpr(0, name=n) for n in "abc")
        left_first = _op(op2, _op(op1, a, b), c)
        right_first = _op(op1, a, _op(op2, b, c))
        level1, level2 = BINARY_OPS[op1], BINARY_OPS[op2]
        groups_left = level1 > level2 or (level1 == level2 and op1 not in RIGHT_ASSOC)
        expected = left_first if groups_left else right_first
        assert equal_modulo_ids(_rhs(f"a {op1} b {op2} c"), expected)
        for tree in (left_first, right_first):
            assert equal_modulo_ids(_rhs(h.format_expr(tree)), tree)

    def test_readme_precedence_table_matches(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", readme, re.M)
        tightest_first = sorted(set(BINARY_OPS.values()), reverse=True)
        assert [set(ops.split()) for ops, _ in rows] == [
            {op for op, level in BINARY_OPS.items() if level == lv} for lv in tightest_first
        ]
        for ops, text in rows:
            right = set(ops.split()) <= RIGHT_ASSOC
            assert ("right-associative" if right else "left-associative") in text


def _exprs():
    """Hypothesis strategy for expressions the printer and parser share:
    atoms, applications, list and set literals and binary operators."""
    atoms = st.one_of(
        st.sampled_from(["x", "y", "zs"]).map(lambda n: VarExpr(0, name=n)),
        st.integers(0, 99).map(lambda i: ConstExpr(0, literal=str(i))),
        st.sampled_from(["True", "False"]).map(
            lambda b: ConstExpr(0, literal=b, literal_kind=BOOLEAN)),
        st.sampled_from(["Nil", "None"]).map(lambda c: AppExpr(0, head=c)),
    )

    def extend(sub):
        return st.one_of(
            st.tuples(st.sampled_from(["f", "Some", "If"]), st.lists(sub, min_size=1, max_size=3))
            .map(lambda ha: AppExpr(0, head=ha[0], args=ha[1])),
            st.lists(sub, min_size=1, max_size=3).map(lambda es: ListExpr(0, elems=es)),
            st.lists(sub, min_size=1, max_size=3).map(lambda es: SetExpr(0, elems=es)),
            st.tuples(st.sampled_from(sorted(BINARY_OPS)), sub, sub)
            .map(lambda t: _op(*t)),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_exprs())
def test_printed_expression_reparses_to_the_same_tree(expr):
    assert equal_modulo_ids(_rhs(h.format_expr(expr)), expr)


def _with_datatypes(source, line):
    datatype_lines = [ln for ln in source.splitlines() if ln.strip().startswith("datatype")]
    return "\n".join(datatype_lines + [line])


def _equation_paren_groups(source):
    """The '(' tokens inside a theory's equation strings: the strings
    that follow ``where`` or ``|``."""
    tokens = tokenize(source)
    return sum(
        t.kind == "SYM" and t.value == "("
        for prev, tok in zip(tokens, tokens[1:])
        if tok.kind == "STRING" and prev.value in ("where", "|")
        for t in tokenize(tok.value)
    )


class TestCostBudget:
    def test_corpus_parse_builds_one_span_per_node(self, monkeypatch):
        """Machine-independent cost pin: parsing the 23 corpus theories
        builds at most one ``Span`` per AST node and per declaration, plus
        one per parenthesised group, whose node gets a span that covers
        the parentheses."""
        assert len(CORPUS) == 23
        groups = sum(_equation_paren_groups(source) for source in CORPUS.values())
        built = [0]
        init = Span.__init__

        def counted(self, *args):
            built[0] += 1
            init(self, *args)

        monkeypatch.setattr(Span, "__init__", counted)
        theories = [h.parse_theory(source) for source in CORPUS.values()]
        monkeypatch.undo()
        nodes = sum(1 for t in theories for _ in t.all_exprs())
        decls = sum(len(t.datatypes) + len(t.functions) for t in theories)
        assert (nodes, decls, groups) == (232, 26, 41)
        assert built[0] <= nodes + decls + groups, built[0]
