import pytest
from hypothesis import example, given, settings, strategies as st

import holtypes as h
from holtypes.errors import ConflictError, MismatchError, OccursError, UnificationError
from holtypes.types import apply_bindings
from holtypes.unify import Relation, compare, reduce, relate

import unify_reference
from conftest import type_exprs

nat = h.Prim("nat")
bool_ = h.Prim("bool")
a = h.Var("a")
b = h.Var("b")

STRICT = Relation.MORE_ABSTRACT_STRICT
LOOSE = Relation.MORE_ABSTRACT
NO = Relation.INCOMPARABLE


class TestCompare:
    @pytest.mark.parametrize("t,s,expected", [
        (a, nat, STRICT),
        (a, b, LOOSE),
        (b, a, LOOSE),
        (a, a, LOOSE),
        (nat, nat, LOOSE),
        (nat, bool_, NO),
        (nat, a, NO),
        (h.list_of(a), a, NO),
        (a, h.list_of(b), STRICT),
        (a, h.list_of(a), NO),  # occurs check blocks the extension
        (h.list_of(a), h.list_of(nat), STRICT),
        (h.list_of(nat), h.list_of(nat), LOOSE),
        (h.list_of(nat), h.set_of(nat), NO),
        (h.Fun((a, a)), h.Fun((a, b)), LOOSE),
        (h.Fun((a, b)), h.Fun((a, a)), LOOSE),
        (h.Fun((a, b)), h.Fun((nat, bool_)), STRICT),
        (h.Fun((a, b, nat)), h.Fun((a, b)), NO),  # arity must agree
        (h.Tuple(a, b), h.Tuple(nat, b), STRICT),
        (h.Tuple(a, b), h.Fun((a, b)), NO),
        (h.BOTTOM, a, NO),
    ])
    def test_cases(self, t, s, expected):
        assert compare(t, s) is expected

    def test_strict_implies_nonstrict(self):
        assert STRICT.holds() and LOOSE.holds() and not NO.holds()

    @given(type_exprs())
    def test_self_comparison_never_incomparable(self, t):
        assert compare(t, t).holds()

    @given(type_exprs(variables=[a, b, h.Var("c", 1)]),
           type_exprs(variables=[a, b, h.Var("c", 1)]))
    def test_variable_free_reflexivity(self, t, s):
        # Two variable-free types relate exactly when they are equal.
        if not h.free_type_vars(t) and not h.free_type_vars(s):
            assert compare(t, s).holds() == (t == s)

    def test_symmetry_on_bare_variables(self):
        assert compare(a, b).holds() and compare(b, a).holds()


class TestReduce:
    def test_variable_against_primitive_list(self):
        s = reduce(h.list_of(a), h.list_of(nat))
        assert s.bindings == {a: nat}

    def test_function_decomposition(self):
        s = reduce(h.Fun((a, b)), h.Fun((nat, bool_)))
        assert s.bindings == {a: nat, b: bool_}

    def test_conflicting_bindings(self):
        with pytest.raises(ConflictError) as exc:
            reduce(h.Fun((a, a)), h.Fun((nat, bool_)))
        assert exc.value.var == a
        assert {exc.value.type1, exc.value.type2} == {nat, bool_}

    def test_counter_variable_binds_to_plain(self):
        s = reduce(h.list_of(h.list_of(h.Var("a", 1))), h.list_of(h.list_of(a)))
        assert s.bindings == {h.Var("a", 1): a}

    def test_occurs_rejection(self):
        with pytest.raises(OccursError):
            reduce(a, h.list_of(a))

    def test_mismatch_on_primitive_clash(self):
        with pytest.raises(MismatchError):
            reduce(nat, bool_)

    def test_mismatch_when_relation_fails(self):
        with pytest.raises(MismatchError):
            reduce(nat, a)

    def test_conflict_merge_through_recursive_reduction(self):
        # One variable bound to 'b list and to nat list merges via 'b := nat.
        t = h.Fun((a, a))
        s = h.Fun((h.list_of(b), h.list_of(nat)))
        out = reduce(t, s)
        assert out.bindings == {a: h.list_of(nat), b: nat}

    def test_flipped_fact_after_substitution(self):
        # 'a := nat first, then the pending 'a >= 'b fact must bind 'b.
        out = reduce(h.Fun((a, a)), h.Fun((nat, b)))
        assert out.bindings == {a: nat, b: nat}

    def test_identity_pair(self):
        assert not reduce(a, a)

    def test_empty_on_equal_primitives(self):
        assert not reduce(h.Fun((nat, nat)), h.Fun((nat, nat)))

    def test_lambda_placeholder_gives_way_to_scheme_variable(self):
        lam = h.Var("lambda@0")
        out = reduce(lam, h.Var("q", 4))
        assert out.bindings == {lam: h.Var("q", 4)}

    def test_plain_variable_survives_counter_variable(self):
        out = reduce(a, h.Var("a", 3))
        assert out.bindings == {h.Var("a", 3): a}

    def test_curried_tail_groups_inside_solver(self):
        # Canonical flattening makes these equal under w2 := nat => bool.
        t = h.Fun((a, a, nat))
        s = h.Fun((h.Fun((h.Var("w"), nat, bool_)), h.Fun((h.Var("w"), h.Var("w2"))), nat))
        out = reduce(t, s)
        assert h.apply_subst(out, t) == h.apply_subst(out, s)


class TestSoundness:
    @settings(max_examples=300)
    @given(type_exprs(variables=[a, b]), type_exprs(variables=[a, b]))
    def test_successful_reduction_equalizes(self, t, s):
        if not compare(t, s).holds():
            return
        try:
            out = reduce(t, s)
        except UnificationError:
            return
        assert h.apply_subst(out, t) == h.apply_subst(out, s)

    @settings(max_examples=300)
    @given(type_exprs(variables=[a, b]), type_exprs(variables=[a, b]))
    def test_substitutions_respect_occurs_check(self, t, s):
        if not compare(t, s).holds():
            return
        try:
            out = reduce(t, s)
        except UnificationError:
            return
        for var, bound in out.bindings.items():
            assert var not in h.free_type_vars(bound)


# Variables of every binding priority: user-written, counter-renamed and a
# lambda placeholder.
MIXED_VARS = [a, b, h.Var("a", 1), h.Var("q", 4), h.Var("lambda@0")]


@st.composite
def renamed_pairs(draw, with_tuples=False):
    """A type and a copy of it with its variables renamed, not necessarily
    injectively: pairs that often relate in both directions."""
    t = draw(type_exprs(variables=MIXED_VARS, with_tuples=with_tuples))
    renaming = {v: draw(st.sampled_from(MIXED_VARS)) for v in sorted(h.free_type_vars(t), key=str)}
    return t, apply_bindings(renaming, t)


def outcome(fn, *args):
    """The bindings ``fn`` returns, ``None``, or the type and message of
    the ``UnificationError`` it raises."""
    try:
        out = fn(*args)
    except UnificationError as err:
        return type(err), str(err)
    return None if out is None else out.bindings


def inline_relate(t, s, both):
    """The compare-then-reduce loop the pipeline repeated before ``relate``,
    with the reference walker and solver."""
    for left, right in ((t, s), (s, t)) if both else ((t, s),):
        if unify_reference.compare(left, right).holds():
            return unify_reference.reduce(left, right)
    return None


def assert_walk_matches_reference(t, s):
    """``compare`` gives the reference relation with and without a facts
    list, and a walk that holds collects the reference decomposition's
    facts, in its order."""
    expected = unify_reference.compare(t, s)
    facts = []
    assert compare(t, s) is expected
    assert compare(t, s, facts) is expected
    if expected.holds():
        reference_facts = []
        unify_reference._decompose(t, s, reference_facts)
        assert facts == reference_facts


class TestAgainstReference:
    """``compare``, ``reduce`` and ``relate`` against the walker, the solver
    and the inline loops they replaced, kept verbatim in
    ``tests/unify_reference.py``."""

    @settings(max_examples=400)
    @example(h.BOTTOM, a)
    @example(h.Fun((a, h.list_of(a))), h.Fun((b, h.list_of(nat))))
    @example(h.Tuple(a, h.Var("q", 4)), h.Tuple(nat, b))
    @given(type_exprs(variables=MIXED_VARS, with_tuples=True),
           type_exprs(variables=MIXED_VARS, with_tuples=True))
    def test_compare_matches_reference(self, t, s):
        assert_walk_matches_reference(t, s)

    @settings(max_examples=200)
    @given(renamed_pairs(with_tuples=True))
    def test_compare_matches_reference_on_renamings(self, pair):
        t, s = pair
        assert_walk_matches_reference(t, s)
        assert_walk_matches_reference(s, t)

    @settings(max_examples=400)
    @given(type_exprs(variables=MIXED_VARS), type_exprs(variables=MIXED_VARS))
    def test_reduce_matches_reference(self, t, s):
        assert outcome(reduce, t, s) == outcome(unify_reference.reduce, t, s)

    @settings(max_examples=400)
    @example(a, nat, False)
    @example(nat, a, True)
    @example(h.Fun((a, b)), h.Fun((b, a)), True)
    @given(type_exprs(variables=MIXED_VARS), type_exprs(variables=MIXED_VARS), st.booleans())
    def test_relate_matches_inline_loop(self, t, s, both):
        assert outcome(relate, t, s, both) == outcome(inline_relate, t, s, both)

    @settings(max_examples=200)
    @given(renamed_pairs(), st.booleans())
    def test_relate_matches_inline_loop_on_renamings(self, pair, both):
        t, s = pair
        assert outcome(relate, t, s, both) == outcome(inline_relate, t, s, both)

    @settings(max_examples=200)
    @given(renamed_pairs())
    def test_pairs_related_both_ways_never_raise(self, pair):
        # So retrying the other direction after a failed reduction, as
        # pattern extraction once did, can never succeed.
        t, s = pair
        if compare(t, s).holds() and compare(s, t).holds():
            reduce(t, s)
            reduce(s, t)

    def test_relate_tries_the_given_direction_first(self):
        assert relate(a, nat, both=False).bindings == {a: nat}
        assert relate(nat, a, both=False) is None
        assert relate(nat, a).bindings == {a: nat}
        assert relate(nat, bool_) is None
        with pytest.raises(ConflictError):
            relate(h.Fun((a, a)), h.Fun((nat, bool_)))
