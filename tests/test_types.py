import copy
import pickle

import pytest
from hypothesis import given

import holtypes as h

from conftest import substitutions, type_exprs
from type_support import alpha_equivalent, erase_counters, vars_by_walk

nat = h.Prim("nat")
bool_ = h.Prim("bool")
a = h.Var("a")
b = h.Var("b")


class TestModel:
    def test_var_identity_includes_counter(self):
        assert h.Var("a") != h.Var("a", 1)
        assert h.Var("a", 1) == h.Var("a", 1)

    def test_fun_needs_two_parts(self):
        with pytest.raises(ValueError):
            h.Fun((nat,))

    def test_fun_flattens_trailing_function(self):
        nested = h.Fun((a, h.Fun((b, nat))))
        assert nested == h.Fun((a, b, nat))
        assert len(nested.parts) == 3

    def test_fun_keeps_leading_function_nested(self):
        t = h.Fun((h.Fun((a, b)), nat))
        assert len(t.parts) == 2
        assert isinstance(t.parts[0], h.Fun)

    def test_builtin_ctor_arity_enforced(self):
        with pytest.raises(ValueError):
            h.Constructed((nat, nat), "list")

    def test_bottom_cannot_nest(self):
        with pytest.raises(ValueError):
            h.list_of(h.BOTTOM)
        with pytest.raises(ValueError):
            h.Fun((h.BOTTOM, nat))

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            h.Var("a", -1)


def _rebuilt(t):
    """``t`` built again bottom-up from its fields, lists for tuples."""
    if isinstance(t, h.Var):
        return h.Var(t.name, t.counter)
    if isinstance(t, h.Prim):
        return h.Prim(t.name)
    if isinstance(t, h.Fun):
        return h.Fun([_rebuilt(p) for p in t.parts])
    if isinstance(t, h.Tuple):
        return h.Tuple(_rebuilt(t.left), _rebuilt(t.right))
    return h.Constructed([_rebuilt(a) for a in t.args], t.ctor)


class TestInterning:
    """Hash-consing: building an equal type returns the one live object."""

    @given(type_exprs(with_tuples=True))
    def test_rebuilding_returns_the_same_object(self, t):
        assert _rebuilt(t) is t
        if isinstance(t, h.Fun) and len(t.parts) > 2:
            assert h.Fun((t.parts[0], h.Fun(t.parts[1:]))) is t

    @given(type_exprs(with_tuples=True))
    def test_parsing_the_printed_type_returns_the_same_object(self, t):
        assert h.parse_type(h.format_type(t)) is t

    @given(substitutions(variables=[h.Var("z"), h.Var("b", 2)]), type_exprs(with_tuples=True))
    def test_substitution_touching_no_variable_returns_the_same_object(self, s, t):
        assert h.apply_subst(s, t) is t

    @given(type_exprs(with_tuples=True))
    def test_copy_deepcopy_and_pickle_return_the_same_object(self, t):
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t

    @given(type_exprs(with_tuples=True))
    def test_types_are_immutable(self, t):
        for name in (*t.__match_args__, "fv", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, nat)
            with pytest.raises(AttributeError):
                delattr(t, name)

    def test_bottom_is_one_object(self):
        assert h.Bottom() is h.BOTTOM
        assert pickle.loads(pickle.dumps(h.BOTTOM)) is h.BOTTOM
        assert copy.deepcopy(h.BOTTOM) is h.BOTTOM

    def test_repr_names_the_fields(self):
        t = h.Fun((h.Tuple(a, nat), h.list_of(h.Var("b", 2)), bool_))
        assert repr(t) == (
            "Fun(parts=(Tuple(left=Var(name='a', counter=None), right=Prim(name='nat')), "
            "Constructed(args=(Var(name='b', counter=2),), ctor='list'), Prim(name='bool')))"
        )
        assert repr(h.BOTTOM) == "Bottom()"


class TestFreeTypeVars:
    def test_bare_variable(self):
        assert h.free_type_vars(a) == {a}

    def test_primitive_has_none(self):
        assert h.free_type_vars(nat) == frozenset()

    def test_union_over_structure(self):
        t = h.Fun((h.Fun((a, h.Var("b", 1))), h.list_of(nat)))
        assert h.free_type_vars(t) == {a, h.Var("b", 1)}

    def test_bottom_is_empty(self):
        assert h.free_type_vars(h.BOTTOM) == frozenset()

    @given(type_exprs(with_tuples=True))
    def test_cached_set_matches_a_walk(self, t):
        assert h.free_type_vars(t) == vars_by_walk(t)


class TestApplySubst:
    def test_single_replacement(self):
        s = h.SubstitutionSet({a: nat})
        assert h.apply_subst(s, h.list_of(a)) == h.list_of(nat)

    def test_identity(self):
        s = h.SubstitutionSet({})
        t = h.Fun((a, b))
        assert h.apply_subst(s, t) == t

    def test_counters_distinguish_variables(self):
        s = h.SubstitutionSet({h.Var("a", 1): bool_})
        t = h.Fun((a, h.Var("a", 1)))
        assert h.apply_subst(s, t) == h.Fun((a, bool_))

    def test_occurs_violation_rejected_at_construction(self):
        with pytest.raises(ValueError):
            h.SubstitutionSet({a: h.list_of(a)})

    def test_domain_in_range_rejected(self):
        with pytest.raises(ValueError):
            h.SubstitutionSet({a: h.list_of(b), b: nat})

    @given(substitutions(), type_exprs())
    def test_result_avoids_domain(self, s, t):
        out = h.apply_subst(s, t)
        assert not (h.free_type_vars(out) & set(s.bindings))

    @given(substitutions(), type_exprs())
    def test_idempotent(self, s, t):
        once = h.apply_subst(s, t)
        assert h.apply_subst(s, once) == once

    @given(substitutions(), type_exprs())
    def test_preserves_outer_shape_unless_bare_domain_var(self, s, t):
        out = h.apply_subst(s, t)
        if isinstance(t, h.Var) and t in s.bindings:
            return
        assert type(out) is type(t)


class TestFormatting:
    @pytest.mark.parametrize("text", [
        "'a",
        "'a#3",
        "nat",
        "'a list => nat",
        "('d => 'e) => 'd list => 'e list",
        "('a => 'b) list",
        "('a, 'b)",
        "(('a, 'b)) list",
        "('a, nat) pair",
        "'a list list => ('a, bool) pair set",
    ])
    def test_round_trip(self, text):
        t = h.parse_type(text)
        assert h.parse_type(h.format_type(t)) == t

    @given(type_exprs(with_tuples=True))
    def test_round_trip_generated(self, t):
        assert h.parse_type(h.format_type(t)) == t

    def test_erase_counters(self):
        t = h.Fun((h.Var("d", 7), h.list_of(h.Var("e", 7))))
        assert erase_counters(t) == h.Fun((h.Var("d"), h.list_of(h.Var("e"))))

    def test_alpha_equivalence(self):
        t = h.Fun((a, h.list_of(a), b))
        s = h.Fun((h.Var("x", 2), h.list_of(h.Var("x", 2)), h.Var("y")))
        assert alpha_equivalent(t, s)
        assert not alpha_equivalent(t, h.Fun((a, h.list_of(b), b)))
