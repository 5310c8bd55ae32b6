import pytest

import holtypes as h
from holtypes.errors import DuplicateNameError, UnknownNameError
from holtypes.registry import BUILTIN, DATATYPE_DECL, FUNCTION_DECL

from corpus import BS_SPEC, PRODUCT_LISTS_SPEC, TEST_SPEC
from type_support import erase_counters


def test_prelude_contains_required_names(prelude):
    for name in ["Cons", "Nil", "#", "Some", "None", "If", "length", "map",
                 "concat", "drop", "take", "!", "div", "+", "-", "*", "=", "<"]:
        assert name in prelude


def test_builtin_cons_scheme(prelude):
    assert prelude.lookup("Cons").body == h.parse_type("'a => 'a list => 'a list")
    assert prelude.lookup("Cons").origin == BUILTIN


def test_builtin_nil_scheme(prelude):
    assert prelude.lookup("Nil").body == h.parse_type("'a list")


def test_register_nullary_datatype(prelude):
    decl = h.DatatypeDecl("color", [], [("Red", []), ("Green", [])])
    prelude.register_datatype(decl)
    assert prelude.lookup("Red").body == h.Constructed((), "color")
    assert prelude.lookup("Red").origin == DATATYPE_DECL


def test_register_parameterised_datatype(prelude):
    tree = h.Constructed((h.Var("a"),), "tree")
    decl = h.DatatypeDecl("tree", ["a"], [("Leaf", []), ("Node", [tree, h.Var("a"), tree])])
    prelude.register_datatype(decl)
    assert prelude.lookup("Node").body == h.Fun((tree, h.Var("a"), tree, tree))


@pytest.mark.parametrize("source,name,type_text", [
    (BS_SPEC, "bs", "nat => nat list => nat option"),
    (PRODUCT_LISTS_SPEC, "product_lists", "'a list list => 'a list list"),
    (TEST_SPEC, "test", "'a list => nat"),
])
def test_register_function(prelude, source, name, type_text):
    theory = h.parse_theory(source)
    prelude.register_function(theory.functions[0])
    assert prelude.lookup(name).body == h.parse_type(type_text)
    assert prelude.lookup(name).origin == FUNCTION_DECL


def test_register_duplicate_rejected(prelude):
    theory = h.parse_theory('fun map :: "nat => nat" where "map x = x"')
    with pytest.raises(DuplicateNameError):
        prelude.register_function(theory.functions[0])


class TestInstantiate:
    def test_map_gets_a_uniform_counter(self, prelude):
        t = prelude.instantiate("map")
        counters = {v.counter for v in h.free_type_vars(t)}
        assert len(counters) == 1
        (k,) = counters
        assert t == h.parse_type(f"('d#{k} => 'e#{k}) => 'd#{k} list => 'e#{k} list")

    def test_nil_freshened(self, prelude):
        t = prelude.instantiate("Nil")
        (v,) = h.free_type_vars(t)
        assert t == h.list_of(h.Var("a", v.counter))

    def test_primitives_untouched(self, prelude):
        t = prelude.instantiate("length")
        assert t.parts[-1] == h.Prim("nat")

    def test_counters_strictly_increase(self, prelude):
        seen = []
        for name in ["map", "Nil", "map", "Cons", "Nil"]:
            t = prelude.instantiate(name)
            (k,) = {v.counter for v in h.free_type_vars(t)}
            seen.append(k)
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_successive_instantiations_are_alpha_distinct(self, prelude):
        t1 = prelude.instantiate("map")
        t2 = prelude.instantiate("map")
        assert not (h.free_type_vars(t1) & h.free_type_vars(t2))

    def test_skeleton_preserved(self, prelude):
        for name in ["map", "Cons", "Nil", "concat", "If"]:
            t = prelude.instantiate(name)
            assert erase_counters(t) == prelude.lookup(name).body

    def test_no_variables_no_visible_change(self, prelude):
        assert prelude.instantiate("+") == h.parse_type("nat => nat => nat")


class TestLookupUnmodified:
    def test_function_scheme_verbatim(self, prelude):
        theory = h.parse_theory(BS_SPEC)
        prelude.register_function(theory.functions[0])
        assert prelude.lookup("bs").body == h.parse_type("nat => nat list => nat option")

    def test_cons_verbatim(self, prelude):
        assert prelude.lookup("Cons").body == h.parse_type("'a => 'a list => 'a list")

    def test_unknown_name(self, prelude):
        with pytest.raises(UnknownNameError):
            prelude.lookup("foo")


def test_polymorphic_comparison_flags(prelude):
    assert prelude.is_polymorphic_comparison("=")
    assert prelude.is_polymorphic_comparison("<")
    assert not prelude.is_polymorphic_comparison("+")
    assert not prelude.is_polymorphic_comparison("If")


def test_dump_lists_entries(prelude):
    lines = prelude.dump()
    assert "Cons :: 'a => 'a list => 'a list" in lines
    assert lines == sorted(lines)
