import pytest

import holtypes as h
from holtypes import parser
from holtypes.errors import DuplicateNameError, UnknownNameError
from holtypes.registry import (
    BUILTIN,
    DATATYPE_DECL,
    FUNCTION_DECL,
    SolverRegistry,
    TypeScheme,
)

from corpus import BS_SPEC, CORPUS, PRODUCT_LISTS_SPEC, TEST_SPEC
from type_support import erase_counters, vars_by_walk


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

    def test_variable_free_body_is_shared_and_still_takes_a_counter(self, prelude):
        k = prelude.fresh_counter
        assert prelude.instantiate("+") is prelude.lookup("+").body
        assert prelude.fresh_counter == k + 1
        (v,) = {v.counter for v in h.free_type_vars(prelude.instantiate("Nil"))}
        assert v == k + 1


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


def test_dump_lists_entries(prelude):
    lines = prelude.dump()
    assert "Cons :: 'a => 'a list => 'a list" in lines
    assert lines == sorted(lines)


class TestSharedPrelude:
    def test_prelude_is_parsed_once_per_process(self, monkeypatch):
        SolverRegistry.with_prelude()

        def refuse(*args, **kwargs):
            raise AssertionError("the prelude was parsed again")

        monkeypatch.setattr(parser, "parse_type", refuse)
        registry = SolverRegistry.with_prelude()
        assert registry.fresh_counter == 0
        assert registry.lookup("map").origin == BUILTIN

    def test_registries_do_not_share_their_tables(self):
        first = SolverRegistry.with_prelude()
        first.register("extra", h.Prim("nat"), FUNCTION_DECL)
        first.instantiate("map")
        second = SolverRegistry.with_prelude()
        assert "extra" not in second
        assert second.fresh_counter == 0
        assert second.entries == SolverRegistry.with_prelude().entries

    def test_prelude_scheme_variables(self, prelude):
        for scheme in prelude.entries.values():
            assert scheme.body.fv == vars_by_walk(scheme.body)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_declared_scheme_variables(self, name):
        theory = h.parse_theory(CORPUS[name])
        registry = SolverRegistry()
        for decl in theory.datatypes:
            registry.register_datatype(decl)
        for spec in theory.functions:
            registry.register_function(spec)
        assert registry.entries
        for scheme in registry.entries.values():
            assert scheme.body.fv == vars_by_walk(scheme.body)

    def test_schemes_reject_counters(self, prelude):
        with pytest.raises(ValueError, match="never carry counters"):
            TypeScheme(h.list_of(h.Var("a", 1)), BUILTIN)
        with pytest.raises(ValueError, match="never carry counters"):
            prelude.register("bad", h.Var("a", 1), FUNCTION_DECL)
        assert "bad" not in prelude
