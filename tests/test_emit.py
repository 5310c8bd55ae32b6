import json

import pytest
from hypothesis import example, given, settings, strategies as st

import holtypes as h
from holtypes.emit import CppTypeMap, annotated_type, dump_json, json_array
from holtypes.errors import RenderError

from corpus import CORPUS, PRODUCT_LISTS_SPEC, TEST_SPEC, infer_source

nat = h.Prim("nat")
a = h.Var("a")


def stripped(text):
    return "".join(text.split())


class TestAnnotatedTypeFormat:
    @pytest.mark.parametrize("type_text,expected", [
        ("'a list", "('a )list"),
        ("'a list list", "(('a )list )list"),
        ("nat", "nat"),
        ("'a", "'a"),
        ("'a list => 'a list", "(('a )list => ('a )list)"),
        ("nat option", "(nat )option"),
    ])
    def test_cases(self, type_text, expected):
        assert annotated_type(h.parse_type(type_text)) == expected


class TestEmitAnnotated:
    def test_product_lists_first_equation_matches_published_form(self):
        _, result = infer_source(PRODUCT_LISTS_SPEC)
        out = h.emit_annotated(result.typed_specs[0])
        assert "([(Nil :: ('a )list)] :: (('a )list )list)" in out

    def test_test_spec_variable_annotation(self):
        _, result = infer_source(TEST_SPEC)
        out = h.emit_annotated(result.typed_specs[0])
        assert "(xs :: ('a )list)" in out

    def test_literal_annotation(self):
        _, result = infer_source(TEST_SPEC)
        out = h.emit_annotated(result.typed_specs[0])
        assert "(0 :: nat)" in out

    def test_deterministic(self):
        _, r1 = infer_source(TEST_SPEC)
        _, r2 = infer_source(TEST_SPEC)
        assert h.emit_annotated(r1.typed_specs[0]) == h.emit_annotated(r2.typed_specs[0])

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_stripping_annotations_recovers_the_expressions(self, name):
        from holtypes.exprs import equal_modulo_ids

        theory, result = infer_source(CORPUS[name])
        datatype_lines = [ln for ln in CORPUS[name].splitlines()
                          if ln.strip().startswith("datatype")]
        for f, ts in zip(theory.functions, result.typed_specs):
            out = h.emit_annotated(ts)
            for line, (patterns, rhs) in zip(out.splitlines()[1:], f.equations):
                plain = _strip_annotations(line)
                src = "\n".join(datatype_lines
                                + [f'fun zz :: "{h.format_type(f.declared_type)}" '
                                   f'where "{plain.replace(f.name, "zz", 1)}"'])
                re_theory = h.parse_theory(src)
                re_pats, re_rhs = re_theory.functions[0].equations[0]
                assert equal_modulo_ids(re_rhs, rhs)
                assert all(equal_modulo_ids(p, q) for p, q in zip(re_pats, patterns))


class TestEmitJson:
    def test_identity_function_document(self):
        _, result = infer_source('fun f :: "nat => nat" where "f x = x"')
        doc = json.loads(h.emit_json(result.typed_specs[0]))
        assert doc["schema_version"] == 1
        assert doc["function"] == "f"
        assert doc["declared_type"] == "nat => nat"
        (eq,) = doc["equations"]
        assert eq["patterns"][0]["type"] == "nat"
        assert eq["rhs"]["type"] == "nat"
        assert doc["diagnostics"] == []

    def test_test_spec_contains_typed_if_node(self):
        _, result = infer_source(TEST_SPEC)
        doc = json.loads(h.emit_json(result.typed_specs[0]))

        def nodes(node):
            yield node
            for c in node["children"]:
                yield from nodes(c)

        eq2 = doc["equations"][1]
        if_nodes = [n for n in nodes(eq2["rhs"])
                    if n["kind"] == "AppExpr" and n.get("head") == "If"]
        assert if_nodes and if_nodes[0]["type"] == "'a list"

    def test_unknown_name_lands_in_diagnostics(self):
        _, result = infer_source('fun f :: "nat => nat" where "f x = mystery x"')
        doc = json.loads(h.emit_json(result.typed_specs[0]))
        assert len(doc["diagnostics"]) == 1
        assert doc["diagnostics"][0]["kind"] == "unknown-name"

    def test_round_trip_is_byte_identical(self):
        _, result = infer_source(TEST_SPEC)
        text = h.emit_json(result.typed_specs[0])
        assert json.dumps(json.loads(text), indent=2) == text

    def test_spans_serialized(self):
        _, result = infer_source('fun f :: "nat => nat" where "f x = x"')
        doc = json.loads(h.emit_json(result.typed_specs[0]))
        span = doc["equations"][0]["rhs"]["span"]
        assert set(span) == {"line", "column", "end_line", "end_column"}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestDumpJson:
    @settings(max_examples=200, deadline=None)
    @example([])
    @example({})
    @example([[], {}, [[]], [{}]])
    @example({"children": [], "diagnostics": [], "doc": {"a": {}, "b": [[], {"c": []}]}})
    @given(json_values)
    def test_matches_the_standard_library(self, value):
        assert dump_json(value) == json.dumps(value, indent=2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(json_values, max_size=4))
    def test_array_of_texts_matches_the_array_of_documents(self, docs):
        assert json_array([dump_json(d) for d in docs]) == json.dumps(docs, indent=2)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_corpus_documents(self, name):
        _, result = infer_source(CORPUS[name])
        texts = [h.emit_json(ts) for ts in result.typed_specs]
        docs = [json.loads(t) for t in texts]
        assert texts == [json.dumps(d, indent=2) for d in docs]
        assert json_array(texts) == json.dumps(docs, indent=2)


class TestRenderCppType:
    @pytest.mark.parametrize("type_text,expected", [
        ("nat option", "std::optional<std::uint64_t>"),
        ("nat list", "std::deque<std::uint64_t>"),
        ("bool", "bool"),
        ("nat set", "std::set<std::uint64_t>"),
        ("'a list", "std::deque<T1>"),
        ("('a => 'b) => 'a list",
         "std::function<std::deque<T1>(std::function<T2(T1)>)>"),
        ("nat => nat => nat",
         "std::function<std::uint64_t(std::uint64_t, std::uint64_t)>"),
    ])
    def test_default_map(self, type_text, expected):
        assert h.render_cpp_type(h.parse_type(type_text)) == expected

    def test_same_variable_same_parameter_across_signature(self):
        names = {}
        first = h.render_cpp_type(h.parse_type("'a list"), var_names=names)
        second = h.render_cpp_type(h.parse_type("'a option"), var_names=names)
        assert first == "std::deque<T1>" and second == "std::optional<T1>"

    def test_unmapped_head_raises(self):
        with pytest.raises(RenderError):
            h.render_cpp_type(h.parse_type("nat tree"))
        with pytest.raises(RenderError):
            h.render_cpp_type(h.Prim("int"))

    def test_bottom_rejected(self):
        with pytest.raises(RenderError):
            h.render_cpp_type(h.BOTTOM)

    def test_overrides(self):
        cmap = CppTypeMap().with_overrides(**{"list": "std::vector<{0}>",
                                              "tree": "Tree<{0}>"})
        assert h.render_cpp_type(h.parse_type("nat list"), cmap) == "std::vector<std::uint64_t>"
        assert h.render_cpp_type(h.parse_type("nat tree"), cmap) == "Tree<std::uint64_t>"

    def test_signature_line(self):
        theory, _ = infer_source(CORPUS["bs"])
        line = h.render_cpp_signature(theory.functions[0])
        assert line == ("std::optional<std::uint64_t> bs(std::uint64_t, "
                        "std::deque<std::uint64_t>);")


def _strip_annotations(text):
    """Drop the `` :: type`` part of every annotation, keeping the
    parenthesized expressions."""

    def matching(s, start):
        depth = 0
        for i in range(start, len(s)):
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
                if depth == 0:
                    return i
        raise AssertionError("unbalanced parentheses")

    def process(s):
        depth = 0
        for i in range(len(s)):
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
            elif depth == 0 and s.startswith(" :: ", i):
                s = s[:i]
                break
        out = []
        i = 0
        while i < len(s):
            if s[i] == "(":
                j = matching(s, i)
                out.append("(" + process(s[i + 1 : j]) + ")")
                i = j + 1
            else:
                out.append(s[i])
                i += 1
        return "".join(out)

    return process(text)
