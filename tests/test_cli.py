import gc
import json

import pytest

import holtypes as h
from holtypes.cli import main
from holtypes.registry import SolverRegistry

from corpus import BS_SPEC, CORPUS, NEGATIVE_SPEC, PRODUCT_LISTS_SPEC, TEST_SPEC


@pytest.fixture
def theory_file(tmp_path):
    def write(source, name="spec.thy"):
        path = tmp_path / name
        path.write_text(source, encoding="utf-8")
        return str(path)

    return write


def test_annotate_product_lists(theory_file, capsys):
    code = main(["annotate", theory_file(PRODUCT_LISTS_SPEC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "([(Nil :: ('a )list)] :: (('a )list )list)" in out


def test_check_clean_spec_exits_zero(theory_file, capsys):
    assert main(["check", theory_file(BS_SPEC)]) == 0
    assert capsys.readouterr().err == ""


def test_malformed_file_exits_one(theory_file, capsys):
    code = main(["check", theory_file('fun broken :: "nat =>" where "broken x = x"')])
    err = capsys.readouterr().err
    assert code == 1
    assert "expected a type" in err


def test_type_error_exits_two(theory_file, capsys):
    code = main(["check", theory_file(NEGATIVE_SPEC)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("mismatch") == 1
    # position of the offending right-hand side
    assert ":1:37:" in err


def test_redefining_a_builtin_exits_one(theory_file, capsys):
    code = main(["check", theory_file('fun map :: "nat => nat" where "map x = x"')])
    assert code == 1
    assert "already declared" in capsys.readouterr().err


def test_missing_file_exits_three(capsys):
    assert main(["check", "/nonexistent/nowhere.thy"]) == 3


def test_bad_usage_exits_three(theory_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["annotate", theory_file(TEST_SPEC), "--emit", "sparkle"])
    assert exc.value.code == 3


def test_emit_json(theory_file, capsys):
    code = main(["annotate", theory_file(TEST_SPEC), "--emit", "json"])
    out = capsys.readouterr().out
    assert code == 0
    docs = json.loads(out)
    assert docs[0]["function"] == "test"
    assert docs[0]["declared_type"] == "'a list => nat"


def test_emit_cpp_types(theory_file, capsys):
    code = main(["annotate", theory_file(BS_SPEC), "--emit", "cpp-types"])
    out = capsys.readouterr().out
    assert code == 0
    assert "std::optional<std::uint64_t> bs(std::uint64_t, std::deque<std::uint64_t>);" in out


def test_output_flag_writes_file(theory_file, tmp_path, capsys):
    target = tmp_path / "out.txt"
    code = main(["annotate", theory_file(TEST_SPEC), "--output", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert "(0 :: nat)" in target.read_text(encoding="utf-8")


def test_dump_sigma(theory_file, capsys):
    code = main(["check", theory_file(TEST_SPEC), "--dump-sigma"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Cons :: 'a => 'a list => 'a list" in out
    assert "test :: 'a list => nat" in out


def test_trace_goes_to_stderr(theory_file, capsys):
    code = main(["check", theory_file(TEST_SPEC), "--trace"])
    captured = capsys.readouterr()
    assert code == 0
    assert "⟶" in captured.err
    assert "App-BU" in captured.err


def test_diagnostics_use_error_stream_artifacts_stdout(theory_file, capsys):
    code = main(["annotate", theory_file(NEGATIVE_SPEC)])
    captured = capsys.readouterr()
    assert code == 2
    assert "mismatch" in captured.err
    assert "(x :: <error>)" in captured.out


def test_non_utf8_file_exits_three(tmp_path, capsys):
    path = tmp_path / "latin1.thy"
    path.write_bytes(b'fun f :: "nat => nat" where "f x = x" (* \xe9 *)\n')
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().err.startswith(f"holtypes: cannot read {path}: ")


def test_unwritable_output_exits_three(theory_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.txt"
    code = main(["annotate", theory_file(TEST_SPEC), "--output", str(target)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"holtypes: cannot write {target}: ")


@pytest.mark.parametrize("source, column", [
    ("datatype list = A", 10),
    ("datatype ('a, 'b) set = A", 19),
    ("datatype nat = Z", 10),
    ("datatype bool = A", 10),
    ("datatype int = A", 10),
    ("datatype 'a list = A", 13),
    ("datatype 'a set = A", 13),
    ("datatype 'a option = A", 13),
])
def test_builtin_type_arity_in_datatype_exits_one(theory_file, capsys, source, column):
    code = main(["check", theory_file(source)])
    assert code == 1
    assert f"spec.thy: 1:{column}: " in capsys.readouterr().err


def _equation(rhs):
    return f'fun f :: "nat => nat" where "f x = {rhs}"'


# A local named after a global function is typed from its binder wherever
# it is bound: by a let, by a case branch or by the equation's patterns.
SHADOWING = {
    "let": ('fun h :: "(\'b => nat) => \'b => nat" where "h f y = (let length = f in length y)"',
            "h (f :: ('b => nat)) (y :: 'b) = ((let (length :: ('b => nat)) = (f :: ('b => nat)) "
            "in ((length (y :: 'b)) :: nat)) :: nat)"),
    "case": ('fun h :: "(\'b => nat) list => \'b => nat" where '
             '"h fs y = (case fs of (length # r) => length y | [] => 0)"',
             "h (fs :: (('b => nat) )list) (y :: 'b) = ((case (fs :: (('b => nat) )list) of "
             "(((length :: ('b => nat)) # (r :: (('b => nat) )list)) :: (('b => nat) )list) => "
             "((length (y :: 'b)) :: nat) | (Nil :: (('b => nat) )list) => (0 :: nat)) :: nat)"),
    "pattern": ('fun h :: "(\'b => nat) => \'b => nat" where "h length y = length y"',
                "h (length :: ('b => nat)) (y :: 'b) = ((length (y :: 'b)) :: nat)"),
}


@pytest.mark.parametrize("binder", sorted(SHADOWING))
def test_shadowing_local_is_typed_from_its_binder(theory_file, capsys, binder):
    source, annotated = SHADOWING[binder]
    assert main(["annotate", theory_file(source)]) == 0
    assert capsys.readouterr() == (f"h\n{annotated}\n", "")


def test_deep_parentheses_exit_one(theory_file, capsys):
    code = main(["check", theory_file(_equation("(" * 1000 + "x" + ")" * 1000))])
    assert code == 1
    assert capsys.readouterr().err.endswith("spec.thy: expression nested too deeply\n")


@pytest.mark.parametrize("mode", [["check"], ["annotate"], ["annotate", "--emit", "json"]])
@pytest.mark.parametrize("rhs", [
    "(" * 200 + "x" + ")" * 200,
    "(If (x = 0) " * 200 + "x" + " x)" * 200,
], ids=["parentheses", "ifs"])
def test_200_nesting_levels_exit_zero(theory_file, capsys, rhs, mode):
    assert main([*mode, theory_file(_equation(rhs))]) == 0
    assert capsys.readouterr().err == ""


def test_long_sum_chain_under_check_exits_one(theory_file, capsys):
    code = main(["check", theory_file(_equation(" + ".join(["x"] * 3000)))])
    assert code == 1
    assert "expression nested too deeply" in capsys.readouterr().err


def test_sum_chain_too_deep_to_render_exits_three(theory_file, capsys):
    path = theory_file(_equation(" + ".join(["x"] * 600)))
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["annotate", "--emit", "json", path]) == 3
    assert capsys.readouterr().err.endswith("render error: expression nested too deeply\n")


def _cyclic_garbage(argv):
    """Objects one ``main`` call leaves for the cyclic collector.  A call
    runs first to warm up imports and caches; garbage a call leaves is
    freed whenever the collector happens to run, so it makes the
    memory a call holds at its peak depend on what ran before it."""
    main(argv)
    gc.collect()
    gc.disable()
    try:
        main(argv)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", [["check"], ["annotate"], ["annotate", "--emit", "json"],
                                  ["annotate", "--emit", "cpp-types"]])
@pytest.mark.parametrize("source", [BS_SPEC, NEGATIVE_SPEC], ids=["clean", "type_error"])
def test_call_leaves_no_cyclic_garbage(theory_file, capsys, mode, source):
    assert _cyclic_garbage([*mode, theory_file(source)]) == 0


def test_multi_spec_json_leaves_no_cyclic_garbage(theory_file, capsys):
    source = "\n\n".join([BS_SPEC, PRODUCT_LISTS_SPEC, TEST_SPEC])
    assert _cyclic_garbage(["annotate", "--emit", "json", theory_file(source)]) == 0



@pytest.mark.parametrize("mode", [["check", "--trace"], ["check", "--dump-sigma"],
                                  ["annotate", "--emit", "json"]])
def test_calls_in_one_process_do_not_leak_into_each_other(theory_file, capsys, monkeypatch,
                                                          mode):
    """Theory A, then a theory B with its own datatype and functions, then
    A again: the registries share only the prelude, so A's output repeats."""
    registries = []
    build = SolverRegistry.with_prelude.__func__

    def recording(cls):
        registry = build(cls)
        registries.append((registry, registry.fresh_counter, set(registry.entries)))
        return registry

    monkeypatch.setattr(SolverRegistry, "with_prelude", classmethod(recording))
    a = theory_file(CORPUS["bs"], "a.thy")
    b = theory_file(CORPUS["tsize"] + "\n" + CORPUS["quad"], "b.thy")
    runs = []
    for path in (a, b, a):
        code = main([*mode, path])
        out, err = capsys.readouterr()
        runs.append((code, out, err))
    assert runs[0] == runs[2]
    assert runs[1] != runs[0]
    assert len(registries) == 3
    prelude_names = registries[0][2]
    for registry, counter_at_start, names_at_start in registries:
        assert counter_at_start == 0
        assert names_at_start == prelude_names
    b_names = set(registries[1][0].entries) - prelude_names
    assert {"Leaf", "Node", "tsize", "twice", "quad"} <= b_names
    assert not b_names & set(registries[2][0].entries)


@pytest.mark.parametrize("mode", [["check"], ["annotate"], ["annotate", "--emit", "json"],
                                  ["annotate", "--emit", "cpp-types"]])
def test_call_leaves_the_interning_tables_as_it_found_them(theory_file, capsys, mode):
    """The tables hold types weakly: the types of a theory's own datatype
    and functions die with the call."""
    tables = [cls._table for cls in (h.Var, h.Prim, h.Fun, h.Tuple, h.Constructed)]
    path = theory_file(CORPUS["tsize"])
    main([*mode, path])
    gc.collect()
    before = [len(t) for t in tables]
    main([*mode, path])
    assert [len(t) for t in tables] == before
    assert not [key for key in h.Constructed._table if key[1] == "tree"]


def test_stray_datatype_variable_is_named_the_same_on_every_call(theory_file, capsys):
    """The first stray variable by name, whatever order the set of the
    argument type's variables iterates in."""
    path = theory_file("datatype 'a t = C \"'b => 'c\"")
    for _ in range(5):
        assert main(["check", path]) == 1
        assert capsys.readouterr().err.endswith(
            ": 1:17: type variable 'b not among the datatype parameters\n")


# Declared tuple types, the only way a tuple type enters a theory.  In
# ``ppair``, unifying ``pid``'s instance relates ``('a#0, nat)`` to
# ``('a, nat)``, which decomposes and substitutes inside a tuple.
TUPLE_SPEC = """\
fun pid :: "('a, nat) => ('a, nat)" where "pid p = p"
fun pfst :: "(('a, nat)) list => (('a, nat)) option" where \
"pfst xs = (case xs of [] => None | y # ys => Some y)"
fun ppair :: "('a, nat) => (('a, nat)) list" where "ppair p = [pid p, p]"
"""


def test_tuple_types_check_clean(theory_file, capsys):
    path = theory_file(TUPLE_SPEC)
    assert main(["check", path]) == 0
    assert capsys.readouterr() == ("", "")
    assert main(["check", "--trace", path]) == 0
    assert "\nUni-App @ 14 : ('a#0, nat) \u27f6 ('a, nat)\n" in capsys.readouterr().err


def test_tuple_types_annotate(theory_file, capsys):
    assert main(["annotate", theory_file(TUPLE_SPEC)]) == 0
    list_ = "(('a, nat) )list"
    assert capsys.readouterr().out == (
        "pid\n"
        "pid (p :: ('a, nat)) = (p :: ('a, nat))\n"
        "\n"
        "pfst\n"
        f"pfst (xs :: {list_}) = ((case (xs :: {list_}) of (Nil :: {list_}) => "
        "(None :: (('a, nat) )option) | "
        f"(((y :: ('a, nat)) # (ys :: {list_})) :: {list_}) => "
        "((Some (y :: ('a, nat))) :: (('a, nat) )option)) :: (('a, nat) )option)\n"
        "\n"
        "ppair\n"
        "ppair (p :: ('a, nat)) = ([((pid (p :: ('a, nat))) :: ('a, nat)), "
        f"(p :: ('a, nat))] :: {list_})\n"
    )


def test_tuple_types_emit_json(theory_file, capsys):
    assert main(["annotate", "--emit", "json", theory_file(TUPLE_SPEC)]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert [(d["function"], d["declared_type"], d["equations"][0]["rhs"]["type"],
             d["diagnostics"]) for d in docs] == [
        ("pid", "('a, nat) => ('a, nat)", "('a, nat)", []),
        ("pfst", "(('a, nat)) list => (('a, nat)) option", "(('a, nat)) option", []),
        ("ppair", "('a, nat) => (('a, nat)) list", "(('a, nat)) list", []),
    ]


def test_tuple_types_have_no_cpp_mapping(theory_file, capsys):
    assert main(["annotate", "--emit", "cpp-types", theory_file(TUPLE_SPEC)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(".thy: render error: no C++ mapping for tuple types\n")


def test_earlier_function_does_not_renumber_instances(theory_file, capsys):
    """Locality: each function numbers its instances from 0, so putting an
    unrelated function before ``f`` leaves ``f``'s output byte-identical."""
    g = 'fun g :: "\'b list => nat" where "g xs = length xs"'
    f = 'fun f :: "nat => nat" where "f x = length []"'
    assert main(["annotate", theory_file(f)]) == 0
    alone = capsys.readouterr().out
    assert main(["annotate", theory_file(g + "\n" + f)]) == 0
    after_g = capsys.readouterr().out
    assert alone == "f\nf (x :: nat) = ((length (Nil :: ('a#0 )list)) :: nat)\n"
    assert after_g.startswith("g\n") and after_g.endswith("\n\n" + alone)


def test_unparenthesised_lambda_argument_and_primitive_constructor_argument(theory_file, capsys):
    """``map %y. ...`` takes the lambda as an atom that runs to the closing
    parenthesis; ``Box nat`` is a constructor with an unquoted primitive
    argument type."""
    source = (
        "datatype box = Box nat\n"
        'fun unbox :: "box => nat" where "unbox (Box n) = n"\n'
        'fun at0 :: "(nat list => nat list) => nat list" where "at0 h = h [0]"\n'
        'fun f :: "nat => nat list" where "f x = at0 (map %y. y + x)"\n'
    )
    assert main(["annotate", theory_file(source)]) == 0
    nats = "(nat )list"
    assert capsys.readouterr() == (
        "unbox\n"
        "unbox ((Box (n :: nat)) :: box) = (n :: nat)\n"
        "\n"
        "at0\n"
        f"at0 (h :: ({nats} => {nats})) = ((h ([(0 :: nat)] :: {nats})) :: {nats})\n"
        "\n"
        "f\n"
        "f (x :: nat) = ((at0 ((map (\\<lambda>y.(((y :: nat) + (x :: nat)) :: nat) :: (nat => nat))) "
        f":: ({nats} => {nats}))) :: {nats})\n",
        "",
    )
