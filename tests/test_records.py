"""The records are ``__slots__`` classes with dataclass-style ``==`` and
``repr``, and the ``check`` path loads no ``dataclasses``, ``inspect`` or
``json``."""

import ast
import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import holtypes as h
from holtypes.emit import CppTypeMap
from holtypes.exprs import Span
from holtypes.infer import InferenceSession
from holtypes.parser import Token, tokenize
from holtypes.registry import BUILTIN

from corpus import BS_SPEC, CORPUS, NEGATIVE_SPEC


def _corpus_records(monkeypatch):
    """Every kind of record that parsing, inferring and emitting the
    corpus builds, substitution sets included."""
    substs = []
    apply = InferenceSession.apply_substitution
    monkeypatch.setattr(InferenceSession, "apply_substitution",
                        lambda sess, s: (substs.append(s), apply(sess, s))[1])
    records = [CppTypeMap()]
    for source in (*CORPUS.values(), NEGATIVE_SPEC):
        theory = h.parse_theory(source)
        result = h.infer_theory(theory, trace=True)
        for ts in result.typed_specs:
            h.emit_annotated(ts)
            h.emit_json(ts)
        records += [*tokenize(source), theory, result, *theory.datatypes, *theory.functions,
                    *result.typed_specs, *result.diagnostics, *result.registry.entries.values()]
        for e in theory.all_exprs():
            records += [e, e.span]
    return records + substs


def test_records_have_no_instance_dict(monkeypatch):
    records = _corpus_records(monkeypatch)
    kinds = {type(r).__name__ for r in records}
    assert kinds == {
        "Token", "Span", "ConstExpr", "VarExpr", "AppExpr", "LambdaExpr", "CaseExpr",
        "LetInExpr", "ListExpr", "SetExpr", "DatatypeDecl", "FunctionSpec", "TheoryFile",
        "Diagnostic", "TypedSpec", "InferenceResult", "TypeScheme", "SubstitutionSet",
        "CppTypeMap",
    }
    assert [r for r in records if hasattr(r, "__dict__")] == []


def test_records_survive_copy_deepcopy_and_pickle():
    theory = h.parse_theory(BS_SPEC)
    result = h.infer_theory(theory)
    for record in (theory, *result.typed_specs, *result.registry.entries.values(),
                   h.SubstitutionSet({h.Var("a"): h.Prim("nat")}), CppTypeMap()):
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)


_X = h.VarExpr(1, name="x")
_NODE_REPRS = [
    (h.ConstExpr(0, Span(1, 2, 1, 3), literal="7"),
     "ConstExpr(node_id=0, literal='7', literal_kind='integral')"),
    (_X, "VarExpr(node_id=1, name='x')"),
    (h.AppExpr(2, head="f", args=[_X]), "AppExpr(node_id=2, head='f', args=[" + repr(_X) + "])"),
    (h.LambdaExpr(3, params=["x"], param_ids=[4], body=_X),
     "LambdaExpr(node_id=3, params=['x'], param_ids=[4], body=" + repr(_X) + ")"),
    (h.CaseExpr(5, scrutinee=_X, branches=[(_X, _X)]),
     f"CaseExpr(node_id=5, scrutinee={_X!r}, branches=[({_X!r}, {_X!r})])"),
    (h.LetInExpr(6, pattern=_X, bound=_X, body=_X),
     f"LetInExpr(node_id=6, pattern={_X!r}, bound={_X!r}, body={_X!r})"),
    (h.ListExpr(7, elems=[_X]), f"ListExpr(node_id=7, elems=[{_X!r}])"),
    (h.SetExpr(8), "SetExpr(node_id=8, elems=[])"),
]


@pytest.mark.parametrize("node, text", _NODE_REPRS, ids=[t.split("(")[0] for _, t in _NODE_REPRS])
def test_node_repr_is_in_dataclass_form_without_the_span(node, text):
    assert repr(node) == text


def test_other_reprs_are_in_dataclass_form():
    theory = h.parse_theory('fun f :: "nat => bool" where "f x = x"')
    result = h.infer_theory(theory, trace=True)
    (diagnostic,) = result.diagnostics
    assert repr(Span(1, 2, 3, 4)) == "Span(line=1, column=2, end_line=3, end_column=4)"
    assert repr(Token("IDENT", "f", 1, 5, 1, 6)) == (
        "Token(kind='IDENT', value='f', line=1, column=5, end_line=1, end_column=6)")
    assert repr(diagnostic) == (
        "Diagnostic(node_id=1, kind='mismatch', message="
        "'right-hand side has type nat, declared return type is bool')")
    assert repr(result).startswith("InferenceResult(registry=<holtypes.registry.SolverRegistry ")
    assert repr(result).endswith(f", typed_specs={result.typed_specs!r})")
    assert repr(theory) == (
        "TheoryFile(datatypes=[], functions=[FunctionSpec(name='f', declared_type="
        "Fun(parts=(Prim(name='nat'), Prim(name='bool'))), equations=[([VarExpr("
        "node_id=0, name='x')], VarExpr(node_id=1, name='x'))])])")
    assert repr(h.TypeScheme(h.Prim("nat"), BUILTIN)) == (
        "TypeScheme(body=Prim(name='nat'), origin='builtin')")
    assert repr(h.SubstitutionSet()) == "SubstitutionSet(bindings={})"
    assert repr(CppTypeMap({"nat": "int"})) == "CppTypeMap(heads={'nat': 'int'})"


def test_equality_is_field_wise_and_per_class():
    assert h.AppExpr(0, head="f") == h.AppExpr(0, head="f")
    assert h.AppExpr(0, head="f") != h.AppExpr(0, Span(1, 1, 1, 2), head="f")
    assert h.ListExpr(0) != h.SetExpr(0)
    assert h.AppExpr(0).args is not h.AppExpr(0).args
    assert h.AppExpr(0).span == Span(0, 0, 0, 0)


@pytest.mark.parametrize("record, field", [
    (h.TypeScheme(h.list_of(h.Var("a")), BUILTIN), "body"),
    (h.TypeScheme(h.Prim("nat"), BUILTIN), "origin"),
    (h.SubstitutionSet({h.Var("a"): h.Prim("nat")}), "bindings"),
])
def test_frozen_records_refuse_assignment(record, field):
    for attempt in (lambda: setattr(record, field, None), lambda: delattr(record, field),
                    lambda: setattr(record, "other", None)):
        with pytest.raises(AttributeError):
            attempt()


def test_type_scheme_is_hashable_by_value():
    scheme = h.TypeScheme(h.list_of(h.Var("a")), BUILTIN)
    same = h.TypeScheme(h.list_of(h.Var("a")), BUILTIN)
    assert scheme == same and hash(scheme) == hash(same)
    assert len({scheme, same}) == 1


_IMPORT_PROBE = """\
import sys
sys.path.insert(0, sys.argv[1])
heavy = ("dataclasses", "inspect", "json")
loaded = lambda: [m for m in heavy if m in sys.modules]
from holtypes.cli import main
steps = [loaded()]
steps.append((main(["check", sys.argv[2]]), loaded()))
steps.append((main(["annotate", "--emit", "json", "--output", sys.argv[3], sys.argv[2]]), loaded()))
print(repr(steps))
"""


def test_check_path_loads_no_dataclasses_inspect_or_json(tmp_path):
    theory = tmp_path / "bs.thy"
    theory.write_text(BS_SPEC, encoding="utf-8")
    src = str(Path(h.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, src, str(theory), str(tmp_path / "bs.json")],
        capture_output=True, text=True, timeout=60, check=True)
    after_import, after_check, after_json = ast.literal_eval(proc.stdout)
    assert after_import == []
    assert after_check == (0, [])
    # The probe does see a module load: --emit json imports json.
    assert after_json == (0, ["json"])
