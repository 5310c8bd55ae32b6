"""Output contract: the exit code, stdout and stderr of every CLI mode on
every corpus theory, and of ``check`` on every malformed theory, must stay
byte-identical.

Each run is hashed and compared with ``golden_digests.json``.  After an
intended output change, regenerate the table with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from holtypes.cli import main

from corpus import CORPUS, NEGATIVE_SPEC

THEORIES = dict(CORPUS, negative=NEGATIVE_SPEC)


def _eq(rhs):
    return f'fun f :: "nat => nat" where "f x = {rhs}"'


# One theory per distinct ParseError, ArityMismatchError and
# DuplicateNameError message of the front end, checked in ``check`` mode.
MALFORMED = {
    # lexer
    "unterminated-comment": "(* (* nested *) never closed",
    "unterminated-string": 'fun f :: "nat => nat',
    "stray-quote": 'fun f :: "\' => nat" where "f x = x"',
    "unexpected-character": _eq("x ^ 1"),
    # declarations
    "not-a-declaration": "lemma foo",
    "function-name": 'fun "f" :: "nat => nat"',
    "double-colon": 'fun f "nat => nat"',
    "quoted-type": "fun f :: nat => nat",
    "function-type": 'fun f :: "nat" where "f = 0"',
    "missing-where": 'fun f :: "nat => nat" "f x = x"',
    "quoted-equation": 'fun f :: "nat => nat" where f x = x',
    "equation-head": 'fun f :: "nat => nat" where "g x = x"',
    "equation-name": 'fun f :: "nat => nat" where "0 = x"',
    "equation-equals": 'fun f :: "nat => nat" where "f x"',
    "after-equation": _eq("x )"),
    "arity-mismatch": 'fun f :: "nat => nat" where "f x y = x"',
    "duplicate-function": _eq("x") + "\n" + _eq("x"),
    "counter-in-declared-type": 'fun f :: "\'a#1 => nat" where "f x = 0"',
    # types
    "type-counter": 'fun f :: "\'a# => nat" where "f x = 0"',
    "type-expected": 'fun f :: "nat =>" where "f x = x"',
    "type-close-paren": 'fun f :: "(nat => nat" where "f x = x"',
    "tuple-type-arity": 'fun f :: "(nat, nat, nat) => nat" where "f x = 0"',
    "builtin-ctor-arity": 'fun f :: "(nat, nat) list => nat" where "f x = 0"',
    "after-type": 'fun f :: "nat => nat )" where "f x = x"',
    # datatypes
    "datatype-param": "datatype ('a, nat) t = A",
    "datatype-param-close": "datatype ('a 'b) t = A",
    "datatype-name": "datatype 'a = A",
    "datatype-equals": "datatype t A",
    "constructor-name": 'datatype t = "A"',
    "duplicate-datatype": "datatype t = A\ndatatype t = B",
    "duplicate-constructor": "datatype t = A | A",
    "builtin-constructor": "datatype t = Cons",
    "unquoted-compound": "datatype t = A list",
    "unbound-type-variable": "datatype t = A 'b",
    "counter-in-constructor": 'datatype \'a t = A "\'a#1"',
    "builtin-list": "datatype list = A",
    "builtin-set-arity": "datatype ('a, 'b) set = A",
    "builtin-nat": 'datatype nat = Z\nfun f :: "nat => nat" where "f x = Z"',
    "builtin-option": "datatype 'a option = A",
    # patterns
    "keyword-in-pattern": 'fun f :: "nat => nat" where "f if = 0"',
    "pattern-expected": 'fun f :: "nat => nat" where "f , = 0"',
    "pattern-close-paren": 'fun f :: "nat list => nat" where "f (x # xs = 0"',
    "pattern-close-bracket": 'fun f :: "nat list => nat" where "f [x, y = 0"',
    "pattern-close-brace": 'fun f :: "nat set => nat" where "f {x = 0"',
    # expressions
    "lambda-params": _eq("%. x"),
    "lambda-dot": _eq("%y y"),
    "let-equals": _eq("let y x in y"),
    "missing-in": _eq("let y = x y"),
    "missing-of": _eq("case x 0 => 1"),
    "case-arrow": _eq("case x of 0 = 1"),
    "missing-then": _eq("if x else 1"),
    "missing-else": _eq("if x = 0 then 0"),
    "application-head": _eq("(f) x"),
    "unexpected-keyword": _eq("x + then"),
    "tuple-expression": _eq("(x, x)"),
    "expression-close-paren": _eq("(x + 1"),
    "expression-expected": _eq("x + )"),
    "type-variable-literal": _eq("'True"),
    "expression-close-bracket": _eq("[x, x"),
    "expression-close-brace": _eq("{x"),
}

SOURCES = {**THEORIES, **MALFORMED}

MODES = {
    "check": ["check"],
    "annotated": ["annotate", "--emit", "annotated"],
    "json": ["annotate", "--emit", "json"],
    "cpp-types": ["annotate", "--emit", "cpp-types"],
    "trace": ["check", "--trace"],
    "sigma": ["check", "--dump-sigma"],
}

TABLE = Path(__file__).with_name("golden_digests.json")


def run_digest(name, mode):
    """sha256 of (exit code, stdout, stderr) for one CLI run in the current
    directory; the bare file name keeps paths out of the output."""
    path = f"{name}.thy"
    Path(path).write_text(SOURCES[name], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*MODES[mode], path])
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def _key(name, mode):
    return f"{name}/{mode}"


def _check_golden(name, mode):
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    assert run_digest(name, mode) == expected[_key(name, mode)], (
        f"output of {name!r} in mode {mode!r} changed"
    )


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(THEORIES))
def test_output_matches_golden(name, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _check_golden(name, mode)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _check_golden(name, "check")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            cases = [(n, m) for n in sorted(THEORIES) for m in sorted(MODES)]
            cases += [(n, "check") for n in sorted(MALFORMED)]
            table = {_key(n, m): run_digest(n, m) for n, m in cases}
        finally:
            os.chdir(cwd)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {TABLE}")
