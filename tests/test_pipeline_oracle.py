"""The benchmark's independent output checker, run on JSON artifacts.

``bench/checker.py`` shares no code with holtypes: it parses the printed
types itself and checks every non-error node against the prelude and the
theory's declarations.  It is imported from the ``bench`` directory as is.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from holtypes.cli import main

from corpus import BS_SPEC, CORPUS, NEGATIVE_SPEC, long_equation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import checker  # noqa: E402
from workloads import renamed  # noqa: E402

THEORIES = dict(
    CORPUS,
    long50=long_equation(50),
    bundle2="\n".join(renamed(text, f"_{i}") for i in range(2) for text in CORPUS.values()),
)


def json_artifact(source, tmp_path):
    path = tmp_path / "theory.thy"
    path.write_text(source, encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["annotate", "--emit", "json", str(path)])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("name", sorted(THEORIES))
def test_checker_finds_no_problem(name, tmp_path):
    code, docs = json_artifact(THEORIES[name], tmp_path)
    assert code == 0
    assert checker.check_artifact(docs, THEORIES[name], negative=False) == []


def test_checker_accepts_the_negative_spec(tmp_path):
    code, docs = json_artifact(NEGATIVE_SPEC, tmp_path)
    assert code == 2
    assert checker.check_artifact(docs, NEGATIVE_SPEC, negative=True) == []


def test_checker_flags_a_planted_wrong_type(tmp_path):
    _, docs = json_artifact(BS_SPEC, tmp_path)
    assert checker.self_test(docs, BS_SPEC)
