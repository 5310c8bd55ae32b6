"""Output contract: the exit code, stdout and stderr of every CLI mode on
every corpus theory must stay byte-identical.

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
    Path(path).write_text(THEORIES[name], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*MODES[mode], path])
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def _key(name, mode):
    return f"{name}/{mode}"


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(THEORIES))
def test_output_matches_golden(name, mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(TABLE.read_text(encoding="utf-8"))
    assert run_digest(name, mode) == expected[_key(name, mode)], (
        f"output of {name!r} in mode {mode!r} changed"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            table = {_key(n, m): run_digest(n, m) for n in sorted(THEORIES) for m in sorted(MODES)}
        finally:
            os.chdir(cwd)
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {TABLE}")
