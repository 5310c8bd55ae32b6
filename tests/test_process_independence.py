"""Outputs depend neither on the hash seed nor on what the process did
before.  Types hash by identity, so the iteration order of a set of types
could change from process to process, or after unrelated work in one
process; none of that may reach the output.

The corpus and the negative spec run in every mode below, in two fresh
interpreters with different ``PYTHONHASHSEED`` values and once in this
process after building 20,000 unrelated types; all three must give one
digest.  The interpreters get an environment holding only the hash seed
(``-I`` would ignore ``PYTHONHASHSEED`` too).
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import holtypes as h

from corpus import CORPUS, NEGATIVE_SPEC

THEORIES = dict(CORPUS, negative=NEGATIVE_SPEC)

MODES = (
    ["check"],
    ["annotate"],
    ["annotate", "--emit", "json"],
    ["annotate", "--emit", "cpp-types"],
    ["check", "--trace", "--dump-sigma"],
)

_PROBE = """\
import sys
sys.path[:0] = sys.argv[1:3]
from test_process_independence import outputs_digest
print(hash("holtypes"), outputs_digest())
"""


def outputs_digest():
    """sha256 over the exit code, stdout and stderr of every mode on every
    theory, each written to a bare file name in the current directory."""
    from holtypes.cli import main

    digest = hashlib.sha256()
    for name, source in sorted(THEORIES.items()):
        path = f"{name}.thy"
        Path(path).write_text(source, encoding="utf-8")
        for mode in MODES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*mode, path])
            digest.update(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
    return digest.hexdigest()


def _fresh_process(seed, cwd):
    src = str(Path(h.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-s", "-c", _PROBE, src, str(Path(__file__).parent)],
        env={"PYTHONHASHSEED": seed}, cwd=cwd,
        capture_output=True, text=True, timeout=120, check=True)
    string_hash, digest = run.stdout.split()
    return string_hash, digest


def test_outputs_are_independent_of_hash_seed_and_history(tmp_path, monkeypatch):
    (tmp_path / "0").mkdir()
    (tmp_path / "1").mkdir()
    hash_0, digest_0 = _fresh_process("0", tmp_path / "0")
    hash_1, digest_1 = _fresh_process("1", tmp_path / "1")
    assert hash_0 != hash_1  # the seeds took effect
    assert digest_0 == digest_1

    # Alive while the digest is taken, so this run's types sit at other
    # addresses, and hash differently, than in a fresh process.
    unrelated = [h.Fun((h.Var(f"w{i}"), h.list_of(h.Var("w", i)))) for i in range(20_000)]
    monkeypatch.chdir(tmp_path)
    assert outputs_digest() == digest_0
    del unrelated
