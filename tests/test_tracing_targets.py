"""Every pipeline function the benchmark's tracer wraps still exists, but
for the deleted top-down walk, and fires on the corpus, and tracing
leaves every op's output unchanged.

``bench/tracing.py`` records a target it cannot find as absent and drops
that layer from the per-layer metrics without failing, so a refactor that
renames or deletes a traced function must fail here instead.  The tracer
is imported from the ``bench`` directory as is; ``prepare`` only builds
the wrappers, ``install`` puts them in place.  Like the benchmark, the
corpus test runs every op traced and then untraced and compares the exit
code, stdout and stderr of the two.
"""

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402
from workloads import CORPUS_MODES  # noqa: E402

from holtypes import cli  # noqa: E402

from corpus import CORPUS  # noqa: E402


def test_every_trace_target_is_present():
    # The top-down walk was deleted: the return-type seed does its work.
    tracer = Tracer().prepare()
    assert tracer.absent == ["holtypes.infer.top_down"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_traced_corpus_fires_every_wrapper_and_parses_no_prelude(tmp_path):
    paths = []
    for name, source in CORPUS.items():
        path = tmp_path / f"{name}.thy"
        path.write_text(source, encoding="utf-8")
        paths.append(str(path))
    _run(["check", paths[0]])  # warm-up: the prelude is built here
    tracer = Tracer().prepare()
    ops = 0
    for path in paths:
        for mode in CORPUS_MODES:
            tracer.install()
            try:
                traced = _run([*mode, path])
            finally:
                tracer.uninstall()
            assert traced == _run([*mode, path]), (path, mode)
            ops += 1
    _, counts = tracer.end_op()
    assert tracer.labels - tracer.fired == set()
    assert counts["registry.prelude_calls"] == ops
    assert counts["registry.parse_type_calls"] == 0
    # The 23 theories lex to 799 tokens in 80 ``tokenize`` calls, in each of
    # the 4 modes.  The count is ``len`` of what the module-global ``tokenize``
    # returns, so a lexer that returns an unsized result or is called
    # another way fails here.
    assert counts["parser.tokens"] == 4 * 799
