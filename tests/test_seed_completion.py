"""The return-type seed completes every type: the top-down walk that used
to run after it changes none.

Each test runs inference under ``topdown_reference.walk_after_seed``,
which runs the kept copy of the walk on every equation's live context
right after the seed.  The walk must record no replacement, change no
node type and report nothing.  The inputs are the test corpus, every
golden source that parses, the benchmark's inputs and random theories.
"""

import random
import sys
from pathlib import Path

from hypothesis import given, settings

import holtypes as h

from corpus import CORPUS, NEGATIVE_SPEC
from test_golden import SOURCES
from test_infer import fresh_session, parse_expr
from theory_gen import theories, typed_theories
from topdown_reference import POLYMORPHIC_COMPARISONS, top_down, walk_after_seed

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def _infer_all(sources):
    """Infer every source that parses and declares cleanly; returns the
    log and the number of theories inferred."""
    inferred = 0
    with walk_after_seed() as log:
        for name, source in sources.items():
            try:
                h.infer_theory(h.parse_theory(source))
            except h.HolTypesError:
                continue
            assert not log.violations, (name, log.violations)
            inferred += 1
    return log, inferred


def test_walk_changes_nothing_on_the_corpus():
    log, inferred = _infer_all(dict(CORPUS, negative=NEGATIVE_SPEC))
    assert inferred == len(CORPUS) + 1
    equations = sum(len(f.equations) for src in CORPUS.values()
                    for f in h.parse_theory(src).functions) + 1
    assert log.equations == equations
    # The premise: the walk did compare types, so "nothing changed" says
    # something.
    assert log.compares > 0


def test_walk_changes_nothing_on_the_golden_sources():
    log, inferred = _infer_all(SOURCES)
    assert inferred >= len(CORPUS) + 1
    assert log.compares > 0


def test_walk_changes_nothing_on_the_benchmark_inputs():
    inputs = [*workloads.corpus_inputs(), *workloads.bundle_inputs(),
              *workloads.copies_inputs(random.Random(1)),
              *workloads.long_inputs(random.Random(1))]
    log, inferred = _infer_all({inp.name: inp.source for inp in inputs})
    assert inferred == len(inputs)
    assert log.compares > 0


@settings(max_examples=200, deadline=None)
@given(theories(), typed_theories())
def test_walk_changes_nothing_on_random_theories(source, typed_source):
    # Most free-form theories are ill-typed, so the walk stops at an
    # error-typed root; the well-typed ones give it types to compare.
    _infer_all({"random": source, "typed": typed_source})


class TestReferenceWalk:
    """The kept walk still behaves as it did in the pipeline."""

    def test_polymorphic_comparison_arguments_untouched(self):
        sess = fresh_session()
        e = parse_expr("x = y")
        q = h.Var("q", 7)
        for node in e.args:
            sess.binders[node.node_id] = node.node_id
            sess.ctx.set_type(node.node_id, q)
        sess.ctx.set_type(e.node_id, h.Prim("bool"))
        top_down(sess, e)
        assert sess.ctx.type_of(e.args[0].node_id) == q
        assert sess.ctx.type_of(e.args[1].node_id) == q

    def test_variable_node_is_a_no_op(self):
        sess = fresh_session()
        e = parse_expr("somevar")
        sess.ctx.set_type(e.node_id, h.Prim("nat"))
        before = dict(sess.ctx.node_types)
        top_down(sess, e)
        assert sess.ctx.node_types == before

    def test_polymorphic_comparison_flags(self, prelude):
        assert "=" in POLYMORPHIC_COMPARISONS
        assert "<" in POLYMORPHIC_COMPARISONS
        assert "+" not in POLYMORPHIC_COMPARISONS
        assert "If" not in POLYMORPHIC_COMPARISONS
        assert all(name in prelude for name in POLYMORPHIC_COMPARISONS)
