"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime (run with ``pytest -s`` to see them immediately)."""

import itertools
import random
import time

import pytest

import holtypes as h
from holtypes.errors import UnificationError
from holtypes.exprs import AppExpr, walk
from holtypes.unify import compare, reduce

from corpus import (
    BS_SPEC,
    CORPUS,
    NEGATIVE_SPEC,
    PRODUCT_LISTS_SPEC,
    TEST_SPEC,
    find_app,
    infer_source,
)
from oracle import enumerate_types, oracle_unify
import test_seed_completion

nat = h.Prim("nat")
bool_ = h.Prim("bool")
a = h.Var("a")
b = h.Var("b")


def _report(number, label, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) — {label}")


def test_criterion_1_unknown_type_elimination():
    started = time.monotonic()
    theory, result = infer_source(TEST_SPEC)
    ts = result.typed_specs[0]
    assert ts.diagnostics == []
    rhs = theory.functions[0].equations[1][1]
    if_app = find_app(rhs, "If")
    expected = h.list_of(h.Var("a"))
    assert ts.type_of(if_app.node_id) == expected
    assert ts.type_of(if_app.args[1].node_id) == expected  # the Nil argument
    assert h.render_cpp_type(ts.type_of(if_app.node_id)) == "std::deque<T1>"
    _report(1, "If application and Nil typed 'a list, std::deque<T1>", started, 1.0)


def test_criterion_2_product_lists_annotation():
    started = time.monotonic()
    _, result = infer_source(PRODUCT_LISTS_SPEC)
    ts = result.typed_specs[0]
    assert ts.diagnostics == []
    out = "".join(h.emit_annotated(ts).split())
    published = [
        "(Nil::('a)list)",
        "(('a)list)list",
        "(Cons(x::'a))::(('a)list=>('a)list)",
        "'a=>(('a)list)list",
        "(xss::(('a)list)list)",
        "(xs::('a)list)",
        "((('a)list)list)list",
    ]
    for fragment in published:
        assert fragment in out, f"missing annotation fragment {fragment}"
    _report(2, "annotate matches the published product_lists block", started, 1.0)


def test_criterion_3_bs_typing():
    started = time.monotonic()
    theory, result = infer_source(BS_SPEC)
    ts = result.typed_specs[0]
    assert ts.diagnostics == []
    recursive_calls = [
        n
        for _, rhs in theory.functions[0].equations
        for n in walk(rhs)
        if isinstance(n, AppExpr) and n.head == "bs"
    ]
    assert recursive_calls
    for call in recursive_calls:
        second = ts.type_of(call.args[1].node_id)
        assert second == h.list_of(nat)
        assert h.render_cpp_type(second) == "std::deque<std::uint64_t>"
    for _, rhs in theory.functions[0].equations:
        ret = ts.type_of(rhs.node_id)
        assert ret == h.option_of(nat)
        assert h.render_cpp_type(ret) == "std::optional<std::uint64_t>"
    _report(3, "bs recursive arguments nat list, results nat option", started, 1.0)


def test_criterion_4_type_modification():
    started = time.monotonic()
    reg = h.SolverRegistry.with_prelude()
    seen = []
    for name, template in [("map", "('d#{k} => 'e#{k}) => 'd#{k} list => 'e#{k} list"),
                           ("Nil", "'a#{k} list"),
                           ("map", "('d#{k} => 'e#{k}) => 'd#{k} list => 'e#{k} list"),
                           ("Nil", "'a#{k} list")]:
        t = reg.instantiate(name)
        (k,) = {v.counter for v in h.free_type_vars(t)}
        assert t == h.parse_type(template.format(k=k))
        seen.append(k)
    assert all(x < y for x, y in zip(seen, seen[1:])), "counters must strictly increase"
    _report(4, "instantiation decorates with strictly increasing counters", started, 1.0)


LEAVES = [nat, bool_, a, b]


def _random_type(rng, depth):
    if depth <= 1 or rng.random() < 0.3:
        return rng.choice(LEAVES)
    kind = rng.choice(["list", "option", "fun"])
    if kind == "fun":
        return h.Fun((_random_type(rng, depth - 1), _random_type(rng, depth - 1)))
    return h.Constructed((_random_type(rng, depth - 1),), kind)


def _random_pair(rng):
    t = _random_type(rng, 3)
    if rng.random() < 0.5:
        bindings = {v: _random_type(rng, 2) for v in h.free_type_vars(t)
                    if rng.random() < 0.8}
        try:
            s = h.apply_subst(h.SubstitutionSet(bindings), t)
        except ValueError:
            s = _random_type(rng, 3)
        if rng.random() < 0.3:
            t, s = s, t
    else:
        s = _random_type(rng, 3)
    return t, s


def _agree(t, s):
    try:
        engine = reduce(t, s)
    except UnificationError:
        engine = None
    oracle = oracle_unify(t, s)
    assert (engine is None) == (oracle is None), (
        f"engine and oracle disagree on {t} vs {s}"
    )
    if engine is not None:
        assert h.apply_subst(engine, t) == h.apply_subst(engine, s)
        assert h.apply_subst(oracle, t) == h.apply_subst(oracle, s)
    return engine is not None


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    checked = successes = 0
    for t, s in itertools.product(enumerate_types([a, b], 2), repeat=2):
        successes += _agree(t, s)
        checked += 1
    assert checked == 28 * 28
    rng = random.Random(20260810)
    random_checked = random_successes = 0
    while random_checked < 10_000:
        t, s = _random_pair(rng)
        random_successes += _agree(t, s)
        random_checked += 1
    # both outcomes must actually be exercised
    assert 0 < successes < checked
    assert 0 < random_successes < random_checked
    _report(5, f"reduce == oracle on {checked + random_checked} pairs", started, 60.0)


def test_criterion_6_property_suite():
    started = time.monotonic()
    rng = random.Random(4096)

    # substitution idempotence
    for _ in range(2_000):
        t = _random_type(rng, 3)
        bindings = {v: _random_type(rng, 2) for v in h.free_type_vars(t)
                    if rng.random() < 0.7}
        try:
            s = h.SubstitutionSet(bindings)
        except ValueError:
            continue
        once = h.apply_subst(s, t)
        assert h.apply_subst(s, once) == once

    # occurs-check rejection
    with pytest.raises(h.OccursError):
        reduce(a, h.list_of(a))

    # compare symmetry on bare variables
    assert compare(a, b).holds() and compare(b, a).holds()
    assert compare(a, a).holds()

    # parser round-trip over the corpus
    assert len(CORPUS) >= 20
    for name, source in CORPUS.items():
        theory = h.parse_theory(source)
        for f in theory.functions:
            for patterns, rhs in f.equations:
                text = " ".join(h.format_expr(p, 7) for p in patterns)
                line = f"{f.name} {text} = {h.format_expr(rhs)}".replace("  ", " ")
                datatypes = [ln for ln in source.splitlines()
                             if ln.strip().startswith("datatype")]
                src = "\n".join(
                    datatypes
                    + [f'fun zz :: "{h.format_type(f.declared_type)}" '
                       f'where "{line.replace(f.name, "zz", 1)}"']
                )
                re_theory = h.parse_theory(src)
                from holtypes.exprs import equal_modulo_ids

                re_pats, re_rhs = re_theory.functions[0].equations[0]
                assert equal_modulo_ids(re_rhs, rhs)
                assert all(equal_modulo_ids(p, q) for p, q in zip(re_pats, patterns))

    # the return-type seed completes every type: the old top-down walk,
    # run after it, compares types and changes none
    test_seed_completion.test_walk_changes_nothing_on_the_corpus()
    _report(6, "idempotence, occurs, symmetry, round-trip, seed completes types", started, 30.0)


def test_criterion_7_negative_path(tmp_path, capsys):
    started = time.monotonic()
    from holtypes.cli import main

    path = tmp_path / "neg.thy"
    path.write_text(NEGATIVE_SPEC, encoding="utf-8")
    code = main(["check", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    theory, result = infer_source(NEGATIVE_SPEC)
    diags = result.typed_specs[0].diagnostics
    assert len(diags) == 1 and diags[0].kind == "mismatch"
    rhs = theory.functions[0].equations[0][1]
    assert diags[0].node_id == rhs.node_id
    assert err.count("mismatch") == 1
    with capsys.disabled():
        _report(7, "ill-typed spec exits 2 with one mismatch at the rhs root", started, 1.0)
