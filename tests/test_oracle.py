import pytest

import holtypes as h
from holtypes.errors import UnificationError
from holtypes.unify import compare, reduce

from oracle import BudgetExceededError, enumerate_types, oracle_equalize, oracle_unify, relation_holds

nat = h.Prim("nat")
bool_ = h.Prim("bool")
a = h.Var("a")
b = h.Var("b")


def test_enumeration_counts():
    assert len(enumerate_types([a, b], 1)) == 4
    assert len(enumerate_types([a, b], 2)) == 28


def test_enumeration_grows_without_duplicates():
    d2 = enumerate_types([a, b], 2)
    d3 = enumerate_types([a, b], 3)
    assert len(d3) == len(set(d3))
    assert set(d2) <= set(d3)
    assert h.list_of(h.list_of(nat)) in set(d3)
    assert h.Fun((h.list_of(a), b)) in set(d3)


def test_independent_relation_matches_engine_on_small_pairs():
    pool = enumerate_types([a, b], 2)
    for t in pool:
        for s in pool:
            assert relation_holds(t, s) == compare(t, s).holds()


def test_simple_success():
    out = oracle_unify(h.list_of(a), h.list_of(nat))
    assert out.bindings == {a: nat}


def test_primitive_clash_fails():
    assert oracle_unify(nat, bool_) is None


def test_shared_variable_conflict_fails():
    assert oracle_unify(h.Fun((a, a)), h.Fun((nat, bool_))) is None


def test_equalizer_found_for_variable_pair():
    out = oracle_unify(h.Fun((a, b)), h.Fun((b, a)))
    assert out is not None
    assert h.apply_subst(out, h.Fun((a, b))) == h.apply_subst(out, h.Fun((b, a)))


def test_direction_respected():
    # nat is not more abstract than a variable, so this pair fails even
    # though an equalizing substitution exists.
    assert oracle_unify(nat, a) is None
    assert oracle_equalize(nat, a) is not None


def test_var_budget_enforced():
    t = h.Fun((h.Var("x"), h.Var("y"), h.Var("z")))
    with pytest.raises(ValueError):
        oracle_unify(t, t)


def test_cap_raises_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        oracle_equalize(h.Fun((a, b)), h.Fun((b, h.list_of(a))), cap=3)


def test_occurs_pair_fails():
    assert oracle_unify(a, h.list_of(a)) is None


@pytest.mark.parametrize("t,s", [
    (h.list_of(a), h.list_of(nat)),
    (h.Fun((a, b)), h.Fun((nat, bool_))),
    (h.Fun((a, a)), h.Fun((nat, b))),
    (h.Fun((a, a)), h.Fun((h.list_of(b), h.list_of(nat)))),
    (a, h.Fun((nat, bool_))),
])
def test_agreement_with_reduce_on_success_cases(t, s):
    oracle_out = oracle_unify(t, s)
    assert oracle_out is not None
    engine_out = reduce(t, s)
    for out in (oracle_out, engine_out):
        assert h.apply_subst(out, t) == h.apply_subst(out, s)


@pytest.mark.parametrize("t,s", [
    (nat, bool_),
    (h.Fun((a, a)), h.Fun((nat, bool_))),
    (h.list_of(nat), h.set_of(nat)),
    (a, h.list_of(a)),
    (nat, a),
])
def test_agreement_with_reduce_on_failure_cases(t, s):
    assert oracle_unify(t, s) is None
    with pytest.raises(UnificationError):
        reduce(t, s)
