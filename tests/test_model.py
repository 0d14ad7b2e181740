"""Value model, AST helpers, interpretations."""
from __future__ import annotations

import pytest

import premlog as P
from premlog.errors import Overflow, TypeMismatch
from premlog.model import (
    AggregateGoal,
    Atom,
    Bound,
    Constant,
    Extremum,
    INT_MAX,
    INT_MIN,
    Negated,
    Rule,
    Variable,
    checked_arith,
    compare_values,
    constraint_conjuncts,
    constraint_predicate,
    format_value,
    make_constraint,
    tuple_sort_key,
)

from conftest import facts_to_interp, interp_eq


def test_checked_arith_basic():
    assert checked_arith("+", 2, 3) == 5
    assert checked_arith("*", -4, 5) == -20
    assert checked_arith("-", 2, 9) == -7


def test_checked_arith_overflow():
    with pytest.raises(Overflow):
        checked_arith("+", INT_MAX, 1)
    with pytest.raises(Overflow):
        checked_arith("*", INT_MIN, 2)
    assert checked_arith("+", INT_MAX, 0) == INT_MAX


def test_checked_arith_rejects_symbols():
    with pytest.raises(TypeMismatch):
        checked_arith("+", "a", 1)


def test_compare_values_int_only_ordering():
    assert compare_values("<", 1, 2)
    assert compare_values(">=", 2, 2)
    assert compare_values("=", "a", "a")
    assert compare_values("!=", "a", "b")
    with pytest.raises(TypeMismatch):
        compare_values("<", "a", 1)
    with pytest.raises(TypeMismatch):
        compare_values("<", "a", "b")


def test_tuple_sort_key_mixes_types():
    ts = [("b", 2), (1, 0), ("a", 1)]
    assert sorted(ts, key=tuple_sort_key) == [(1, 0), ("a", 1), ("b", 2)]


def test_format_value():
    assert format_value(42) == "42"
    assert format_value("node") == "node"


def test_atom_variables_and_tuple():
    atom = Atom("arc", (Variable("X"), Constant("b"), Variable("X")))
    assert list(atom.variables()) == ["X", "X"]
    assert Atom("f", (Constant(1), Constant("a"))).as_tuple() == (1, "a")


def test_interp_helpers():
    i = facts_to_interp(P.parse_program("arc(a,b,1). arc(b,c,2).").facts)
    assert set(i["arc"]) == {("a", "b", 1), ("b", "c", 2)}
    j = {p: set(r) for p, r in i.items()}
    assert interp_eq(i, j)
    j["arc"].add(("c", "d", 3))
    assert not interp_eq(i, j)
    # empty relations do not break equality
    j["arc"].discard(("c", "d", 3))
    j["spurious"] = set()
    assert interp_eq(i, j)


def test_make_constraint_shapes():
    b = Bound("upper", "path", 1, "<", 143)
    e = Extremum("min", "path", (0,), 1)
    c = make_constraint([b])
    assert c is b
    both = make_constraint([b, e])
    assert constraint_conjuncts(both) == (b, e)
    assert constraint_predicate(both) == "path"
    with pytest.raises(ValueError):
        make_constraint([])


def test_program_rules_defining():
    prog = P.parse_program("r1: p(X) :- q(X).\nr2: p(X) :- r(X).\nq(a).")
    assert [r.id for r in prog.rules_defining("p")] == ["r1", "r2"]
    assert prog.rules_defining("missing") == []


@pytest.mark.parametrize(
    "node, text",
    [
        (Atom("done", ()), "done"),
        (Negated(Atom("e", (Variable("X"), Constant(3)))), "not e(X, 3)"),
        (AggregateGoal("is_min", ("Y",), ("D",)), "is_min((Y), (D))"),
        (AggregateGoal("sum", ("G",), ("K", "V"), "S"), "sum((G), (K, V), S)"),
        (Rule("r1", Atom("p", (Constant("a"),)), ()), "r1: p(a)."),
        (
            Rule("r2", Atom("p", (Variable("X"),)), (Atom("q", (Variable("X"),)), Atom("done", ()))),
            "r2: p(X) :- q(X), done.",
        ),
    ],
)
def test_repr(node, text):
    assert repr(node) == text
