"""Constraint pushing, extremum desugaring, counting-aggregate compilation."""
from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premlog as P
from premlog.errors import PlanMismatch
from premlog.model import (
    AggregateGoal,
    ArithExpr,
    Atom,
    Bound,
    Constant,
    Extremum,
    Negated,
    Variable,
    keep_extremal,
    make_constraint,
)
from premlog.parser import format_goal
from premlog.rewrite import (
    desugar_extremum,
    expand_msum,
    materialize_monotonic,
    monotonic_form,
    standard_form,
)

from conftest import (
    CAPPED_MAX,
    CASCADE_FACTS,
    CLIQUE_FACTS,
    BOUNDED_PATH,
    BOUNDED_PATH_PUSHED,
    PARTY_GATED,
    PARTY_COUNT,
    PART_EXPLOSION,
    PART_EXPLOSION_NOGUARD,
    MUTUAL_COUNT,
)


# ===== push_constraint ========================================================


def test_push_bound_exact_text():
    prog = P.parse_program(BOUNDED_PATH)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    pushed, trace = P.push_constraint(prog, v)
    assert P.format_program(pushed) == BOUNDED_PATH_PUSHED
    assert trace.lines()[0].startswith("pushed upper(path")


def test_push_renames_rules_with_primes():
    prog = P.parse_program(BOUNDED_PATH)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    pushed, trace = P.push_constraint(prog, v)
    assert [r.id for r in pushed.rules] == ["r1'", "r2'", "r3'"]
    assert trace.renamed == {"r1": "r1'", "r2": "r2'", "r3": "r3'"}
    assert trace.final_rule == ("r3", "r3'")


def test_push_strips_constraint_from_final_rule():
    prog = P.parse_program(BOUNDED_PATH)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    pushed, _ = P.push_constraint(prog, v)
    final = pushed.rules[-1]
    assert final.head.predicate == "llpath"
    assert len(final.body) == 1
    assert pushed.final_constraints == ()


def test_push_min_adds_extremum_goal_to_recursive_rules():
    text = BOUNDED_PATH.replace(
        "r3: llpath(Y,Dy) :- path(Y,Dy), Dy<143.",
        "r3: spath(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).",
    )
    prog = P.parse_program(text)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    pushed, _ = P.push_constraint(prog, v)
    for r in pushed.rules:
        if r.head.predicate == "path":
            assert r.extremum is not None and r.extremum.kind == "min"


def test_push_rejected_verdict_raises():
    prog = P.parse_program(CAPPED_MAX)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    with pytest.raises(PlanMismatch):
        P.push_constraint(prog, v)


def test_push_wrong_program_raises():
    prog = P.parse_program(BOUNDED_PATH)
    other = P.parse_program(BOUNDED_PATH + "arc(a,b,1).")
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    with pytest.raises(PlanMismatch):
        P.push_constraint(other, v)


# ===== extremum desugaring ====================================================


def test_desugar_is_min_builds_negated_witness():
    prog = P.parse_program(
        "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
        "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.\n"
        "r3: spath(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).\n"
        "arc(a,b,1)."
    )
    main, aux = desugar_extremum(prog.rules[2])
    assert aux.head.predicate == "lesser_r3"
    assert isinstance(main.body[-1], Negated)
    assert P.format_rule(aux) == (
        "lesser_r3: lesser_r3(Y,Dy) :- path(Y,Dy), path(Y,Dy1), Dy1<Dy."
    )


def test_desugar_is_max_uses_greater():
    prog = P.parse_program(CAPPED_MAX)
    main, aux = desugar_extremum(prog.rules[1])
    assert aux.head.predicate == "greater_r2"
    assert "J2>J1" in P.format_rule(aux) or ">" in P.format_rule(aux)


# ===== msum and int_up2 =======================================================


def test_expand_msum_goes_through_mcount():
    prog = P.parse_program("r1: t(S) :- q(X,C), msum((),(X,C),S).\nq(a,2).")
    agg = next(g for g in prog.rules[0].body if isinstance(g, AggregateGoal))
    goals, _ = expand_msum(agg)
    rendered = [format_goal(g) for g in goals]
    assert rendered == ["int_up2(C,Int)", "mcount((),(X,Int),S)"]


def _answers(text: str):
    return P.run_program(P.parse_program(text)).db.get("t", set())


# Rows share groups, witness prefixes and summands, and some summands are <= 0.
_ROWS = st.lists(
    st.tuples(st.sampled_from("gh"), st.sampled_from("abc"), st.integers(-2, 4)),
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(_ROWS, st.sampled_from(["msum", "sum"]))
def test_expand_msum_runs_like_the_native_aggregate(rows, kind):
    facts = "".join(f"q({g},{x},{c}).\n" for g, x, c in rows)
    native = f"r1: t(G,S) :- q(G,X,C), {kind}((G),(X,C),S).\n"
    rule = P.parse_program(native).rules[0]
    goals, _ = expand_msum(rule.aggregate(), rule)
    expanded = f"r1: t(G,S) :- q(G,X,C), {', '.join(map(format_goal, goals))}.\n"
    got, want = _answers(expanded + facts), _answers(native + facts)
    if kind == "msum":  # the ladders may climb in different steps; compare their tops
        got, want = (keep_extremal(rel, "max", 1) for rel in (got, want))
    assert got == want


def test_materialize_monotonic_swaps_count_for_mcount():
    mat, projections = materialize_monotonic(P.parse_program(PARTY_COUNT + CASCADE_FACTS))
    assert projections == {"cntfriends": 1}
    aggs = [g for r in mat.rules for g in r.body if isinstance(g, AggregateGoal)]
    assert {a.kind for a in aggs} == {"mcount"}


def test_materialize_monotonic_swaps_sum_for_msum():
    mat, projections = materialize_monotonic(P.parse_program(PART_EXPLOSION))
    assert projections == {"cost": 1}
    aggs = [g for r in mat.rules for g in r.body if isinstance(g, AggregateGoal)]
    assert {a.kind for a in aggs} == {"msum"}


# ===== count/sum compilation ==================================================


def test_compile_count_approves_party_program():
    prog = P.parse_program(PARTY_COUNT + CASCADE_FACTS)
    compiled, obligations = P.compile_count_in_recursion(prog)
    (ob,) = obligations
    assert ob.kind == "count" and ob.approved
    assert ob.rule_id in compiled.approved_recursive_aggregates


def test_compile_sum_approves_part_explosion():
    prog = P.parse_program(PART_EXPLOSION)
    compiled, obligations = P.compile_count_in_recursion(prog)
    (ob,) = obligations
    assert ob.kind == "sum" and ob.approved


def test_compile_sum_without_guard_not_approved():
    prog = P.parse_program(PART_EXPLOSION_NOGUARD)
    compiled, obligations = P.compile_count_in_recursion(prog)
    (ob,) = obligations
    assert not ob.approved
    assert ob.rule_id not in compiled.approved_recursive_aggregates


def test_compile_assume_overrides_rejection():
    prog = P.parse_program(PART_EXPLOSION_NOGUARD)
    compiled, obligations = P.compile_count_in_recursion(prog, assume=True)
    (ob,) = obligations
    assert not ob.approved  # the verdict itself is unchanged
    assert ob.rule_id in compiled.approved_recursive_aggregates


def test_compile_ignores_monotonic_aggregates():
    prog = P.parse_program(PARTY_GATED + CLIQUE_FACTS)
    _, obligations = P.compile_count_in_recursion(prog)
    assert obligations == []


def test_compile_ignores_nonrecursive_count():
    prog = P.parse_program(
        "r1: deg(Y,N) :- e(X,Y), count((Y),(X),N).\ne(a,b). e(c,b)."
    )
    _, obligations = P.compile_count_in_recursion(prog)
    assert obligations == []


# ===== ladders under a max ====================================================


def _kinds(rules):
    return [r.aggregate().kind if r.aggregate() else None for r in rules]


def test_standard_form_undoes_monotonic_form_under_its_max():
    prog = P.parse_program(PART_EXPLOSION)
    r2 = prog.rules_defining("cost")[1]
    ladder, pos = monotonic_form(r2)
    assert ladder.aggregate().kind == "msum"
    assert standard_form([ladder], Extremum("max", "cost", (0,), pos)) == [r2]


def test_standard_form_reads_a_check_ladder_as_its_total():
    _, [ob] = P.compile_count_in_recursion(P.parse_program(PART_EXPLOSION))
    rules = list(ob.verdict.procedure)
    assert _kinds(rules) == [None, "msum"]
    out = standard_form(rules, ob.verdict.constraint)
    assert _kinds(out) == [None, "sum"]
    assert out[0] is rules[0]
    assert [(r.id, r.head, r.extremum) for r in out] == [(r.id, r.head, r.extremum) for r in rules]


LADDER = """
r1: attend(X) :- organizer(X).
r2: attend(X) :- cntfriends(X,N), N>=3.
r3: cntfriends(Y,N) :- attend(X), friend(Y,X), mcount((Y),(X),N).
"""
LADDER_MAX = Extremum("max", "cntfriends", (0,), 1)


def test_standard_form_reads_mcount_under_max_as_count():
    rules = P.parse_program(LADDER).rules
    assert _kinds(standard_form(rules, LADDER_MAX)) == [None, None, "count"]


@pytest.mark.parametrize(
    "constraint",
    [
        Bound("lower", "cntfriends", 1, ">=", 3),
        make_constraint([Bound("upper", "cntfriends", 1, "<", 10), LADDER_MAX]),
        Extremum("min", "cntfriends", (0,), 1),
        Extremum("max", "cntfriends", (0, 1), 1),
        Extremum("max", "attend", (), 0),
    ],
    ids=repr,
)
def test_standard_form_keeps_ladders_another_constraint_could_see(constraint):
    rules = P.parse_program(LADDER).rules
    assert standard_form(rules, constraint) == list(rules)


@pytest.mark.parametrize(
    "rule, constraint",
    [
        # a post filter cuts the ladder at 4, where count would drop the key
        (
            "r3: cntfriends(Y,N) :- attend(X), friend(Y,X), mcount((Y),(X),N), N<5.",
            LADDER_MAX,
        ),
        # the result in a second head position: a rung is not below the top there
        (
            "r3: cntfriends(Y,N,N) :- attend(X), friend(Y,X), mcount((Y),(X),N).",
            LADDER_MAX,
        ),
        (
            "r3: cntfriends(Y,N,N) :- attend(X), friend(Y,X), mcount((Y),(X),N).",
            Extremum("max", "cntfriends", (0,), 2),
        ),
    ],
)
def test_standard_form_keeps_a_ladder_the_max_does_not_only_top(rule, constraint):
    rules = P.parse_program(rule).rules
    assert standard_form(rules, constraint) == list(rules)


def test_standard_form_keeps_a_result_only_inside_head_arithmetic():
    # the parser reads no head arithmetic; the rule is built by hand
    [r3] = P.parse_program(
        "r3: cntfriends(Y,N) :- attend(X), friend(Y,X), mcount((Y),(X),N)."
    ).rules
    shifted = ArithExpr("+", Variable("N"), Constant(1))
    rule = replace(r3, head=Atom("cntfriends", (Variable("Y"), shifted)))
    assert standard_form([rule], LADDER_MAX) == [rule]


def test_standard_form_keeps_the_ladder_of_another_recursive_predicate():
    rules = P.parse_program(MUTUAL_COUNT).rules
    out = standard_form(rules, Extremum("max", "cp", (), 0))
    # cq's ladder is read by r2 and not constrained: only cp's is a total
    assert [(r.head.predicate, k) for r, k in zip(out, _kinds(out))] == [
        ("cq", "mcount"),
        ("p", None),
        ("cp", "count"),
        ("q", None),
    ]
    assert out[0] is rules[0]
