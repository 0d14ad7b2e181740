"""Dependency graph, stratification, cost propagation, push classification."""
from __future__ import annotations

import pytest

import premlog as P
from premlog.analysis import (
    _unify_args,
    build_dependency_graph,
    compose_procedure,
    find_cost_arguments,
    lacks,
    lacks_transfer,
    stratify,
)
from premlog.cli import main
from premlog.errors import AmbiguousCost, NoCost, StratificationError
from premlog.model import ArithExpr, Bound, Constant, Extremum, Variable
from premlog.rewrite import plan

import conftest
from conftest import SPATH_PRECONSTRAINED, CAPPED_MAX, MUTUAL_COUNT, CLIQUE_FACTS, BOUNDED_PATH, PARTY_GATED, PARTY_COUNT, PART_EXPLOSION


# ===== dependency graph and strata ============================================


def test_dependency_graph_sccs():
    prog = P.parse_program(BOUNDED_PATH + "arc(a,b,1).")
    g = build_dependency_graph(prog.rules)
    assert g.scc_of["path"] != g.scc_of["llpath"]
    # path is its own recursive component
    assert any(e.head == "path" and e.body == "path" for e in g.edges)


def test_dependency_graph_recursive_set():
    prog = P.parse_program(
        "r1: a(X) :- b(X).\n"  # a and b read each other
        "r2: b(X) :- a(X), e(X).\n"
        "r3: c(X) :- c(X), e(X).\n"  # a self-loop
        "r4: d(X) :- a(X), not c(X).\n"
        "e(1).\n"
    )
    assert build_dependency_graph(prog.rules).recursive == {"a", "b", "c"}


def test_mutual_recursion_single_scc():
    prog = P.parse_program(PARTY_GATED + CLIQUE_FACTS)
    g = build_dependency_graph(prog.rules)
    assert g.scc_of["attend"] == g.scc_of["cntfriends"]


def test_program_graph_ignores_facts():
    bare = P.parse_program(PARTY_GATED)
    with_facts = bare.with_facts(P.parse_program(CLIQUE_FACTS + "lonely(x).").facts)
    assert with_facts.facts and with_facts.graph is bare.graph
    for field in ("sccs", "edges", "recursive"):
        assert getattr(with_facts.graph, field) == getattr(bare.graph, field)
    assert "lonely" not in with_facts.graph.scc_of


def test_parsed_graph_is_the_graph_of_the_normalized_rules():
    # parse_program builds the graph of its clauses as written and gives it to
    # the Program: normalizing head annotations and recursive is_min/is_max
    # goals, and setting int_up2 rules aside, must leave it unchanged.
    texts = [v for k, v in vars(conftest).items() if k.isupper() and isinstance(v, str)]
    texts.append(
        "r1: int_up2(N,J) :- int_up2(N,I), J=I+1.\n"
        "r2: p(Y,D) :- e(a,Y,D).\n"
        "r3: p(Y,D) :- p(X,Dx), e(X,Y,W), D=Dx+W, is_min((Y),(D)).\n"
        "r4: q(J) :- p(Y,D), int_up2(D,J), not e(Y,Y,J)."
    )
    for text in texts:
        prog = P.parse_program(text)
        assert prog.graph == build_dependency_graph(prog.rules)


def test_stratify_orders_bottom_up():
    prog = P.parse_program(BOUNDED_PATH + "arc(a,b,1).")
    strata = stratify(prog)
    order = {p: i for i, s in enumerate(strata) for p in s.predicates}
    assert order["path"] < order["llpath"]


def test_stratify_allows_monotonic_aggregates_in_recursion():
    prog = P.parse_program(MUTUAL_COUNT)
    strata = stratify(prog)
    assert len(strata) == 1 and set(strata[0].predicates) <= prog.graph.recursive


def test_stratify_blocks_unapproved_count_in_recursion():
    prog = P.parse_program(PARTY_COUNT + "organizer(o).")
    with pytest.raises(StratificationError):
        stratify(prog)


def test_stratify_blocks_recursive_negation():
    prog = P.parse_program(
        "r1: p(X) :- q(X), not p(X).\nq(a)."
    )
    with pytest.raises(StratificationError):
        stratify(prog)


def test_nonrecursive_negation_stratifies():
    prog = P.parse_program("r1: p(X) :- q(X), not r(X).\nq(a). r(b).")
    strata = stratify(prog)
    assert not set(strata[0].predicates) & prog.graph.recursive


# ===== cost argument propagation ==============================================


def test_find_cost_arguments_simple():
    prog = P.parse_program(BOUNDED_PATH + "arc(a,b,1).")
    costmap = find_cost_arguments(prog.rules, {"path"}, "path", 1)
    assert costmap == {"path": 1}


def test_find_cost_arguments_crosses_scc():
    text = """
    r1: p(Y,D) :- e(Y,D).
    r2: p(Y,D) :- q(X,Dx), e2(X,Y,W), D=Dx+W.
    r3: q(Y,D) :- p(Y,D).
    e(a,1).
    """
    prog = P.parse_program(text)
    costmap = find_cost_arguments(prog.rules, {"p", "q"}, "p", 1)
    assert costmap == {"p": 1, "q": 1}


def test_find_cost_arguments_ambiguous_within_rule():
    # both arguments of the recursive atom feed the head cost
    text = """
    r1: p(Y,D) :- e(Y,D).
    r2: p(Y,D) :- p(D,D), nodes(Y).
    e(a,1). nodes(a).
    """
    prog = P.parse_program(text)
    with pytest.raises(AmbiguousCost):
        find_cost_arguments(prog.rules, {"p"}, "p", 1)


def test_find_cost_arguments_ambiguous_across_rules():
    text = """
    r1: p(Y,D) :- e(Y,D).
    r2: p(Y,D) :- p(X,D), e(Y,X).
    r3: p(Y,D) :- p(D,X), e(Y,X).
    e(a,1).
    """
    prog = P.parse_program(text)
    with pytest.raises(AmbiguousCost):
        find_cost_arguments(prog.rules, {"p"}, "p", 1)


def test_no_cost_when_position_unused():
    prog = P.parse_program("r1: p(X) :- p(X), e(X).\nr2: p(X) :- e(X).\ne(a).")
    with pytest.raises(NoCost):
        find_cost_arguments(prog.rules, {"p"}, "p", 2)


# ===== rule classification ====================================================


def _rule(prog_text, rid):
    prog = P.parse_program(prog_text)
    return prog, {r.id: r for r in prog.rules}[rid]


def test_additive_rule_is_inflation_and_deflation():
    prog, r2 = _rule(BOUNDED_PATH + "arc(a,b,1).", "r2")
    assert lacks(r2, "inflation", {"path": 1}, {"path"}) == ""
    assert lacks(r2, "deflation", {"path": 1}, {"path"}) == ""


def test_exit_rule_vacuously_both():
    prog, r1 = _rule(BOUNDED_PATH + "arc(a,b,1).", "r1")
    for prop in ("inflation", "deflation", "nondecreasing", "nonincreasing"):
        assert lacks(r1, prop, {"path": 1}, {"path"}) == ""
    for bound in (Bound("upper", "path", 1, "<", 5), Bound("lower", "path", 1, ">", 5)):
        assert lacks_transfer(r1, bound, {"path": 1}, {"path"}) == ""


def test_nonneg_guard_makes_rule_nondecreasing():
    prog, r2 = _rule(BOUNDED_PATH + "arc(a,b,1).", "r2")
    assert lacks(r2, "nondecreasing", {"path": 1}, {"path"}) == ""
    assert lacks(r2, "nonincreasing", {"path": 1}, {"path"}) != ""


def test_unguarded_addition_is_not_nondecreasing():
    text = """
    r1: p(Y,D) :- e(Y,D).
    r2: p(Y,D) :- p(X,Dx), e2(X,Y,W), D=Dx+W.
    e(a,1).
    """
    prog, r2 = _rule(text, "r2")
    # W may be negative, so the head cost can drop below the body cost
    assert lacks(r2, "nondecreasing", {"p": 1}, {"p"}) != ""
    assert lacks(r2, "nonincreasing", {"p": 1}, {"p"}) != ""
    assert lacks(r2, "inflation", {"p": 1}, {"p"}) == ""
    assert lacks(r2, "deflation", {"p": 1}, {"p"}) == ""
    # ... and a firing from a dropped tuple may derive one a bound keeps
    upper = lacks_transfer(r2, Bound("upper", "p", 1, "<", 25), {"p": 1}, {"p"})
    assert upper == "head cost may fall below 25 when Dx >= 25"
    lower = lacks_transfer(r2, Bound("lower", "p", 1, ">=", 3), {"p": 1}, {"p"})
    assert lower == "head cost may exceed 2 when Dx <= 2"


def test_upper_capped_guard_kills_inflation():
    # J<=10 caps from above and J!=5 punches a hole, so neither direction
    # of the level shift is preserved
    prog, r1 = _rule(CAPPED_MAX, "r1")
    assert "caps J from above" in lacks(r1, "inflation", {"p": 0}, {"p"})
    assert lacks(r1, "deflation", {"p": 0}, {"p"}) != ""


def test_strict_progress_guard_is_fine_for_min():
    text = """
    r1: path(Y,Dy) :- arc(a,Y,Dy).
    r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
    arc(a,b,1).
    """
    prog, r2 = _rule(text, "r2")
    assert lacks(r2, "deflation", {"path": 1}, {"path"}) == ""


# ===== push classification ====================================================


def test_classify_bound_push_approved():
    prog = P.parse_program(BOUNDED_PATH + "arc(a,b,1).")
    fc = prog.final_constraints[0]
    v = P.classify_premability(prog, fc.constraint)
    assert v.approved and v.rejection is None
    assert [c for c, _ in v.plan] == [fc.constraint]


def test_classify_min_push_approved():
    text = BOUNDED_PATH.replace(
        "r3: llpath(Y,Dy) :- path(Y,Dy), Dy<143.",
        "r3: spath(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).",
    )
    prog = P.parse_program(text + "arc(a,b,1).")
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    assert v.approved
    assert {r.id for r in v.procedure} == {"r1", "r2"}


def test_classify_conjunction_checks_bound_first():
    text = BOUNDED_PATH.replace(
        "r3: llpath(Y,Dy) :- path(Y,Dy), Dy<143.",
        "r3: spath(Y,Dy) :- path(Y,Dy), Dy<143, is_min((Y),(Dy)).",
    )
    prog = P.parse_program(text + "arc(a,b,1).")
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    assert v.approved
    kinds = [type(c).__name__ for c, _ in v.plan]
    assert kinds == ["Bound", "Extremum"]


def test_classify_rejects_capped_max():
    prog = P.parse_program(CAPPED_MAX)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    assert not v.approved
    assert v.rejection.rule_id == "r1"
    assert "caps" in v.rejection.condition


def test_classify_rejects_partial_group():
    # group does not cover every non-cost argument, so the working set
    # would merge tuples the final constraint keeps apart
    text = """
    r1: p(Y,Z,D) :- e(Y,Z,D).
    r2: p(Y,Z,D) :- p(Y,Z,Dx), e2(Z,W), D=Dx+1.
    r3: out(Y,D) :- p(Y,Z,D), is_min((Y),(D)).
    e(a,b,1).
    """
    prog = P.parse_program(text)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    assert not v.approved
    assert "group" in v.rejection.condition


def test_classify_lower_bound_needs_descending():
    # head cost grows, so a lower bound cannot be pushed
    text = BOUNDED_PATH.replace("Dy<143", "Dy>3")
    prog = P.parse_program(text + "arc(a,b,1).")
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    assert not v.approved


def test_an_unguarded_path_with_negative_arcs_keeps_its_bound():
    # b@9 is past the bound, but c@3 is reached through it: pushing Dy<5 loses c.
    text = (
        "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
        "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy.\n"
        "r3: out(Y,Dy) :- path(Y,Dy), Dy<5.\n"
        "arc(a,b,9). arc(b,c,-6). arc(a,d,2).\n"
    )
    prog = P.parse_program(text)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    reason = "not an ascending mapping: head cost may fall below 5 when Dx >= 5"
    assert (v.rejection.condition, v.rejection.rule_id) == (reason, "r2")
    assert P.run_program(prog).answers("out") == sorted(P.brute_force_oracle(prog)["out"]) == [("c", 3), ("d", 2)]
    assert P.run_program(prog, force_push=True).answers("out") == [("d", 2)]


def test_a_bound_on_a_symbol_is_not_pushed():
    prog = P.parse_program(BOUNDED_PATH.replace("Dy<143", "Dy<abc") + "arc(a,b,1).")
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    reason = "not an ascending mapping: limit abc is not an integer"
    assert (v.rejection.condition, v.rejection.rule_id) == (reason, "r2")


# A product cost Dy=Dx*W has no linear form: its direction in Dx comes from
# the sign the guard gives W, and its interval from interval arithmetic.
@pytest.mark.parametrize(
    "guard, final, rejection",
    [
        ("W>=1", "is_min((Y),(Dy))", None),
        (
            "W<=-1",
            "is_min((Y),(Dy))",
            "not deflation-preserving: head cost may fall as Dx grows",
        ),
        (
            "W!=0",
            "is_min((Y),(Dy))",
            "not deflation-preserving: head cost may fall as Dx grows",
        ),
        ("W>=1", "Dy<100", None),  # Dx>=100 and W>=1 keep Dy>=100
    ],
)
def test_classify_product_cost(guard, final, rejection):
    prog = P.parse_program(
        "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
        f"r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,W), {guard}, Dy=Dx*W.\n"
        f"r3: out(Y,Dy) :- path(Y,Dy), {final}.\n"
    )
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    if rejection is None:
        assert v.approved
    else:
        assert (v.rejection.condition, v.rejection.rule_id) == (rejection, "r2")


# A DAG, so that the unconstrained fixpoint the oracle computes is finite.
_DAG_ARCS = "arc(a,b,2). arc(a,c,1). arc(c,b,1). arc(b,d,3). arc(c,d,5).\n"


def _verdict_on_dag(goals, final):
    prog = P.parse_program(
        "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
        f"r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,W), {goals}.\n"
        f"r3: out(Y,Dy) :- path(Y,Dy), {final}.\n" + _DAG_ARCS
    )
    return prog, P.classify_premability(prog, prog.final_constraints[0].constraint)


# Guards and costs that the linear form does not cover: a product inside a
# sum or a difference, a product guard, a guard on a symbol, an equality
# guard on a variable an atom binds. Each approval is held to the oracle.
@pytest.mark.parametrize(
    "goals, final, verdict",
    [
        ("W>=1, Dy=Dx*W+1", "is_min((Y),(Dy))", "min-deflation (deflation-safe: r1, r2)"),
        ("Dy=Dx*W+1", "is_min((Y),(Dy))", "not deflation-preserving: head cost may fall as Dx grows"),
        ("W>=1, Dy=Dx*W-1", "is_min((Y),(Dy))", "min-deflation (deflation-safe: r1, r2)"),
        ("W>=1, Dy=1-Dx*W", "is_min((Y),(Dy))", "not deflation-preserving: head cost may fall as Dx grows"),
        ("Dy=Dx+W*W", "is_min((Y),(Dy))", "min-deflation (deflation-safe: r1, r2)"),
        ("W>=1, Dy=Dx*W+Dx", "is_min((Y),(Dy))", "min-deflation (deflation-safe: r1, r2)"),
        ("W>=1, Dy=Dx*W-Dx", "is_min((Y),(Dy))", "not deflation-preserving: head cost may fall as Dx grows"),
        ("Y!=d, Dy=Dx+W", "is_min((Y),(Dy))", "min-deflation (deflation-safe: r1, r2)"),
        ("W>=1, Dy=Dx*W+1", "Dy<100", "upper-ascending (ascending-safe: r1, r2)"),
        ("Dx*W<100, Dy=Dx+W", "is_min((Y),(Dy))", "not deflation-preserving: guard (Dx * W) < 100 pins Dx"),
        ("W=2, Dy=Dx+W", "Dy<100", "upper-ascending (ascending-safe: r1, r2)"),
        ("Dy=Dx+W", "Dy<100", "not an ascending mapping: head cost may fall below 100 when Dx >= 100"),
        # 2*W=3 has no integer solution: r2 never fires, so it transfers the bound.
        ("2*W=3, Dy=Dx+W", "Dy<100", "upper-ascending (ascending-safe: r1, r2)"),
        # The bound test restricts Dx to what Dy<25 drops: an empty region
        # (Dy<Dx needs Dx<0), and a head the guard keeps below 40 but at 25 or more.
        ("Dy=Dx*3, Dy<Dx", "Dy<25", "upper-ascending (ascending-safe: r1, r2)"),
        ("Dy=Dx+1, Dy<40", "Dy<25", "upper-ascending (ascending-safe: r1, r2)"),
        ("Dy=Dx+1, Dy<40", "Dy>3", "not a descending mapping: head cost may exceed 3 when Dx <= 3"),
    ],
)
def test_classify_nonlinear_costs_and_guards(goals, final, verdict):
    prog, v = _verdict_on_dag(goals, final)
    if v.approved:
        assert [text for _, text in v.plan] == [verdict]
        oracle = P.brute_force_oracle(prog)["out"]
        assert set(P.run_program(prog, push=True).answers("out")) == set(oracle)
    else:
        assert (v.rejection.condition, v.rejection.rule_id) == (verdict, "r2")


# Non-linear cost heads under a sign guard on W, against each final bound or
# extremum. The head's interval is interval arithmetic over a sum or a
# difference of products, so reading a sum as a difference (or the reverse)
# flips 50 of these 240 plans.
_NONLINEAR_FINALS = (
    "D<40", "D<=40", "D>5", "D>=5", "D<40, D>5", "is_min((Y),(D))", "is_max((Y),(D))",
    "is_min((Y),(D)), D<40", "is_max((Y),(D)), D>5", "D<0",
)
# (guard, head) -> plan() step action per final above: p pushed, k kept.
_NONLINEAR_ACTIONS = {
    ("W>=1", "W*W-Dx"): "kkkkkkkkkk",
    ("W>=1", "Dx*W+1"): "ppkkkpppkp",
    ("W>=1", "Dx*W-1"): "kkkkkppkkk",
    ("W>=1", "W*W+Dx"): "ppkkkpppkp",
    ("W>=1", "Dx*W+W"): "ppkkkpppkp",
    ("W>=1", "Dx*W-W"): "kkkkkppkkk",
    ("W<=-1", "W*W-Dx"): "kkkkkkkkkk",
    ("W<=-1", "Dx*W+1"): "kkkkkkkkkk",
    ("W<=-1", "Dx*W-1"): "kkkkkkkkkk",
    ("W<=-1", "W*W+Dx"): "ppkkkpppkp",
    ("W<=-1", "Dx*W+W"): "kkkkkkkkkk",
    ("W<=-1", "Dx*W-W"): "kkkkkkkkkk",
    ("W>=0", "W*W-Dx"): "kkkkkkkkkk",
    ("W>=0", "Dx*W+1"): "kkkkkppkkp",
    ("W>=0", "Dx*W-1"): "kkkkkppkkk",
    ("W>=0", "W*W+Dx"): "ppkkkpppkp",
    ("W>=0", "Dx*W+W"): "kkkkkppkkp",
    ("W>=0", "Dx*W-W"): "kkkkkppkkk",
    ("W<=0", "W*W-Dx"): "kkkkkkkkkk",
    ("W<=0", "Dx*W+1"): "kkkkkkkkkk",
    ("W<=0", "Dx*W-1"): "kkkkkkkkkk",
    ("W<=0", "W*W+Dx"): "ppkkkpppkp",
    ("W<=0", "Dx*W+W"): "kkkkkkkkkk",
    ("W<=0", "Dx*W-W"): "kkkkkkkkkk",
}
# A DAG with weights of both signs and zero, so the oracle's fixpoint is finite.
_SIGNED_DAG = (
    "e(a,b,3). e(a,c,-2). e(b,c,2). e(b,d,-1). e(c,d,4). e(c,e,-3). e(d,e,1). e(a,d,0). "
    "e(b,e,-4). e(d,f,6). e(e,f,-5).\n"
)


def _nonlinear_program(guard, head, final):
    return P.parse_program(
        "r1: p(Y,D) :- e(a,Y,W), D=W.\n"
        f"r2: p(Y,D) :- p(X,Dx), e(X,Y,W), {guard}, D={head}.\n"
        f"r3: q(Y,D) :- p(Y,D), {final}.\n" + _SIGNED_DAG
    )


@pytest.mark.parametrize("guard, head", sorted(_NONLINEAR_ACTIONS))
def test_nonlinear_cost_heads_are_pushed_only_where_the_oracle_agrees(guard, head):
    actions = ""
    for final in _NONLINEAR_FINALS:
        prog = _nonlinear_program(guard, head, final)
        [step] = plan(prog).steps
        actions += step.action[0]
        if step.action == "pushed":
            want = P.brute_force_oracle(prog).get("q", set())
            assert set(P.run_program(prog).answers("q")) == want, final
    assert actions == _NONLINEAR_ACTIONS[guard, head]


def test_unify_args_fails_on_clashing_terms():
    x = Variable("X")
    assert _unify_args((Constant("a"), x), (Variable("Z"), Constant(1))) == {"Z": Constant("a"), "X": Constant(1)}
    assert _unify_args((Constant("a"),), (Constant("b"),)) is None
    assert _unify_args((ArithExpr("+", x, Constant(1)),), (Constant(2),)) is None


def test_compose_procedure_declines_what_it_cannot_unfold():
    prog = P.parse_program(PARTY_GATED + CLIQUE_FACTS)
    assert compose_procedure(prog, "cntfriends", "nobody") is None  # no companion rules
    assert compose_procedure(prog, "attend", "cntfriends") is None  # the companion aggregates
    two = P.parse_program(PARTY_GATED + "r5: attend(X) :- cntfriends(X,N), N>=5.\n" + CLIQUE_FACTS)
    assert compose_procedure(two, "cntfriends", "attend") is None  # two companion rules recurse
    twice = P.parse_program(
        "r1: a(X,D) :- e(X,D).\nr2: a(Y,D) :- b(X,D1), b(Y,D2), D=D1+D2.\nr3: b(Y,D) :- a(Y,D).\n"
    )
    assert compose_procedure(twice, "a", "b") is None  # a rule reads the companion twice
    # A companion head whose constant clashes with the goal's is no unfolding;
    # a variable in the goal takes the constant.
    heads = "r1: a(X,D) :- e(X,D).\nr2: a(Y,D) :- b({},Y,D1), D=D1+1.\nr3: b(j,Y,D) :- a(Y,D).\n"
    assert [r.id for r in compose_procedure(P.parse_program(heads.format("k")), "a", "b")] == ["r1"]
    composed = compose_procedure(P.parse_program(heads.format("Z")), "a", "b")
    assert [r.id for r in composed] == ["r1", "r2+r3"]


def test_classify_uncomposable_companion_is_no_cost(tmp_path, capsys):
    text = PARTY_GATED + "r5: attend(X) :- cntfriends(X,N), N>=5.\n" + CLIQUE_FACTS
    prog = P.parse_program(text)
    message = "recursion through attend cannot be composed into cntfriends"
    with pytest.raises(NoCost, match=f"^{message}$"):
        P.classify_premability(prog, prog.final_constraints[0].constraint)
    path = tmp_path / "party.dl"
    path.write_text(text)
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().out == f"REJECTED: {message}\n"


def test_classify_rejection_names_smallest_rule_id():
    prog = P.parse_program(CAPPED_MAX)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    assert v.rejection.rule_id == min(r.id for r in prog.rules_defining("p"))


def test_compose_procedure_unfolds_single_companion():
    prog = P.parse_program(PARTY_GATED + CLIQUE_FACTS)
    composed = compose_procedure(prog, "cntfriends", "attend")
    assert composed is not None
    assert sorted(r.id for r in composed) == ["r3+r1", "r3+r2"]


def test_classify_composed_max_push():
    prog = P.parse_program(PARTY_GATED + CLIQUE_FACTS)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    assert v.approved and v.composed
    assert tuple(r.id for r in v.procedure) == ("r3+r1", "r3+r2")


def test_constraint_from_annotations():
    prog = P.parse_program(SPATH_PRECONSTRAINED)
    c = P.constraint_from_annotations(prog)
    assert c == Extremum("min", "path", (0,), 1)


def test_verdict_for_sum_shadow():
    prog = P.parse_program(PART_EXPLOSION)
    _, obligations = P.compile_count_in_recursion(prog)
    (ob,) = obligations
    assert ob.kind == "sum" and ob.approved
    assert isinstance(ob.verdict.constraint, Extremum)
    assert ob.verdict.constraint.kind == "max"


# A cost that steers a non-cost argument or an aggregate: the first rule
# classified (r2) lacks the property, and the rejection names why.
@pytest.mark.parametrize(
    "text, prop, reason",
    [
        (  # a body goal's non-cost argument reads the cost
            "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
            "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,W), W>=0, Dy=Dx+W, ok(Dx).\n"
            "r3: out(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).\n",
            "deflation",
            "argument Dx depends on the cost Dx",
        ),
        (  # a bound on a recursive msum result
            "r1: cost(P,C) :- basic(P,C).\n"
            "r2: cost(P,N) :- assb(P,S,Q), cost(S,C), CQ=C*Q, CQ>0, msum((P),(S,CQ),N).\n"
            "r3: cheap(P,C) :- cost(P,C), C<100.\n",
            "ascending",
            "aggregate result is not comparable to body costs",
        ),
        (  # a min over a recursive msum result
            "r1: cost(P,C) :- basic(P,C).\n"
            "r2: cost(P,N) :- assb(P,S,Q), cost(S,C), CQ=C*Q, CQ>0, msum((P),(S,CQ),N).\n"
            "r3: least(P,C) :- cost(P,C), is_min((P),(C)).\n",
            "deflation",
            "msum results only grow",
        ),
        (  # the cost is a counted witness, and the head cost the count
            "r1: c(X,N) :- e(X,N).\n"
            "r2: c(Y,N) :- c(X,M), e2(X,Y), mcount((Y),(X,M),N).\n"
            "r3: top(Y,N) :- c(Y,N), is_max((Y),(N)).\n",
            "inflation",
            "cost M selects the aggregated witnesses",
        ),
        (  # the cost is a count's group, and the head cost the cost itself
            "r1: p(X,D) :- e(X,D).\n"
            "r2: p(Y,D) :- p(X,D), e2(X,Y), mcount((Y,D),(X),N), N>=1.\n"
            "r3: top(Y,D) :- p(Y,D), is_max((Y),(D)).\n",
            "inflation",
            "cost D selects the aggregated witnesses",
        ),
    ],
)
def test_classify_rejects_a_cost_that_steers_arguments_or_aggregates(text, prop, reason):
    prog = P.parse_program(text)
    v = P.classify_premability(prog, prog.final_constraints[0].constraint)
    lacking = {
        "deflation": "not deflation-preserving",
        "inflation": "not inflation-preserving",
        "ascending": "not an ascending mapping",
    }[prop]
    assert (v.rejection.condition, v.rejection.rule_id) == (f"{lacking}: {reason}", "r2")
    r2 = {r.id: r for r in prog.rules}["r2"]
    if prop == "ascending":
        assert lacks_transfer(r2, v.rejection.conjunct, v.costmap, set(v.costmap)) == reason
    else:
        assert lacks(r2, prop, v.costmap, set(v.costmap)) == reason


def test_check_refuses_a_recursive_count_read_only_downward(tmp_path, capsys):
    # N<3 is the count's only reader, so the count has no ladder to transfer
    # a max from: the obligation has no verdict, and its note is the reason.
    text = (
        "r1: attend(X) :- organizer(X).\n"
        "r2: attend(Y) :- attend(X), friend(Y,X), count((Y),(X),N), N<3.\n"
        "organizer(o). friend(x,o). friend(y,x).\n"
    )
    message = "rule r2: aggregate result N is not in the head"
    _, (ob,) = P.compile_count_in_recursion(P.parse_program(text))
    assert (ob.kind, ob.verdict, ob.approved, ob.reason) == ("count", None, False, message)
    path = tmp_path / "down.dl"
    path.write_text(text)
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr().out == f"REJECTED: rule r2 count in recursion: {message}\n"


def test_sum_without_positive_guard_rejected():
    from conftest import PART_EXPLOSION_NOGUARD

    prog = P.parse_program(PART_EXPLOSION_NOGUARD)
    _, obligations = P.compile_count_in_recursion(prog)
    (ob,) = obligations
    assert not ob.approved
    assert "positive" in ob.verdict.rejection.condition
