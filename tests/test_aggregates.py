"""Aggregate semantics: mcount, msum, count, sum, extrema goals."""
from __future__ import annotations

import re

import pytest

import premlog as P
from premlog.cli import EXIT_OK, main
from premlog.engine import execute, plan
from premlog.errors import TypeMismatch

from conftest import (
    PARTY_UNGATED,
    PARTY_UNGATED_CLIQUE_ATTEND,
    PARTY_UNGATED_CLIQUE_F_ATTEND,
    MUTUAL_COUNT,
    MUTUAL_COUNT_EXPECTED,
    CASCADE_ATTEND,
    CASCADE_FACTS,
    CASCADE_FCOUNT,
    CLIQUE_FACTS,
    PARTY_GATED,
    PARTY_GATED_CLIQUE_ATTEND,
    PARTY_COUNT,
    PART_EXPLOSION,
    PART_EXPLOSION_FINALCOST,
    PART_EXPLOSION_NOGUARD,
    answers,
    eval_aggregate,
    run_text,
)


# ===== laws of the static reference (conftest.eval_aggregate) ================


def test_mcount_emits_all_naturals_up_to_cardinality():
    rows = [((), ("a",)), ((), ("b",)), ((), ("b",)), ((), ("c",))]
    assert eval_aggregate("mcount", rows) == {(): {1, 2, 3}}


def test_count_is_max_of_mcount():
    rows = [(("g",), (w,)) for w in "abcde"]
    assert eval_aggregate("count", rows) == {("g",): 5}
    assert max(eval_aggregate("mcount", rows)[("g",)]) == 5


def test_msum_emits_naturals_up_to_total():
    rows = [((), ("a", 2)), ((), ("b", 3))]
    assert eval_aggregate("msum", rows) == {(): {1, 2, 3, 4, 5}}


def test_sum_is_max_of_msum():
    rows = [((), ("a", 2)), ((), ("b", 3)), ((), ("b", 3))]
    assert eval_aggregate("sum", rows) == {(): 5}
    assert max(eval_aggregate("msum", rows)[()]) == 5


def test_sum_takes_best_summand_per_witness_prefix():
    # b is seen with summands 3 and 5: only the larger one counts, the way
    # an increasing cost revises a part's contribution rather than adding
    rows = [((), ("a", 2)), ((), ("b", 3)), ((), ("b", 5))]
    assert eval_aggregate("sum", rows) == {(): 7}


def test_sum_ignores_nonpositive_and_may_vanish():
    assert eval_aggregate("sum", [((), ("a", -2))]) == {}
    assert eval_aggregate("msum", [((), ("a", -2))]) == {(): set()}


def test_extrema_and_type_errors():
    rows = [(("g",), (3,)), (("g",), (9,))]
    assert eval_aggregate("is_min", rows) == {("g",): 3}
    assert eval_aggregate("is_max", rows) == {("g",): 9}
    with pytest.raises(TypeMismatch):
        eval_aggregate("is_min", [(("g",), ("oops",))])
    with pytest.raises(TypeMismatch):
        eval_aggregate("sum", [((), ("a", "oops"))])


# ===== mcount in recursion ===================================================


def test_gated_party_on_clique_only_organizer_attends():
    text = PARTY_GATED + CLIQUE_FACTS
    assert answers(text, "attend") == PARTY_GATED_CLIQUE_ATTEND
    assert answers(text, "fcount") == {("x", 1)}


def test_c2_clique_bootstraps_attendance():
    text = PARTY_UNGATED + CLIQUE_FACTS
    assert answers(text, "attend") == PARTY_UNGATED_CLIQUE_ATTEND
    assert answers(text, "f_attend") == PARTY_UNGATED_CLIQUE_F_ATTEND


def test_c3_exact_least_fixpoint():
    res = run_text(MUTUAL_COUNT)
    for pred, expected in MUTUAL_COUNT_EXPECTED.items():
        assert set(res.answers(pred)) == expected


def test_c3_naive_agrees():
    res = run_text(MUTUAL_COUNT, mode="naive")
    for pred, expected in MUTUAL_COUNT_EXPECTED.items():
        assert set(res.answers(pred)) == expected


# ===== count/sum in recursion ================================================


def test_native_count_cascade_both_modes():
    text = PARTY_COUNT + CASCADE_FACTS
    for mode in ("seminaive", "naive"):
        res = run_text(text, mode=mode)
        assert set(res.answers("attend")) == CASCADE_ATTEND
        assert set(res.answers("fcount")) == CASCADE_FCOUNT


def test_native_count_fcount_reflects_final_count_only():
    # y reaches 3 friends only after x starts attending; no intermediate
    # tally of 2 may leak into fcount
    res = run_text(PARTY_COUNT + CASCADE_FACTS)
    assert set(res.answers("fcount")) == CASCADE_FCOUNT
    assert ("y", 2) not in set(res.answers("fcount"))


def test_part_explosion_both_modes():
    for mode in ("seminaive", "naive"):
        assert answers(PART_EXPLOSION, "finalcost", mode=mode) == PART_EXPLOSION_FINALCOST


def test_part_explosion_oracle_agrees():
    oracle = P.brute_force_oracle(P.parse_program(PART_EXPLOSION))
    assert set(oracle["finalcost"]) == PART_EXPLOSION_FINALCOST


def test_msum_law_end_to_end():
    base = "q(a,2). q(b,3). q(c,4)."
    total = answers(f"r1: t(S) :- q(X,C), sum((),(X,C),S).\n{base}", "t")
    ladder = answers(f"r1: t(S) :- q(X,C), msum((),(X,C),S).\n{base}", "t")
    assert total == {(9,)}
    assert ladder == {(s,) for s in range(1, 10)}
    assert max(s for (s,) in ladder) == 9


def test_user_written_int_up2_rules_are_set_aside():
    # redefining the range predicate is legal; the native generator with the
    # same meaning (int_up2(C,Int) yields Int in 1..C) runs in its place
    text = """
    int_up2(C,1) :- C>0.
    int_up2(C,J1) :- int_up2(C,J), J1=J+1, J1<=C.
    r1: upto(J) :- limit(K), int_up2(K,J).
    limit(4).
    """
    prog = P.parse_program(text)
    assert len(prog.support_rules) == 2
    res = P.run_program(prog)
    assert set(res.answers("upto")) == {(1,), (2,), (3,), (4,)}


def test_unapproved_sum_runs_only_under_trust():
    prog = P.parse_program(PART_EXPLOSION_NOGUARD)
    res, report = P.trust_but_verify_run(prog)
    assert (report.positivity, report.diffs, report.unverified) == ([], {}, "")
    assert set(res.answers("finalcost")) == PART_EXPLOSION_FINALCOST


def test_trust_run_flags_nonpositive_summand():
    prog = P.parse_program(PART_EXPLOSION_NOGUARD + "basic(gizmo,0).\nassb(bike,gizmo,2).")
    res, report = P.trust_but_verify_run(prog)
    assert report.positivity
    assert any("gizmo" in line or "0" in line for line in report.positivity)
    # the monitor's lines are the run's own; its warnings are the plan's alone
    assert report.positivity == res.positivity
    assert res.warnings == plan(prog, trust=True).warnings


def test_execute_keeps_positivity_apart_from_the_plan_warnings():
    prog = P.parse_program(PART_EXPLOSION_NOGUARD + "basic(gizmo,0).\nassb(bike,gizmo,2).")
    planned = plan(prog, trust=True)
    watched = execute(planned, P.EvalOptions(monitor_positivity=True))
    assert watched.positivity == ["rule r2: non-positive summand 0 for key ('bike',)"]
    assert watched.warnings == planned.warnings and len(planned.warnings) == 3
    plain = execute(planned)
    assert plain.positivity == [] and plain.warnings == planned.warnings


# tot(a,7) is released once the loop quiesces; r3 then derives w(a,s,3) and
# w(b,s,-3), summands below their prefix's best: a key's total, and so what
# it releases, cannot change, and the first non-positive summand is
# reported. Frozen when every new (prefix, summand) witness marked its key.
LOWER_SUMMAND = """
r1: tot(K,S) :- w(K,P,V), sum((K),(P,V),S).
r2: w(K,P,V) :- base(K,P,V).
r3: w(K,s,V) :- tot(K,S), V=S-4.
base(a,s,5). base(a,t,2). base(b,s,1).
"""


@pytest.mark.parametrize(
    "command, stats",
    [
        (["--stats"], "iterations=4 derived=7 retained=7 deleted=0"),
        (["--trust-but-verify", "--stats"], "iterations=4 derived=7 retained=7 deleted=0"),
        (["--mode", "naive", "--trust-but-verify", "--stats"], "iterations=4 derived=22 retained=7 deleted=0"),
    ],
)
def test_a_lower_summand_after_the_release_changes_nothing(tmp_path, capsys, command, stats):
    path = tmp_path / "lower.dl"
    path.write_text(LOWER_SUMMAND)
    assert main(["run", str(path), "--query", "tot", *command]) == EXIT_OK
    out, err = capsys.readouterr()
    assert out == "tot(a,7).\ntot(b,1).\n"
    lines = [
        "warning: rule r1: summand V is not provably positive; non-positive contributions are dropped by the expansion",
        *(["audit: rule r1: non-positive summand -3 for key ('b',)"] if "--trust-but-verify" in command else []),
        f"# {stats} wall_ms=",
    ]
    assert re.sub(r"wall_ms=[0-9.]+", "wall_ms=", err) == "\n".join(lines) + "\n"
    assert main(["run", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "w(a,s,3).\nw(a,s,5).\nw(a,t,2).\nw(b,s,-3).\nw(b,s,1).\n"


def test_count_gate_pred_wide_with_plain_rules():
    # cost has one plain rule and one sum rule; both feed the same
    # predicate-wide max working set without conflict
    res = run_text(PART_EXPLOSION)
    assert set(res.answers("cost")) == PART_EXPLOSION_FINALCOST
