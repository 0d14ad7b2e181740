"""Empirical equation checking, brute-force oracle, trust-but-verify audits."""
from __future__ import annotations

import os
import random
import resource
import subprocess
import sys

import pytest

import premlog as P
import premlog.verify as verify_module
from premlog.cli import main
from premlog.engine import ConsequenceStep, plan
from premlog.model import INT_MAX, tuple_sort_key
from premlog.parser import format_value
from premlog.rewrite import desugar_extremum, standard_form
from premlog.verify import _sample_space

import conftest
from conftest import (
    bench_corpus,
    facts_to_interp,
    SPATH_STRATIFIED,
    CAPPED_MAX,
    MUTUAL_COUNT,
    MUTUAL_COUNT_EXPECTED,
    CASCADE_FACTS,
    CLIQUE_FACTS,
    SHORTEST_PATH,
    SHORTEST_PATH_SPATH,
    PARTY_GATED,
    PARTY_COUNT,
    PART_EXPLOSION,
    PART_EXPLOSION_FINALCOST,
    PART_EXPLOSION_NOGUARD,
    check_prem_empirical_by_draw,
    run_text,
)


# ===== empirical equation checks =============================================


def _first_constraint(text):
    prog = P.parse_program(text)
    return prog, prog.final_constraints[0].constraint


def test_min_push_passes_sampling():
    prog, c = _first_constraint(SHORTEST_PATH)
    report = P.check_prem_empirical(prog, c, samples=300, seed=7)
    assert report.holds and report.verdict == "passed"
    assert report.samples == 300


def test_c1_falsified_quickly():
    prog, c = _first_constraint(CAPPED_MAX)
    report = P.check_prem_empirical(prog, c, samples=1000, seed=0)
    assert not report.holds and report.verdict == "falsified"
    assert report.samples < 1000  # stops at the first confirmed witness
    interp, lhs, rhs = report.counterexample
    assert lhs != rhs


def test_counterexample_is_reproducible():
    prog, c = _first_constraint(CAPPED_MAX)
    a = P.check_prem_empirical(prog, c, samples=1000, seed=3)
    b = P.check_prem_empirical(prog, c, samples=1000, seed=3)
    assert a.samples == b.samples
    assert a.counterexample == b.counterexample


def test_verify_samples_the_recursion_when_classification_finds_no_cost(tmp_path, capsys):
    # r5 makes a second rule through attend, so cntfriends cannot be composed
    # and classification raises NoCost: the check samples the recursion's rules.
    text = PARTY_GATED + "r5: attend(X) :- cntfriends(X,N), N>=5.\n" + CLIQUE_FACTS
    prog, c = _first_constraint(text)
    with pytest.raises(P.NoCost, match="^recursion through attend cannot be composed into cntfriends$"):
        P.classify_premability(prog, c)
    rules, sampled, _ = _sample_space(prog, c, None)
    assert [r.id for r in rules] == ["r1", "r2", "r3", "r5"]
    assert sampled == ["attend", "cntfriends"]
    path = tmp_path / "party.dl"
    path.write_text(text)
    assert main(["verify", str(path), "--samples", "50"]) == 0
    assert capsys.readouterr().out == (
        "PASSED: max(cntfriends: group [0], cost 1): no counterexample in 50 samples\n"
    )


def test_verify_of_a_constraint_on_a_predicate_no_rule_defines_is_an_error(tmp_path, capsys):
    # q's constraint reads e, which only facts hold: nothing could be sampled.
    text = "r1: q(X,C) :- e(X,C), C<5.\ne(a,3). e(b,9).\n"
    prog, c = _first_constraint(text)
    message = "no rule defines e, so no sample can test its constraint"
    with pytest.raises(P.NoCost, match=f"^{message}$"):
        P.check_prem_empirical(prog, c)
    path = tmp_path / "edb.dl"
    path.write_text(text)
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_explicit_procedure_override():
    prog, c = _first_constraint(SPATH_STRATIFIED)
    report = P.check_prem_empirical(
        prog, c, samples=200, seed=1, procedure=prog.rules_defining("path")
    )
    assert report.holds


# What check_prem_empirical(samples=500) returned at seeds 0, 1 and 7 for
# every fixture with a final constraint or a count/sum obligation, each target
# taken as `premlog verify` takes it: (samples, verdict, counterexample as
# the I, constrained-after and constrained-before rows). A seed reproduces
# the RNG draws, the skipped samples and the counterexample, so no change to
# how a check is evaluated may move them.
FALSIFIER_TABLE = {
    ("BOUNDED_PATH", "upper(path: arg 1 < 143)"): {0: None, 1: None, 7: None},
    ("CAPPED_MAX", "max(p: group [], cost 0)"): {
        0: (4, ("p(-1) p(1) p(2) p(3) p(5) p(6) p(7) p(9) p(10) p(11)", "p(12)", "p(11)")),
        1: (4, ("p(0) p(2) p(4) p(5)", "p(6)", "p(5)")),
        7: (2, ("p(2) p(4) p(5)", "p(6)", "p(5)")),
    },
    ("PARTY_COUNT", "max(cntfriends: group [0], cost 1)"): {0: None, 1: None, 7: None},
    ("PARTY_GATED", "max(cntfriends: group [0], cost 1)"): {0: None, 1: None, 7: None},
    ("PARTY_UNGATED", "lower(cntfriends: arg 1 >= 3)"): {0: None, 1: None, 7: None},
    ("PART_EXPLOSION", "max(cost: group [0], cost 1)"): {0: None, 1: None, 7: None},
    ("PART_EXPLOSION_NOGUARD", "max(cost: group [0], cost 1)"): {0: None, 1: None, 7: None},
    ("SHARED_RECURSION", "min(path: group [0], cost 1)"): {0: None, 1: None, 7: None},
    ("SHARED_RECURSION", "upper(path: arg 1 < 10)"): {0: None, 1: None, 7: None},
    ("SHORTEST_PATH", "min(path: group [0], cost 1)"): {0: None, 1: None, 7: None},
    ("SPATH_MONOTONIC", "min(path: group [0], cost 1)"): {0: None, 1: None, 7: None},
    ("SPATH_PRECONSTRAINED_BOUNDED", "upper(path: arg 1 < 4)"): {0: None, 1: None, 7: None},
    ("SPATH_STRATIFIED", "min(path: group [0], cost 1)"): {0: None, 1: None, 7: None},
}
_WITH_FACTS = {
    "PARTY_GATED": CLIQUE_FACTS,
    "PARTY_UNGATED": CLIQUE_FACTS,
    "PARTY_COUNT": CASCADE_FACTS,
}


def _verify_targets(text):
    """(program, constraint, procedure) per target, as `premlog verify` lists them."""
    planned = plan(P.parse_program(text), push=False)
    compiled = planned.executed
    targets = [(compiled, fc.constraint, None) for fc in compiled.final_constraints]
    for ob in planned.obligations:
        if ob.verdict is not None:
            targets.append((ob.verdict.program, ob.verdict.constraint, ob.verdict.procedure))
    return targets


def _rows(rel):
    return " ".join(
        f"{p}({','.join(format_value(v) for v in t)})"
        for p in sorted(rel)
        for t in sorted(rel[p], key=tuple_sort_key)
    )


def test_falsifier_table_covers_every_fixture_with_a_target():
    covered = set()
    for name in dir(conftest):
        text = getattr(conftest, name)
        if name.isupper() and isinstance(text, str):
            for _, c, _ in _verify_targets(text + _WITH_FACTS.get(name, "")):
                covered.add((name, repr(c)))
    assert covered == set(FALSIFIER_TABLE)


@pytest.mark.parametrize("fixture, constraint", sorted(FALSIFIER_TABLE))
def test_falsifier_outcomes_are_frozen(fixture, constraint):
    text = getattr(conftest, fixture) + _WITH_FACTS.get(fixture, "")
    [(prog, c, procedure)] = [t for t in _verify_targets(text) if repr(t[1]) == constraint]
    for seed, expected in FALSIFIER_TABLE[(fixture, constraint)].items():
        report = P.check_prem_empirical(prog, c, samples=500, seed=seed, procedure=procedure)
        if expected is None:
            assert (report.samples, report.verdict, report.counterexample) == (500, "passed", None)
        else:
            got = tuple(_rows(rel) for rel in report.counterexample)
            assert (report.samples, report.verdict, got) == (expected[0], "falsified", expected[1])


def _report(check, target, samples, seed):
    program, c, procedure = target
    try:
        return check(program, c, samples=samples, seed=seed, procedure=procedure)
    except P.PremlogError as exc:  # a budget stop ends both checks alike
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("fixture, constraint", sorted(FALSIFIER_TABLE))
def test_sample_loop_equals_the_reference_on_every_fixture(fixture, constraint):
    text = getattr(conftest, fixture) + _WITH_FACTS.get(fixture, "")
    [target] = [t for t in _verify_targets(text) if repr(t[1]) == constraint]
    for seed in range(5):
        want = _report(check_prem_empirical_by_draw, target, 500, seed)
        assert _report(P.check_prem_empirical, target, 500, seed) == want


def test_sample_loop_equals_the_reference_on_thebench_corpus():
    # The 96 programs of the benchmark corpus at seed 1, every target as
    # `premlog verify` lists it, at seeds 0-4: same samples, verdict and
    # counterexample as the randrange loop that checks both sides.
    checked = falsified = 0
    for text in bench_corpus().generated_programs(random.Random(1), 96):
        for target in _verify_targets(text):
            for seed in range(5):
                want = _report(check_prem_empirical_by_draw, target, 60, seed)
                assert _report(P.check_prem_empirical, target, 60, seed) == want, (text, seed)
                checked += 1
                falsified += getattr(want, "verdict", "") == "falsified"
    assert checked > 300 and falsified > 0


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_draws_are_randrange_on_this_interpreter(seed):
    # check_prem_empirical inlines each draw as getrandbits(n.bit_length()),
    # redrawn while it is n or more; randrange(n) and randint(0, 12) must
    # draw exactly that, or every seed would find other counterexamples.
    def inlined(getrandbits, n):
        bits = n.bit_length()
        r = getrandbits(bits)
        while r >= n:
            r = getrandbits(bits)
        return r

    ns = [n for n in range(1, 65) for _ in range(20)]
    ref = random.Random(seed)
    want = [ref.randrange(n) for n in ns] + [ref.randint(0, 12) for _ in range(200)]
    getrandbits = random.Random(seed).getrandbits
    got = [inlined(getrandbits, n) for n in ns] + [inlined(getrandbits, 13) for _ in range(200)]
    assert got == want


# Every consequence step totals w's group a past INT_MAX, so the falsifier
# skips every sample as an Overflow and passes with the full count.
SUM_OVERFLOW = """
r1: t(G,S) :- w(G,K,V), sum((G),(K,V),S).
r2: best(G,S) :- t(G,S), is_max((G),(S)).
w(a,1,9223372036854775807). w(a,2,1).
"""


def test_falsifier_skips_a_sample_whose_sum_overflows():
    program, c = _first_constraint(SUM_OVERFLOW)
    with pytest.raises(P.Overflow, match="^integer 9223372036854775808 outside signed 64-bit range$"):
        P.apply_ico(program.rules_defining("t"), facts_to_interp(program.facts))
    report = P.check_prem_empirical(program, c, samples=200, seed=0)
    assert report == check_prem_empirical_by_draw(program, c, samples=200, seed=0)
    assert report == P.PremCheckReport(200, "passed", None)


# Arcs with integer, symbolic and near-INT_MAX weights, and a sum over a
# sampled relation w: with the explicit procedure the cost pool holds x and
# the huge weight, so some samples are vacuous, some raise TypeMismatch in
# gamma(I) or in a step ('+' on x), some overflow ('+' or the sum), and the
# rest are checked; the check passes.
MIXED_WEIGHTS = """
start(a). seedw(a,1,9223372036854775800). seedw(b,2,5).
arc(a,b,1). arc(b,c,2). arc(c,a,4). arc(b,d,x). arc(c,e,9223372036854775800). arc(e,a,1).
r1: path(Y,D) :- start(X), arc(X,Y,D).
r2: path(Y,D) :- path(X,Dx), arc(X,Y,Dxy), D=Dx+Dxy.
r3: w(Y,K,V) :- seedw(Y,K,V).
r4: tot(Y,S) :- w(Y,K,V), sum((Y),(K,V),S).
r5: sp(Y,D) :- path(Y,D), is_min((Y),(D)).
"""


@pytest.mark.parametrize("samples", [1, 63, 64, 65, 129, 500])
def test_batches_where_some_samples_raise_equal_the_reference(samples):
    prog, c = _first_constraint(MIXED_WEIGHTS)
    procedure = [r for r in prog.rules if r.head.predicate in ("path", "w", "tot")]
    for seed in range(10):
        report = P.check_prem_empirical(prog, c, samples=samples, seed=seed, procedure=procedure)
        assert report == check_prem_empirical_by_draw(
            prog, c, samples=samples, seed=seed, procedure=procedure
        ), seed
        assert report == P.PremCheckReport(samples, "passed", None)


# r3 puts x, 4 and 11 in p's pool: gamma(I), a max, raises on a sample that
# draws p(x), and a sample that draws p(4) but not p(11) refutes.
SYMBOL_IN_THE_COST = CAPPED_MAX + "r3: odd(1) :- p(x), p(4), p(11).\n"


def test_a_sample_whose_gamma_raises_is_skipped_alone():
    prog, c = _first_constraint(SYMBOL_IN_THE_COST)
    rules = prog.rules_defining("p")
    verdicts = set()
    for seed in range(10):
        want = check_prem_empirical_by_draw(prog, c, samples=64, seed=seed, procedure=rules)
        assert P.check_prem_empirical(prog, c, samples=64, seed=seed, procedure=rules) == want
        verdicts.add(want.verdict)
    assert verdicts == {"passed", "falsified"}


def test_samples_of_a_batch_whose_step_raised_reuse_its_gamma(monkeypatch):
    # On the corpus's symbolic path most samples that gamma changes raise in
    # their step (a cost of x, y or z is added), so every batch's step raises,
    # and no gamma(I) does: each batch's gamma(I) runs once, and its samples
    # are checked again alone from their rows of it. gamma(T(...)) runs on a
    # step's result, which holds the batch relation.
    [target] = _verify_targets(bench_corpus().SYMBOLIC_PATH)
    gammas_of_samples = []

    def gamma(constraint, interp):
        gammas_of_samples.append(verify_module._BATCH_PRED not in interp)
        return P.apply_constraint(constraint, interp)

    for seed in range(3):
        want = _report(check_prem_empirical_by_draw, target, 1000, seed)
        gammas_of_samples.clear()
        with monkeypatch.context() as patched:
            patched.setattr(verify_module, "apply_constraint", gamma)
            assert _report(P.check_prem_empirical, target, 1000, seed) == want
        assert gammas_of_samples.count(True) == 16  # ceil(1000 / 64) batches


# gamma keeps no p tuple of any sample, so each counterexample's
# constrained-before side holds p as an empty relation.
BOUND_EMPTIES_P = """
r1: p(J1) :- p(J), J > 2, J1 = J - 20.
r2: low(J) :- p(J), J < -2.
"""


def test_a_counterexample_keeps_the_relation_gamma_empties():
    prog, c = _first_constraint(BOUND_EMPTIES_P)
    for seed in range(5):
        report = P.check_prem_empirical(prog, c, samples=64, seed=seed)
        assert report == check_prem_empirical_by_draw(prog, c, samples=64, seed=seed)
        assert report.counterexample[2] == {"p": set()}


# r1 reads fixed facts only, and r3 reads the sampled path only under not:
# in a batch both read the batch's tags instead of a sampled relation.
NEGATED_READ = """
node(a). node(b). node(c). arc(a,b,1). arc(b,c,2). arc(a,c,5).
r1: path(Y,D) :- arc(a,Y,D).
r2: path(Y,D) :- path(X,Dx), arc(X,Y,Dxy), D=Dx+Dxy.
r3: cut(Y) :- node(Y), not path(Y,3).
r4: sp(Y,D) :- path(Y,D), is_min((Y),(D)).
"""


def test_rules_without_a_positive_sampled_read_equal_the_reference():
    prog, c = _first_constraint(NEGATED_READ)
    path = prog.rules_defining("path")
    for procedure in (path, path + prog.rules_defining("cut")):
        for seed in range(10):
            want = check_prem_empirical_by_draw(prog, c, 300, seed, procedure=procedure)
            assert P.check_prem_empirical(prog, c, 300, seed, procedure=procedure) == want


# Every step reads lim(20000000) and enumerates past the step's budget.
RANGE_PAST_BUDGET = """
r1: upto(J) :- lim(K), int_up2(K,J).
r2: best(J) :- upto(J), is_max((),(J)).
lim(20000000).
"""


def test_a_budget_stop_ends_a_check_as_in_the_reference():
    [target] = _verify_targets(RANGE_PAST_BUDGET)
    for seed in range(5):
        want = _report(check_prem_empirical_by_draw, target, 200, seed)
        assert want == ("BudgetExceeded", "range 1..20000000 exceeds the tuple budget")
        assert _report(P.check_prem_empirical, target, 200, seed) == want


# Every value of p's pool is below 100, so the bound leaves every sample as
# it is; a step would read lim(20000000) and stop on the budget.
VACUOUS_PAST_BUDGET = """
r1: p(J) :- lim(K), int_up2(K,J).
r2: small(J) :- p(J), J < 100.
lim(20000000).
"""


def test_a_vacuous_sample_takes_no_step():
    # The one outcome that differs from the reference, which steps T(I) on
    # every sample and so stops on the budget at the first one.
    [target] = _verify_targets(VACUOUS_PAST_BUDGET)
    assert _report(check_prem_empirical_by_draw, target, 200, 0)[0] == "BudgetExceeded"
    assert _report(P.check_prem_empirical, target, 200, 0) == P.PremCheckReport(
        200, "passed", None
    )


# CAPPED_MAX with a rule that enumerates 1..K for a sampled p(K) over 100:
# a sample that draws p(20000000) (r4 puts it in the pool) stops on the budget.
BUDGET_AFTER_COUNTEREXAMPLE = CAPPED_MAX + """
r3: p(J) :- p(K), K>100, int_up2(K,J).
r4: huge(1) :- p(20000000).
"""


@pytest.mark.parametrize("seed", [8, 9, 12])
def test_a_counterexample_before_a_budget_stop_in_its_batch_wins(seed):
    prog, c = _first_constraint(BUDGET_AFTER_COUNTEREXAMPLE)
    rules = prog.rules_defining("p")
    want = check_prem_empirical_by_draw(prog, c, samples=64, seed=seed, procedure=rules)
    assert want.verdict == "falsified"
    # The same draws, checked through the enumerating rule alone, pass the
    # first want.samples samples and stop on the budget later in the batch.
    [enumerate_rule] = [r for r in rules if r.id == "r3"]
    check_prem_empirical_by_draw(prog, c, want.samples, seed, procedure=[enumerate_rule])
    with pytest.raises(P.BudgetExceeded):
        check_prem_empirical_by_draw(prog, c, 64, seed, procedure=[enumerate_rule])
    assert P.check_prem_empirical(prog, c, samples=64, seed=seed, procedure=rules) == want


# A seat that costs INT_MAX. A sampled bike with another part of positive
# cost overflows (a skipped sample); with the seat alone it totals INT_MAX:
# no Overflow, and an msum ladder of INT_MAX rungs.
HUGE_SEAT = PART_EXPLOSION.replace("basic(seat,5)", f"basic(seat,{INT_MAX})")

HUGE_SEAT_CHECKS = """
import sys
import premlog as P
from premlog.engine import plan
[ob] = plan(P.parse_program(sys.stdin.read()), push=False).obligations
for seed in (0, 1, 2):
    report = P.check_prem_empirical(
        ob.verdict.program, ob.verdict.constraint, samples=1000, seed=seed,
        procedure=ob.verdict.procedure,
    )
    print(report.samples, report.verdict)
"""


def _address_space_1_5_gb():
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


def test_a_huge_sum_under_max_is_checked_without_its_ladder():
    # In a child process with 1.5 GB of address space, so that a ladder
    # released in full ends in its MemoryError instead of the suite's.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-c", HUGE_SEAT_CHECKS],
        input=HUGE_SEAT,
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_address_space_1_5_gb,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "1000 passed\n" * 3


def test_a_falsifier_step_derives_one_total_per_key_under_max():
    program = P.parse_program(HUGE_SEAT)
    [ob] = plan(program, push=False).obligations
    rules, sampled, _ = _sample_space(
        ob.verdict.program, ob.verdict.constraint, ob.verdict.procedure
    )
    assert sampled == ["cost"]
    fixed = {p: rel for p, rel in facts_to_interp(program.facts).items() if p != "cost"}
    step = ConsequenceStep(standard_form(rules, ob.verdict.constraint), fixed)
    got = step({"cost": {("wheel", 10), ("frame", 50), ("seat", 10**5)}})["cost"]
    assert got == {
        ("wheel", 10), ("frame", 50), ("seat", 10**5), ("seat", INT_MAX),
        ("bike", 2 * 10 + 50 + 10**5), ("cart", 4 * 10 + 50),
    }


# An msum ladder under a Bound: the falsifier's step releases it rung by
# rung, so a ladder longer than the tuple budget has to stop on the budget.
BOUNDED_LADDER = (
    PART_EXPLOSION.replace("basic(seat,5)", "basic(seat,1099511627776)")
    .replace(" sum((Part)", " msum((Part)")
    .replace("finalcost(Part,Cost) :- cost(Part,Cost).", "cheap(Part,Cost) :- cost(Part,Cost), Cost<100.")
)


def test_verify_stops_on_a_ladder_longer_than_the_tuple_budget(tmp_path):
    # In a child process with 1.5 GB of address space: the ladder released
    # in full ends in a MemoryError, exit 1, after several seconds.
    path = tmp_path / "ladder.dl"
    path.write_text(BOUNDED_LADDER)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    done = subprocess.run(
        [sys.executable, "-m", "premlog.cli", "verify", str(path)],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=_address_space_1_5_gb,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "budget exceeded: tuple budget of 10000000 exhausted\n"


def test_a_step_without_stats_stops_on_a_release_longer_than_its_budget():
    program = P.parse_program(BOUNDED_LADDER)
    fixed = {p: rel for p, rel in facts_to_interp(program.facts).items() if p != "cost"}
    step = ConsequenceStep(program.rules_defining("cost"), fixed, max_tuples=100)
    # bike totals 2*10+50+30 = 100: a ladder of 100 rungs, the budget's length.
    got = step({"cost": {("wheel", 10), ("frame", 50), ("seat", 30)}})["cost"]
    assert {c for part, c in got if part == "bike"} == set(range(1, 101))
    with pytest.raises(P.BudgetExceeded, match="^tuple budget of 100 exhausted$") as stop:
        step({"cost": {("seat", 101)}})
    assert (stop.value.stats, stop.value.partial) == (None, None)


# p is sampled and has fixed facts, and step is a fixed relation the samples
# never touch, so a check shares both with the consequence step it compiles.
CAPPED_STEP = """
p(2). p(5). step(2).
r1: p(J1) :- p(J), step(S), J<=10, J!=5, J1=J+S.
r2: topp(J1) :- p(J1), is_max((),(J1)).
"""


def test_checks_share_no_state_through_the_fixed_relations():
    prog, c = _first_constraint(CAPPED_STEP)
    rules = prog.rules_defining("p")
    edb = facts_to_interp(prog.facts)
    first = P.check_prem_empirical(prog, c, samples=500, seed=0, procedure=rules)
    second = P.check_prem_empirical(prog, c, samples=500, seed=0, procedure=rules)
    assert first == second and first.verdict == "falsified"
    assert facts_to_interp(prog.facts) == edb
    interp, lhs, rhs = first.counterexample
    # each sample starts from the facts and adds at most 12 tuples
    assert edb["p"] <= interp["p"] and len(interp["p"] - edb["p"]) <= 12
    for rel in (interp, lhs, rhs):
        assert rel["step"] == {(2,)}
    assert lhs == P.apply_constraint(c, P.apply_ico(rules, interp))
    assert rhs == P.apply_constraint(c, P.apply_ico(rules, P.apply_constraint(c, interp)))


def test_apply_ico_leaves_its_input_alone():
    prog = P.parse_program(CAPPED_STEP)
    interp = facts_to_interp(prog.facts)
    out = P.apply_ico(prog.rules, interp)
    assert interp == facts_to_interp(prog.facts)
    assert out["p"] == {(2,), (4,), (5,)} and out["step"] == {(2,)}
    again = P.apply_ico(prog.rules, out)
    assert out["p"] == {(2,), (4,), (5,)} and again["p"] == {(2,), (4,), (5,), (6,)}


# ===== brute-force oracle ====================================================


def test_oracle_shortest_path():
    oracle = P.brute_force_oracle(P.parse_program(SHORTEST_PATH))
    assert set(oracle["spath"]) == SHORTEST_PATH_SPATH


def test_oracle_projects_count_predicates_at_stratum_end():
    # later strata must read final totals, never the intermediate tallies
    oracle = P.brute_force_oracle(P.parse_program(PART_EXPLOSION))
    assert set(oracle["finalcost"]) == PART_EXPLOSION_FINALCOST
    assert set(oracle["cost"]) == PART_EXPLOSION_FINALCOST


def test_oracle_keeps_monotonic_ladders():
    oracle = P.brute_force_oracle(P.parse_program(MUTUAL_COUNT))
    for pred, expected in MUTUAL_COUNT_EXPECTED.items():
        assert set(oracle[pred]) == expected


def test_oracle_drops_desugaring_helpers():
    oracle = P.brute_force_oracle(P.parse_program(SHORTEST_PATH))
    assert not [p for p in oracle if p.startswith(("lesser_", "greater_"))]


def test_oracle_renames_past_a_variable_that_already_ends_in_1():
    # D1 is taken, so the witness copy of D is D11 (and of Y, Y11).
    text = (
        "r1: p(Y,D,D1) :- e(Y,D), D1=D+1.\n"
        "r2: s(Y,D) :- p(Y,D,D1), is_min((Y),(D)).\n"
        "e(a,3). e(a,1). e(b,2).\n"
    )
    program = P.parse_program(text)
    aux = P.format_rule(desugar_extremum(program.rules[1])[1])
    assert aux == "lesser_r2: lesser_r2(Y,D) :- p(Y,D,D1), p(Y,D11,D111), D11<D."
    oracle = P.brute_force_oracle(program)
    assert sorted(oracle["s"]) == P.run_program(program).answers("s") == [("a", 1), ("b", 2)]


def test_oracle_keeps_one_tuple_budget_across_its_strata():
    chain = "r1: p(X) :- e(X). r2: q(X) :- p(X). r3: s(X) :- q(X). e(a). e(b). e(c)."
    with pytest.raises(P.BudgetExceeded, match="^tuple budget of 10 exhausted$"):
        P.brute_force_oracle(P.parse_program(chain), P.EvalOptions(mode="naive", max_tuples=10))
    # Each stratum alone stays within the budget: 6 sweep outputs per stratum, 18 in all.
    oracle = P.brute_force_oracle(P.parse_program(chain), P.EvalOptions(mode="naive", max_tuples=18))
    assert oracle["s"] == {("a",), ("b",), ("c",)}


def test_oracle_matches_engine_on_party_fixtures():
    for text in (PARTY_GATED + CLIQUE_FACTS, PARTY_COUNT + CASCADE_FACTS):
        res = run_text(text)
        oracle = P.brute_force_oracle(P.parse_program(text))
        for pred in ("attend", "fcount"):
            assert set(res.answers(pred)) == set(oracle.get(pred, set()))


# ===== trust-but-verify ======================================================


def test_trust_clean_on_positive_bom():
    res, report = P.trust_but_verify_run(P.parse_program(PART_EXPLOSION_NOGUARD))
    assert (report.positivity, report.diffs, report.unverified) == ([], {}, "")
    assert not report.positivity
    assert set(res.answers("finalcost")) == PART_EXPLOSION_FINALCOST


def test_trust_flags_divergent_count_gate():
    # the count feeds an anti-monotonic gate: the native run reads the final
    # total (3), the monotonic oracle lets x in while the tally passes 2
    bad = """
    r1: attend(X) :- organizer(X).
    r2: attend(X) :- cntfriends(X,N), N<=2.
    r3: cntfriends(Y,N) :- attend(X), friend(Y,X), count((Y),(X),N).
    r4: joins(Y) :- attend(Y).
    organizer(o). organizer(p1). organizer(p2).
    friend(x,o). friend(x,p1). friend(x,p2).
    """
    prog = P.parse_program(bad)
    _, obligations = P.compile_count_in_recursion(prog)
    assert not obligations[0].approved
    res, report = P.trust_but_verify_run(prog)
    assert report.positivity or report.diffs or report.unverified
    missing, unexpected = report.diffs["joins"]
    assert list(missing) == [("x",)] and not list(unexpected)


def test_trust_compares_obligation_heads(monkeypatch):
    # An oracle that answers nothing differs on every relation the audit compares.
    monkeypatch.setattr(verify_module, "brute_force_oracle", lambda program, options: {})
    _, report = P.trust_but_verify_run(P.parse_program(PART_EXPLOSION_NOGUARD))
    assert {"cost", "finalcost"} <= report.diffs.keys()
