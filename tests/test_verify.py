"""Empirical equation checking, brute-force oracle, trust-but-verify audits."""
from __future__ import annotations

import importlib.util
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import premlog as P
from premlog.engine import ConsequenceStep, plan
from premlog.model import INT_MAX, facts_to_interp, tuple_sort_key
from premlog.parser import format_value
from premlog.rewrite import standard_form
from premlog.verify import _sample_space

import conftest
from conftest import (
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


def _corpus():
    """perfbench/corpus.py, the benchmark's program generator, read as a module."""
    name = "premlog_bench_corpus"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look themselves up there
    return sys.modules[name]


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


def test_sample_loop_equals_the_reference_on_the_corpus():
    # The 96 programs of the benchmark corpus at seed 1, every target as
    # `premlog verify` lists it, at seeds 0-4: same samples, verdict and
    # counterexample as the randrange loop that checks both sides.
    checked = falsified = 0
    for text in _corpus().generated_programs(random.Random(1), 96):
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


def test_oracle_matches_engine_on_party_fixtures():
    for text in (PARTY_GATED + CLIQUE_FACTS, PARTY_COUNT + CASCADE_FACTS):
        res = run_text(text)
        oracle = P.brute_force_oracle(P.parse_program(text))
        for pred in ("attend", "fcount"):
            assert set(res.answers(pred)) == set(oracle.get(pred, set()))


# ===== trust-but-verify ======================================================


def test_trust_clean_on_positive_bom():
    res, report = P.trust_but_verify_run(P.parse_program(PART_EXPLOSION_NOGUARD))
    assert report.clean
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
    assert not report.clean
    missing, unexpected = report.diffs["joins"]
    assert list(missing) == [("x",)] and not list(unexpected)


def test_trust_compares_obligation_heads():
    _, report = P.trust_but_verify_run(P.parse_program(PART_EXPLOSION_NOGUARD))
    assert "cost" in report.compared or "finalcost" in report.compared
