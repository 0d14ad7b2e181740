"""Acceptance suite: twelve end-to-end criteria, each with a wall-time budget.

Every test prints exactly one `criterion NN: PASS/FAIL` line (visible with
-s or in captured output) and enforces its budget as part of the assertion.
Expected values come from independent oracles: dijkstra_reference, brute
force least fixpoints, and closed-form aggregate laws.
"""
from __future__ import annotations

import dataclasses
import random
import time

import pytest

import premlog as P
from premlog import bench
from premlog.engine import execute, plan

from conftest import (
    facts_to_interp,
    SPATH_STRATIFIED,
    SPATH_PRECONSTRAINED,
    SPATH_MONOTONIC,
    CAPPED_MAX,
    CAPPED_MAX_FORCED_TOPP,
    CAPPED_MAX_STRATIFIED_TOPP,
    PARTY_UNGATED,
    PARTY_UNGATED_CLIQUE_F_ATTEND,
    MUTUAL_COUNT,
    MUTUAL_COUNT_EXPECTED,
    CASCADE_FACTS,
    CLIQUE_FACTS,
    BOUNDED_PATH,
    SHORTEST_PATH,
    PARTY_GATED,
    PARTY_GATED_CLIQUE_ATTEND,
    PARTY_COUNT,
    PART_EXPLOSION,
    PART_EXPLOSION_FINALCOST,
    random_positive_program,
    run_text,
)


def report(num: int, budget: float, started: float, problems: list) -> None:
    elapsed = time.time() - started
    if elapsed >= budget:
        problems.append(f"took {elapsed:.1f}s, budget {budget:.0f}s")
    tag = "PASS" if not problems else "FAIL"
    print(f"criterion {num:02d}: {tag} ({elapsed:.2f}s)")
    assert not problems, f"criterion {num:02d}: " + "; ".join(map(str, problems))


# ===== 1: shortest-path correctness ==========================================


def test_criterion_01_shortest_paths_match_dijkstra():
    t0, problems = time.time(), []
    for i in range(50):
        n = (40, 80, 120, 160, 200)[i % 5]
        arcs = bench.gen_graph(P.GraphSpec("dag", n, 0.1, (1, 100), seed=i))
        rng = random.Random(i)
        for source in (f"n{k}" for k in rng.sample(range(n), 5)):
            want = bench.dijkstra_reference(arcs, source)
            got, _ = bench.shortest_paths("spath_prem", arcs, source)
            if got != want:
                problems.append(f"graph {i} source {source}: {got} != {want}")
    report(1, 30.0, t0, problems)


# ===== 2: constraining the fixpoint == iterating the constrained map =========


def test_criterion_02_constrained_fixpoint_equals_constrained_lfp():
    t0, problems = time.time(), []
    c = P.make_constraint([P.Extremum("min", "path", (0,), 1)])
    for i in range(20):
        n = (20, 30, 40, 50)[i % 4]
        arcs = bench.gen_graph(P.GraphSpec("dag", n, 0.1, (1, 50), seed=100 + i))
        plain, _ = bench.variant_program("spath", arcs, "n0")
        rec_rules = [r for r in plain.rules if r.head.predicate == "path"]
        lfp, _ = P.naive_fixpoint(rec_rules, facts_to_interp(plain.facts))
        constrained_lfp = P.apply_constraint(c, {"path": lfp.get("path", set())})
        prem, _ = bench.variant_program("spath_prem", arcs, "n0")
        live = P.run_program(prem).db.get("path", set())
        if constrained_lfp["path"] != live:
            problems.append(f"graph {i}: {constrained_lfp['path'] ^ live}")
    report(2, 60.0, t0, problems)


# ===== 3: every tuple of the constrained fixpoint is necessary ===============

MINIMALITY_FIXTURES = [
    (SHORTEST_PATH, [P.Extremum("min", "path", (0,), 1)]),
    (SPATH_STRATIFIED, [P.Extremum("min", "path", (0,), 1)]),
    (
        "r1: path(Y,Dy) :- arc(a,Y,Dy), Dy>=0.\n"
        "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dxy>=0, Dy=Dx+Dxy.\n"
        "r3: llpath(Y,Dy) :- path(Y,Dy), Dy<4.\n"
        "arc(a,b,1). arc(b,c,2). arc(c,d,3).",
        [P.Bound("upper", "path", 1, "<", 4)],
    ),
    (
        "r1: path(Y,Dy) :- arc(a,Y,Dy), Dy>=0.\n"
        "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dxy>=0, Dy=Dx+Dxy.\n"
        "r3: llpath(Y,Dy) :- path(Y,Dy), Dy<=5.\n"
        "arc(a,b,2). arc(b,a,3).",
        [P.Bound("upper", "path", 1, "<=", 5)],
    ),
    (
        "r1: p(Y,D) :- e(s,Y,D).\n"
        "r2: p(Y,D) :- p(X,Dx), e(X,Y,Dxy), D=Dx+Dxy.\n"
        "r3: lp(Y,D) :- p(Y,D), is_max((Y),(D)).\n"
        "e(s,a,1). e(a,b,2). e(s,b,1).",
        [P.Extremum("max", "p", (0,), 1)],
    ),
    (
        "r1: path(Y,Dy) :- arc(a,Y,Dy), Dy>=0.\n"
        "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dxy>=0, Dy=Dx+Dxy, Dy>Dx.\n"
        "r3: best(Y,Dy) :- path(Y,Dy), Dy<6, is_min((Y),(Dy)).\n"
        "arc(a,b,1). arc(b,c,2). arc(a,c,9).",
        [P.Bound("upper", "path", 1, "<", 6), P.Extremum("min", "path", (0,), 1)],
    ),
    (
        "r1: path(Y,D) :- arc(a,Y,D).\n"
        "r2: path(Y,D) :- path(X,Dx), arc(X,Y,Dxy), D=Dx+Dxy, D>Dx.\n"
        "r3: near(Y,D) :- path(Y,D), is_min((Y),(D)).\n"
        "arc(a,b,2). arc(b,c,1). arc(c,a,1).",
        [P.Extremum("min", "path", (0,), 1)],
    ),
    (
        "r1: path(Y,D) :- arc(a,Y,D).\n"
        "r2: path(Y,D) :- path(X,Dx), arc(X,Y,Dxy), D=Dx+Dxy, D>Dx.\n"
        "r3: near(Y,D) :- path(Y,D), is_min((Y),(D)).\n"
        "arc(a,b,1). arc(a,c,4). arc(b,c,2).",
        [P.Extremum("min", "path", (0,), 1)],
    ),
    (
        "r1: hop(Y,D) :- e(x,Y,D).\n"
        "r2: hop(Y,D) :- hop(X,Dx), e(X,Y,W), D=Dx+W, D>Dx.\n"
        "r3: close(Y,D) :- hop(Y,D), is_min((Y),(D)).\n"
        "e(x,y,3). e(y,x,3).",
        [P.Extremum("min", "hop", (0,), 1)],
    ),
    (
        "r1: p(Y,D) :- e(s,Y,D).\n"
        "r2: p(Y,D) :- p(X,Dx), e(X,Y,Dxy), D=Dx+Dxy.\n"
        "r3: lp(Y,D) :- p(Y,D), is_max((Y),(D)).\n"
        "e(s,a,2). e(a,b,1).",
        [P.Extremum("max", "p", (0,), 1)],
    ),
]


def constrained_step(rules, fact_interp, c, interp):
    out = P.apply_ico(rules, interp)
    for pred, tuples in fact_interp.items():
        out.setdefault(pred, set()).update(tuples)
    return P.apply_constraint(c, out)


def test_criterion_03_constrained_fixpoint_is_minimal():
    t0, problems = time.time(), []
    for idx, (text, parts) in enumerate(MINIMALITY_FIXTURES):
        prog = P.parse_program(text)
        planned = plan(prog)
        if any(step.action == "kept" for step in planned.steps):
            problems.append(f"fixture {idx} was not pushed")
            continue
        res = execute(planned)
        c = P.make_constraint(parts)
        fact_interp = facts_to_interp(prog.facts)
        fixpoint = {p: set(ts) for p, ts in res.db.items()}
        total = sum(len(ts) for ts in fixpoint.values())
        if total > 12:
            problems.append(f"fixture {idx} has {total} tuples, want <= 12")
        if constrained_step(res.executed.rules, fact_interp, c, fixpoint) != fixpoint:
            problems.append(f"fixture {idx} is not a fixpoint of the constrained map")
            continue
        for pred, tuples in fixpoint.items():
            for t in list(tuples):
                poked = {q: set(us) for q, us in fixpoint.items()}
                poked[pred].discard(t)
                after = constrained_step(res.executed.rules, fact_interp, c, poked)
                if after == poked:
                    problems.append(f"fixture {idx}: dropping {pred}{t} still fixed")
    report(3, 5.0, t0, problems)


# ===== 4: cycles separate the stratified program from the pushed ones ========


def test_criterion_04_cycles_budget_out_only_the_stratified_variant():
    t0, problems = time.time(), []
    budget = P.EvalOptions(max_tuples=10**6)
    for seed in range(5):
        arcs = bench.gen_graph(P.GraphSpec("cyclic", 50, 0.1, (1, 100), seed=seed))
        want = bench.dijkstra_reference(arcs, "n0")
        try:
            bench.shortest_paths("spath", arcs, "n0", options=budget)
            problems.append(f"graph {seed}: stratified variant terminated")
        except P.BudgetExceeded:
            pass
        for variant in ("spath_prem", "spath_mmin"):
            got, _ = bench.shortest_paths(variant, arcs, "n0", options=budget)
            if got != want:
                problems.append(f"graph {seed} {variant}: {got} != {want}")
    report(4, 60.0, t0, problems)


# ===== 5: derivation count blowup without the push ===========================


def test_criterion_05_push_cuts_derivations_at_least_fivefold():
    t0, problems = time.time(), []
    arcs = bench.gen_graph(P.GraphSpec("dag", 200, 0.1, (1, 100), seed=11))

    def derived(variant):
        _, stats = bench.shortest_paths(variant, arcs, "n0")
        return stats.derived

    plain, prem = derived("spath"), derived("spath_prem")
    if plain < 5 * prem:
        problems.append(f"ratio {plain}/{prem} < 5")
    if (plain, prem) != (derived("spath"), derived("spath_prem")):
        problems.append("derivation counts changed between identical runs")
    report(5, 10.0, t0, problems)


# ===== 6: the unsound max push is rejected, falsified, and demonstrable ======


def test_criterion_06_unsound_push_rejected_and_falsified():
    t0, problems = time.time(), []
    prog = P.parse_program(CAPPED_MAX)
    fc = prog.final_constraints[0]
    verdict = P.classify_premability(prog, fc.constraint)
    if verdict.rejection is None:
        problems.append("analyzer approved the capped max push")
    elif verdict.rejection.rule_id != "r1":
        problems.append(f"rejection names {verdict.rejection.rule_id}, want r1")
    rep = P.check_prem_empirical(prog, fc.constraint, samples=1000, seed=0)
    if rep.holds or rep.counterexample is None:
        problems.append("empirical check found no counterexample in 1000 samples")
    forced = set(run_text(CAPPED_MAX, force_push=True).answers("topp"))
    stratified = set(run_text(CAPPED_MAX).answers("topp"))
    if forced != CAPPED_MAX_FORCED_TOPP:
        problems.append(f"forced push gave {forced}")
    if stratified != CAPPED_MAX_STRATIFIED_TOPP:
        problems.append(f"stratified run gave {stratified}")
    if forced == stratified:
        problems.append("forced and stratified answers agree")
    report(6, 5.0, t0, problems)


# ===== 7: mcount enumerates 1..k =============================================


def test_criterion_07_mcount_is_the_ladder_to_the_cardinality():
    t0, problems = time.time(), []
    rng = random.Random(0)
    for case in range(500):
        k = rng.randint(1, 20)
        witnesses = rng.sample(range(1000), k)
        group = rng.choice("abc")
        facts = "".join(f"w({group},{w}).\n" for w in witnesses)
        got = set(run_text("r1: c(G,N) :- w(G,X), mcount((G),(X),N).\n" + facts).answers("c"))
        if got != {(group, n) for n in range(1, k + 1)}:
            problems.append(f"case {case} (k={k}): {got}")
    report(7, 5.0, t0, problems)


# ===== 8: sum is the max of msum; part explosion matches a rollup oracle =====

BOM_RULES = """
r1: cost(Part,Cost) :- basic(Part,Cost).
r2: cost(Part,Ncost) :- assb(Part,SP,Qty), cost(SP,Cost), CQ=Cost*Qty, CQ>0, sum((Part),(SP,CQ),Ncost).
r3: finalcost(Part,Cost) :- cost(Part,Cost).
"""


def random_bom(seed):
    rng = random.Random(seed)
    parts = [f"p{i}" for i in range(rng.randint(4, 20))]
    basics, assemblies = {}, {}
    for i, part in enumerate(parts):
        # children only among later parts, which keeps the BOM acyclic
        pool = parts[i + 1:]
        if not pool or rng.random() < 0.4:
            basics[part] = rng.randint(1, 50)
        else:
            kids = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            assemblies[part] = [(k, rng.randint(1, 5)) for k in kids]
    return basics, assemblies


def bom_rollup(basics, assemblies):
    memo = dict(basics)

    def cost(part):
        if part not in memo:
            memo[part] = sum(q * cost(k) for k, q in assemblies[part])
        return memo[part]

    for part in assemblies:
        cost(part)
    return {(p, c) for p, c in memo.items()}


def test_criterion_08_sum_msum_laws_and_part_explosion():
    t0, problems = time.time(), []
    rng = random.Random(8)
    for case in range(200):
        items = [(f"w{j}", rng.randint(1, 20)) for j in range(rng.randint(1, 6))]
        facts = "\n".join(f"item({w},{s})." for w, s in items)
        text = (
            "r1: ms(S) :- item(X,C), msum((),(X,C),S).\n"
            "r2: total(S) :- item(X,C), sum((),(X,C),S).\n" + facts
        )
        res = run_text(text)
        ladder = {t[0] for t in res.answers("ms")}
        total = {t[0] for t in res.answers("total")}
        if total != {max(ladder)} or ladder != set(range(1, max(ladder) + 1)):
            problems.append(f"multiset {case}: total {total}, ladder {sorted(ladder)}")
    if set(run_text(PART_EXPLOSION).answers("finalcost")) != PART_EXPLOSION_FINALCOST:
        problems.append("part-explosion fixture diverged from its frozen answer")
    for seed in range(20):
        basics, assemblies = random_bom(seed)
        facts = [f"basic({p},{c})." for p, c in basics.items()]
        facts += [f"assb({p},{k},{q})." for p, kids in assemblies.items() for k, q in kids]
        got = set(run_text(BOM_RULES + "\n".join(facts)).answers("finalcost"))
        want = bom_rollup(basics, assemblies)
        if got != want:
            problems.append(f"bom {seed}: {got ^ want}")
    report(8, 20.0, t0, problems)


# ===== 9: party attendance matches its brute-force least fixpoint ============


def random_party(seed):
    rng = random.Random(seed)
    people = [f"h{i}" for i in range(rng.randint(3, 15))]
    organizers = set(rng.sample(people, rng.randint(1, max(1, len(people) // 4))))
    friends = {
        (x, y)
        for x in people
        for y in people
        if x != y and rng.random() < 0.35
    }
    return organizers, friends


def brute_force_attend(organizers, friends):
    attend = set(organizers)
    while True:
        grown = organizers | {
            x
            for x, _ in friends
            if len({y for a, y in friends if a == x and y in attend}) >= 3
        }
        if grown == attend:
            return attend
        attend = grown


def test_criterion_09_party_threshold_matches_brute_force():
    t0, problems = time.time(), []
    for seed in range(50):
        organizers, friends = random_party(seed)
        facts = [f"organizer({o})." for o in sorted(organizers)]
        facts += [f"friend({x},{y})." for x, y in sorted(friends)]
        got = {t[0] for t in run_text(PARTY_GATED + "\n".join(facts)).answers("attend")}
        want = brute_force_attend(organizers, friends)
        if got != want:
            problems.append(f"party {seed}: {got ^ want}")
    attend = set(run_text(PARTY_GATED + CLIQUE_FACTS).answers("attend"))
    f_attend = set(run_text(PARTY_UNGATED + CLIQUE_FACTS).answers("f_attend"))
    if attend != PARTY_GATED_CLIQUE_ATTEND:
        problems.append(f"threshold-inside-recursion attend: {attend}")
    if f_attend != PARTY_UNGATED_CLIQUE_F_ATTEND:
        problems.append(f"threshold-outside-recursion f_attend: {f_attend}")
    if attend == f_attend:
        problems.append("clique fixture fails to distinguish the two programs")
    report(9, 10.0, t0, problems)


# ===== 10: mutual recursion through mcount ===================================


def test_criterion_10_mutual_recursion_through_counting():
    t0, problems = time.time(), []
    for mode in ("naive", "seminaive"):
        db = run_text(MUTUAL_COUNT, mode=mode).db
        got = {pred: db.get(pred, set()) for pred in MUTUAL_COUNT_EXPECTED}
        if got != MUTUAL_COUNT_EXPECTED:
            problems.append(f"{mode}: {got}")
    report(10, 1.0, t0, problems)


# ===== 11: naive and seminaive reach the same fixpoint =======================

MODE_FIXTURES = [
    BOUNDED_PATH + "arc(a,b,40). arc(b,c,70). arc(c,d,60).",
    SHORTEST_PATH,
    SPATH_STRATIFIED,
    SPATH_PRECONSTRAINED,
    SPATH_MONOTONIC,
    PARTY_GATED + CLIQUE_FACTS,
    PARTY_UNGATED + CLIQUE_FACTS,
    PARTY_COUNT + CASCADE_FACTS,
    PART_EXPLOSION,
    CAPPED_MAX,
    MUTUAL_COUNT,
]


def test_criterion_11_evaluation_modes_agree():
    t0, problems = time.time(), []
    texts = MODE_FIXTURES + [random_positive_program(seed) for seed in range(100)]
    for idx, text in enumerate(texts):
        naive = run_text(text, mode="naive").db
        seminaive = run_text(text, mode="seminaive").db
        if naive != seminaive:
            problems.append(f"program {idx} diverges between modes")
    report(11, 60.0, t0, problems)


# ===== 12: sampling finds no counterexample on approved fixtures =============


def approved_fixtures():
    fixtures = []
    for name, text in [
        ("min-push", SHORTEST_PATH),
        ("upper-push", BOUNDED_PATH + "arc(a,b,40). arc(b,c,70). arc(c,d,60)."),
        (
            "upper-min-push",
            BOUNDED_PATH.replace(
                "r3: llpath(Y,Dy) :- path(Y,Dy), Dy<143.",
                "r3: llpath(Y,Dy) :- path(Y,Dy), Dy<143, is_min((Y),(Dy)).",
            )
            + "arc(a,b,40). arc(b,c,70). arc(c,d,60).",
        ),
        ("flat-min-annotation", SPATH_STRATIFIED),
    ]:
        prog = P.parse_program(text)
        fixtures.append((name, prog, prog.final_constraints[0].constraint, None))

    head_annotated = P.parse_program(SPATH_PRECONSTRAINED)
    constraint = P.constraint_from_annotations(head_annotated)
    base = dataclasses.replace(
        head_annotated,
        rules=tuple(dataclasses.replace(r, extremum=None) for r in head_annotated.rules),
    )
    fixtures.append(("head-annotation", base, constraint, None))

    party = P.parse_program(PARTY_GATED + CLIQUE_FACTS)
    fc = party.final_constraints[0].constraint
    verdict = P.classify_premability(party, fc)
    assert verdict.rejection is None and verdict.composed is not None
    fixtures.append(("composed-max-over-count", verdict.program, fc, verdict.procedure))

    bom = P.parse_program(PART_EXPLOSION)
    _, obligations = P.compile_count_in_recursion(bom)
    for ob in obligations:
        assert ob.approved
        v = ob.verdict
        fixtures.append((f"sum-shadow-{ob.rule_id}", v.program, v.constraint, v.procedure))
    return fixtures


def test_criterion_12_sampling_confirms_every_approval():
    t0, problems = time.time(), []
    for name, prog, constraint, procedure in approved_fixtures():
        rep = P.check_prem_empirical(
            prog, constraint, samples=1000, seed=7, procedure=procedure
        )
        if not rep.holds:
            problems.append(f"{name}: counterexample {rep.counterexample}")
    report(12, 30.0, t0, problems)
