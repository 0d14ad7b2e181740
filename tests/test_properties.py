"""Property tests for the algebraic laws the evaluator depends on."""
from __future__ import annotations

import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premlog as P
from premlog import analysis
from premlog.engine import (
    EvalStats,
    _admit_code,
    _Context,
    apply_constraint,
    apply_ico,
    naive_fixpoint,
    plan,
    seminaive_fixpoint,
)
from premlog.errors import Overflow, SafetyError, TypeMismatch
from premlog.model import (
    AggregateGoal,
    Atom,
    Bound,
    Extremum,
    HeadExtremum,
    Rule,
    Variable,
    keep_extremal,
    make_constraint,
)
from premlog.rewrite import standard_form
from premlog.verify import _sample_space

from conftest import (
    facts_to_interp,
    CLIQUE_FACTS,
    PART_EXPLOSION,
    PARTY_GATED,
    eval_aggregate,
    keep_extremal_by_tuple,
    random_positive_program,
    run_text,
)

KEYS = st.sampled_from(["a", "b", "c", "d"])
COSTS = st.integers(min_value=-20, max_value=50)


def union_interp(i1, i2):
    out = {p: set(ts) for p, ts in i1.items()}
    for p, ts in i2.items():
        out.setdefault(p, set()).update(ts)
    return out


# ===== AGGREGATE LADDERS ======================================================


@given(st.sets(st.integers(min_value=0, max_value=1000), min_size=0, max_size=20))
def test_mcount_is_the_full_ladder(witnesses):
    rows = [((), (w,)) for w in witnesses]
    got = eval_aggregate("mcount", rows)
    if not witnesses:
        assert got == {}
    else:
        assert got == {(): set(range(1, len(witnesses) + 1))}


@given(
    st.dictionaries(
        st.tuples(KEYS),
        st.sets(st.integers(min_value=0, max_value=100), min_size=1, max_size=8),
        min_size=1,
        max_size=4,
    )
)
def test_count_is_max_of_mcount(groups):
    rows = [(g, (w,)) for g, ws in groups.items() for w in ws]
    ladder = eval_aggregate("mcount", rows)
    total = eval_aggregate("count", rows)
    assert total == {g: max(steps) for g, steps in ladder.items()}
    assert total == {g: len(ws) for g, ws in groups.items()}


@given(
    st.dictionaries(
        KEYS,
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_sum_is_max_of_msum_on_positive_rows(per_witness):
    # several rows may share a witness prefix; only the best summand counts
    rows = [((), (w, s)) for w, ss in per_witness.items() for s in ss]
    expected = sum(max(ss) for ss in per_witness.values())
    assert eval_aggregate("sum", rows) == {(): expected}
    ladder = eval_aggregate("msum", rows)
    assert ladder == {(): set(range(1, expected + 1))}
    assert max(ladder[()]) == expected


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["count", "sum", "mcount", "msum"]),
    st.sets(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.sampled_from(["x", "y", "z"]),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=-3, max_value=6),
        ),
        min_size=1,
        max_size=16,
    ),
)
def test_counting_rule_agrees_in_every_path(kind, rows):
    # Rows that differ only in Y repeat a witness (X,C); rows that share X
    # with different C share a witness prefix; C may be zero or negative.
    facts = "".join(f"q({g},{x},{y},{c}).\n" for g, x, y, c in sorted(rows))
    text = f"r1: t(G,N) :- q(G,X,Y,C), {kind}((G),(X,C),N).\n{facts}"
    static = eval_aggregate(kind, [((g,), (x, c)) for g, x, _, c in rows])
    expected = {(g, n) for (g,), ns in static.items() for n in ({ns} if isinstance(ns, int) else ns)}
    for mode in ("naive", "seminaive"):
        assert set(run_text(text, mode=mode).answers("t")) == expected
    program = P.parse_program(text)
    assert apply_ico(program.rules, facts_to_interp(program.facts)).get("t", set()) == expected


# bike has a basic cost of its own, so kit first counts bike at 1 and its
# key is released (at once for msum, when the loop quiesces for sum); bike's
# own total, 70, then raises the best summand of kit's witness prefix bike.
RISING_PREFIX = """
r1: cost(Part,Cost) :- basic(Part,Cost).
r2: cost(Part,Ncost) :- assb(Part,SP,Qty), cost(SP,Cost), CQ=Cost*Qty, CQ>0, KIND((Part),(SP,CQ),Ncost).
r3: finalcost(Part,Cost) :- cost(Part,Cost), is_max((Part),(Cost)).
basic(wheel,10). basic(frame,50). basic(bike,1).
assb(bike,wheel,2). assb(bike,frame,1). assb(kit,bike,1). assb(kit,wheel,1).
"""


@pytest.mark.parametrize("kind", ["sum", "msum"])
def test_a_prefix_that_rises_after_its_release_agrees_with_the_oracle(kind):
    program = P.parse_program(RISING_PREFIX.replace("KIND", kind))
    want = P.brute_force_oracle(program)["finalcost"]
    assert ("kit", 80) in want and ("bike", 70) in want
    for mode in ("naive", "seminaive"):
        assert set(P.run_program(program, P.EvalOptions(mode=mode)).answers("finalcost")) == want


# The errors a counting rule stops with, as they read before the rule code
# wrote its own tally. A msum total past 2^63-1 is left out: seminaive may
# release a ladder of 2^63-1 rungs, and stop on the tuple budget, before the
# next witness overflows the total, depending on the order of the facts.
SUMMAND_ERRORS = {
    "sum-symbol": ("sum", "w(a,1,x).", TypeMismatch, "summand 'x' is not an integer"),
    "msum-symbol": ("msum", "w(a,1,x).", TypeMismatch, "summand 'x' is not an integer"),
    "sum-overflow": (
        "sum",
        "w(a,1,9223372036854775807). w(a,2,1).",
        Overflow,
        "integer 9223372036854775808 outside signed 64-bit range",
    ),
}


@pytest.mark.parametrize("kind, facts, error, message", SUMMAND_ERRORS.values(), ids=SUMMAND_ERRORS)
def test_a_bad_summand_stops_every_path_alike(kind, facts, error, message):
    program = P.parse_program(f"r1: t(G,S) :- w(G,K,V), {kind}((G),(K,V),S).\n{facts}\n")
    for mode in ("naive", "seminaive"):
        with pytest.raises(error) as caught:
            P.run_program(program, P.EvalOptions(mode=mode))
        assert str(caught.value) == message
    with pytest.raises(error) as caught:
        apply_ico(program.rules, facts_to_interp(program.facts))
    assert str(caught.value) == message


def _gamma_of_step(rules, constraint, interp):
    try:
        return apply_constraint(constraint, apply_ico(rules, interp))
    except (TypeMismatch, Overflow) as exc:
        return type(exc).__name__, str(exc)


def _ladder_check(text):
    """The first check `premlog verify` lists: a count/sum obligation's
    shadow, or else the final constraint."""
    planned = plan(P.parse_program(text), push=False)
    for ob in planned.obligations:
        return ob.verdict.program, ob.verdict.constraint, ob.verdict.procedure
    return planned.executed, planned.executed.final_constraints[0].constraint, None


@pytest.mark.parametrize(
    "text", [PART_EXPLOSION, PARTY_GATED + CLIQUE_FACTS], ids=["sum", "mcount"]
)
def test_max_of_the_ladder_step_is_max_of_the_total_step(text):
    # gamma(T_msum(J)) = gamma(T_sum(J)), and the same for mcount/count, on
    # random J drawn from the pools the falsifier draws from.
    program, constraint, procedure = _ladder_check(text)
    rules, sampled, pools = _sample_space(program, constraint, procedure)
    totals = standard_form(rules, constraint)
    assert totals != rules
    facts = facts_to_interp(program.facts)
    climbed = 0
    for seed in range(200):
        rng = random.Random(seed)
        interp = {p: set(rel) for p, rel in facts.items()}
        for _ in range(rng.randint(0, 12)):
            pred = rng.choice(sampled)
            interp.setdefault(pred, set()).add(tuple(rng.choice(pool) for pool in pools[pred]))
        want = _gamma_of_step(rules, constraint, interp)
        assert _gamma_of_step(totals, constraint, interp) == want, seed
        if isinstance(want, dict):
            climbed += len(apply_ico(rules, interp)[constraint.predicate]) > len(
                apply_ico(totals, interp)[constraint.predicate]
            )
    assert climbed > 50  # most draws have a ladder longer than its top


# ===== STRATIFIED EXTREMA =====================================================

Q_VARS = ("G", "D", "W", "Z")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["is_min", "is_max"]),
    st.sampled_from([("D",), ("D", "W")]),
    st.sampled_from([("G", "D"), ("W", "G", "D"), ("G", "D", "Z"), ("G", "W", "Z"), ("Z",)]),
    st.sets(
        st.tuples(
            st.sampled_from(["a", "b"]),
            st.integers(min_value=0, max_value=3),
            st.sampled_from(["x", "y"]),
            st.sampled_from(["u", "v", "w"]),
        ),
        min_size=1,
        max_size=14,
    ),
)
def test_stratified_extremum_is_eval_aggregate(kind, measured, head, rows):
    # Small costs make ties; a second measured variable makes several winners
    # per key. A head inside the key and the measure is a function of them; a
    # head variable outside both (Z, or W when only D is measured) is unsafe.
    # The parser admits only one measured variable, so the rule is built directly.
    rule = Rule(
        "r1",
        Atom("s", tuple(Variable(v) for v in head)),
        (Atom("q", tuple(Variable(v) for v in Q_VARS)), AggregateGoal(kind, ("G",), measured)),
    )
    edb = {"q": set(rows)}
    stray = sorted(set(head) - {"G", *measured})
    if stray:
        message = re.escape(f"rule r1: head variables {stray} not covered by the {kind} group")
        for run in (apply_ico, seminaive_fixpoint, naive_fixpoint):
            with pytest.raises(SafetyError, match=f"^{message}$"):
                run([rule], edb)
        return
    heads = {}
    for t in rows:
        b = dict(zip(Q_VARS, t))
        heads[(b["G"],), tuple(b[v] for v in measured)] = tuple(b[v] for v in head)
    best = eval_aggregate(kind, heads)
    expected = {h for (key, m), h in heads.items() if best[key] == m[0]}
    assert apply_ico([rule], edb)["s"] == expected
    for fixpoint in (seminaive_fixpoint, naive_fixpoint):
        assert fixpoint([rule], edb)[0]["s"] == expected


@pytest.mark.parametrize("mode", ["naive", "seminaive"])
def test_stratified_extremum_over_symbol_raises_as_eval_aggregate(mode):
    with pytest.raises(TypeMismatch) as static:
        eval_aggregate("is_min", [(("a",), (1,)), (("a",), ("x",))])
    with pytest.raises(TypeMismatch) as err:
        run_text("r1: s(G,min<D>) :- q(G,D).\nq(a,1). q(a,x).", mode=mode)
    assert str(err.value) == str(static.value) == "extremum over non-integer values"


# ===== CONSTRAINT APPLICATION =================================================


def interps(draw_pairs):
    return {"p": set(draw_pairs)}


CONSTRAINTS = st.sampled_from(
    [
        make_constraint([Bound("upper", "p", 1, "<", 25)]),
        make_constraint([Bound("lower", "p", 1, ">=", 0)]),
        make_constraint([Extremum("min", "p", (0,), 1)]),
        make_constraint([Extremum("max", "p", (), 1)]),
        make_constraint(
            [Bound("upper", "p", 1, "<=", 30), Extremum("min", "p", (0,), 1)]
        ),
    ]
)

PAIRS = st.sets(st.tuples(KEYS, COSTS), max_size=25)


@given(CONSTRAINTS, PAIRS)
def test_constraint_application_is_idempotent(constraint, pairs):
    i = interps(pairs)
    once = apply_constraint(constraint, i)
    assert apply_constraint(constraint, once) == once


@given(CONSTRAINTS, PAIRS, PAIRS)
def test_constraint_preaggregates_over_union(constraint, pairs1, pairs2):
    # constraining each part first must not change the constrained union
    i1, i2 = interps(pairs1), interps(pairs2)
    whole = apply_constraint(constraint, union_interp(i1, i2))
    parts = apply_constraint(
        constraint,
        union_interp(apply_constraint(constraint, i1), apply_constraint(constraint, i2)),
    )
    assert whole == parts


@given(CONSTRAINTS, PAIRS)
def test_constraint_only_removes_tuples(constraint, pairs):
    i = interps(pairs)
    out = apply_constraint(constraint, i)
    for pred, tuples in out.items():
        assert tuples <= i.get(pred, set())


# ===== ONE GAMMA ==============================================================


@st.composite
def extremal_cases(draw):
    """A relation of one arity, a kind, a cost position, a group (None, empty,
    or some other positions) and the key positions the group stands for.
    Values come from small pools, so keys and costs tie."""
    arity = draw(st.integers(min_value=1, max_value=4))
    cost = draw(st.integers(min_value=0, max_value=arity - 1))
    others = tuple(i for i in range(arity) if i != cost)
    group = draw(st.none() | st.lists(st.sampled_from(others), unique=True).map(tuple)
                 if others else st.sampled_from([None, ()]))
    value = st.sampled_from(["a", "b", 0, 1])
    row = st.tuples(*[st.integers(min_value=-3, max_value=3) if i == cost else value
                      for i in range(arity)])
    rel = draw(st.sets(row, max_size=20))
    kind = draw(st.sampled_from(["min", "max"]))
    return rel, kind, cost, group, others if group is None else group


@settings(max_examples=300)
@given(extremal_cases())
def test_keep_extremal_is_brute_force_per_group(case):
    rel, kind, cost, group, key_positions = case
    pick = min if kind == "min" else max

    def key(t):
        return tuple(t[i] for i in key_positions)

    expected = {t for t in rel if t[cost] == pick(u[cost] for u in rel if key(u) == key(t))}
    assert keep_extremal(rel, kind, cost, group) == expected


def test_keep_extremal_fixed_cases():
    rel = {("a", 3), ("a", 1), ("b", 1)}
    assert keep_extremal(rel, "min", 1) == {("a", 1), ("b", 1)}
    assert keep_extremal(rel, "max", 1, ()) == {("a", 3)}
    assert keep_extremal({(2,), (5,), (5,)}, "max", 0) == {(5,)}  # arity 1: one key
    ties = {("a", "x", 2), ("a", "y", 2), ("a", "z", 4)}
    assert keep_extremal(ties, "min", 2, (0,)) == {("a", "x", 2), ("a", "y", 2)}
    assert keep_extremal(set(), "min", 0) == set()


def test_keep_extremal_rejects_a_symbol_cost():
    with pytest.raises(TypeMismatch, match=r"^extremum over non-integer value 'x'$"):
        keep_extremal({("a", "x")}, "min", 1)
    with pytest.raises(TypeMismatch, match=r"^extremum over non-integer value 'x'$"):
        keep_extremal({("a", "x")}, "max", 1, (0,))


def _outcome(f, *args):
    """f's result as a list, in its iteration order, or the error it raised."""
    try:
        return list(f(*args))
    except TypeMismatch as exc:
        return str(exc)


@settings(max_examples=300)
@given(extremal_cases(), st.sets(st.sampled_from(["x", "y", 7]), max_size=2))
def test_keep_extremal_equals_the_tuple_loop_in_order(case, mixed):
    # The same tuples, in the same order, or the same TypeMismatch naming the
    # first non-integer cost in the set's iteration order.
    rel, kind, cost, group, _ = case
    arity = len(next(iter(rel))) if rel else 0
    rel = set(rel)
    for i, v in enumerate(sorted(mixed, key=str) if arity else ()):
        rel.add(tuple(v if j == cost else ("a", "b")[i] for j in range(arity)))
    want = _outcome(keep_extremal_by_tuple, rel, kind, cost, group)
    assert _outcome(keep_extremal, rel, kind, cost, group) == want


def test_keep_extremal_on_empty_and_arity_one_relations():
    for kind in ("min", "max"):
        for group in (None, ()):
            assert keep_extremal(set(), kind, 0, group) == set()
            rel = {(3,), (-1,), (3,), (8,), (-1,)}
            want = keep_extremal_by_tuple(rel, kind, 0, group)
            assert keep_extremal(rel, kind, 0, group) == want == ({(-1,)} if kind == "min" else {(8,)})
    assert keep_extremal(set(), "max", 1, (0,)) == set()


def test_keep_extremal_names_the_first_symbol_of_a_mixed_cost_column():
    rel = {("a", i) for i in range(40)} | {("b", "x"), ("c", "y"), ("d", 3)}
    for kind, group in (("min", None), ("max", (0,)), ("min", ())):
        want = _outcome(keep_extremal_by_tuple, rel, kind, 1, group)
        assert want.startswith("extremum over non-integer value '")
        assert _outcome(keep_extremal, rel, kind, 1, group) == want


# ===== WORKING-SET GATE =======================================================


@pytest.mark.parametrize("monotonic", [False, True])
@given(
    st.sampled_from(["min", "max"]),
    st.lists(st.tuples(KEYS, st.integers(min_value=-50, max_value=50)), max_size=40),
)
def test_admission_keeps_one_best_per_key(monotonic, kind, inserts):
    ctx = _Context({}, 10_000, EvalStats(), {"p": {}})
    admit = partial(_admit_code("p", 2, HeadExtremum(kind, monotonic, 1)), ctx)
    best = ctx.gates["p"]
    pick = min if kind == "min" else max
    best_value = {}
    kept = set()
    for k, v in inserts:
        held = best_value.get((k,))
        improves = held is None or pick(held, v) != held
        retained, deleted = ctx.stats.retained, ctx.stats.deleted
        admit((k, v))
        assert ctx.stats.retained - retained == improves  # exactly the strict improvements
        # min/max displace the incumbent; mmin/mmax delete nothing
        displaced = improves and held is not None and not monotonic
        assert ctx.stats.deleted - deleted == displaced
        if improves:
            best_value[(k,)] = v
            kept.add((k, v))
            if displaced:
                kept.discard((k, held))
    assert set(best) == set(best_value)
    for key, t in best.items():
        assert t[1] == best_value[key]
    assert ctx.store("p").tuples == kept == ctx.next_delta.get("p", set())
    if not monotonic:
        assert ctx.stats.retained - ctx.stats.deleted == len(best) == len(kept)


# ===== SYNTAX ROUND-TRIP ======================================================


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_parse_format_round_trip(seed):
    text = random_positive_program(seed)
    p1 = P.parse_program(text)
    p2 = P.parse_program(P.format_program(p1))
    assert p2.rules == p1.rules
    assert p2.facts == p1.facts


# ===== STRUCTURAL CHECKS ======================================================

GUARDS = st.sets(
    st.sampled_from(["Dy>Dx", "Dy>=Dx", "Dy>=0", "Dxy>0", "Dy<100", "Dy!=7", "Dy<=Dx"]),
    max_size=3,
)


def _guarded_rule(guards):
    body = "p(X,Dx), e(X,Y,Dxy), Dy=Dx+Dxy"
    for g in sorted(guards):
        body += f", {g}"
    return P.parse_program(f"r1: p(Y,Dy) :- {body}.").rules[0]


# A DAG over a..e whose arcs may be negative, and one to four seed tuples of p.
_ARCS = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde"), st.integers(-5, 30)).filter(
        lambda arc: arc[0] < arc[1]
    ),
    max_size=8,
)
_SEEDS = st.lists(st.tuples(st.sampled_from("abcde"), st.integers(-5, 60)), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(GUARDS, st.sampled_from(["<", "<=", ">", ">="]), st.integers(-5, 60), _ARCS, _SEEDS)
def test_every_bound_the_transfer_test_approves_keeps_the_answers(guards, op, limit, arcs, seeds):
    rule = _guarded_rule(guards)
    text = (
        "r0: p(Y,Dy) :- s(Y,Dy).\n"
        + P.format_rule(rule)
        + f"\nr2: q(Y,Dy) :- p(Y,Dy), Dy{op}{limit}.\n"
        + "".join(f"s({y},{d}).\n" for y, d in seeds)
        + "".join(f"e({x},{y},{w}).\n" for x, y, w in arcs)
    )
    program = P.parse_program(text)
    constraint = program.final_constraints[0].constraint
    if not P.classify_premability(program, constraint).approved:
        return
    assert P.run_program(program).db.get("q", set()) == P.brute_force_oracle(program).get("q", set())
    assert P.check_prem_empirical(program, constraint, samples=64, seed=limit).holds


# Each property's reason names a failure of that property, never one that
# only breaks its opposite.
OPPOSITE_REASON = {
    "deflation": "from above",
    "inflation": "from below",
    "nonincreasing": "may drop below",
    "nondecreasing": "may exceed",
}


@given(GUARDS)
def test_lacks_never_quotes_the_opposite_property(guards):
    rule = _guarded_rule(guards)
    for prop, wrong in OPPOSITE_REASON.items():
        assert wrong not in analysis.lacks(rule, prop, {"p": 1}, {"p"})
    upper, lower = (Bound(kind, "p", 1, op, 20) for kind, op in (("upper", "<"), ("lower", ">")))
    assert "exceed" not in analysis.lacks_transfer(rule, upper, {"p": 1}, {"p"})
    assert "fall below" not in analysis.lacks_transfer(rule, lower, {"p": 1}, {"p"})


# ===== EVALUATION MODES =======================================================


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_modes_agree_on_generated_programs(seed):
    text = random_positive_program(seed)
    ra = P.run_program(P.parse_program(text), P.EvalOptions(mode="naive"))
    rb = P.run_program(P.parse_program(text), P.EvalOptions(mode="seminaive"))
    assert ra.db == rb.db
