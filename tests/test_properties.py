"""Property tests for the algebraic laws the evaluator depends on."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premlog as P
from premlog import analysis
from premlog.engine import (
    ExtremaIndex,
    RelationStore,
    apply_constraint,
    apply_ico,
    naive_fixpoint,
    plan,
    seminaive_fixpoint,
)
from premlog.errors import Overflow, TypeMismatch
from premlog.model import (
    AggregateGoal,
    Atom,
    Bound,
    Extremum,
    Rule,
    Variable,
    facts_to_interp,
    keep_extremal,
    make_constraint,
)
from premlog.rewrite import standard_form
from premlog.verify import _sample_space

from conftest import (
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
    st.sampled_from([("G", "D"), ("G", "D", "Z"), ("G", "W", "Z"), ("Z",)]),
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
def test_stratified_extremum_is_eval_aggregate_with_first_heads(kind, measured, head, rows):
    # Small costs make ties; a second measured variable makes several winners
    # per key; head variables outside the key and the measure (Z) are taken
    # from the first binding of each (key, measured). The parser admits only
    # one measured variable, so the rule is built directly.
    rule = Rule(
        "r1",
        Atom("s", tuple(Variable(v) for v in head)),
        (Atom("q", tuple(Variable(v) for v in Q_VARS)), AggregateGoal(kind, ("G",), measured)),
    )
    edb = {"q": set(rows)}
    first = {}
    for t in RelationStore(edb["q"]).tuples:  # the order every executor scans q in
        b = dict(zip(Q_VARS, t))
        first.setdefault(((b["G"],), tuple(b[v] for v in measured)), tuple(b[v] for v in head))
    best = eval_aggregate(kind, first)
    expected = {h for (key, m), h in first.items() if best[key] == m[0]}
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


# ===== WORKING-SET INDEX ======================================================


@pytest.mark.parametrize("monotonic", [False, True])
@given(
    st.sampled_from(["min", "max"]),
    st.lists(st.tuples(KEYS, st.integers(min_value=-50, max_value=50)), max_size=40),
)
def test_extrema_index_keeps_one_best_per_key(monotonic, kind, inserts):
    idx = ExtremaIndex(kind, 1, monotonic)
    pick = min if kind == "min" else max
    best_value = {}
    admitted = displaced = 0
    for k, v in inserts:
        held = best_value.get((k,))
        improves = held is None or pick(held, v) != held
        inserted, incumbent = idx.insert((k, v))
        assert inserted == improves  # exactly the strict improvements
        if monotonic:
            assert incumbent is None  # mmin/mmax delete nothing
        admitted += 1 if inserted else 0
        displaced += 1 if incumbent is not None else 0
        if improves:
            best_value[(k,)] = v
    assert set(idx.best) == set(best_value)
    for key, t in idx.best.items():
        assert t[1] == best_value[key]
    if not monotonic:
        assert admitted - displaced == len(idx.best)


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
    st.sampled_from(["Dy>Dx", "Dy>=Dx", "Dy>=0", "Dxy>0", "Dy<100", "Dy!=7"]),
    max_size=3,
)


def _guarded_rule(guards):
    body = "p(X,Dx), e(X,Y,Dxy), Dy=Dx+Dxy"
    for g in sorted(guards):
        body += f", {g}"
    return P.parse_program(f"r1: p(Y,Dy) :- {body}.").rules[0]


@given(GUARDS)
def test_ascending_rules_also_preserve_inflation(guards):
    rule = _guarded_rule(guards)
    if not analysis.lacks(rule, "ascending", {"p": 1}, {"p"}):
        assert not analysis.lacks(rule, "inflation", {"p": 1}, {"p"})


@given(GUARDS)
def test_descending_rules_also_preserve_deflation(guards):
    rule = _guarded_rule(guards)
    if not analysis.lacks(rule, "descending", {"p": 1}, {"p"}):
        assert not analysis.lacks(rule, "deflation", {"p": 1}, {"p"})


# Each property's reason names a failure of that property, never one that
# only breaks its opposite.
OPPOSITE_REASON = {
    "deflation": "from above",
    "inflation": "from below",
    "descending": "may drop below",
    "ascending": "may exceed",
}


@given(GUARDS)
def test_lacks_never_quotes_the_opposite_property(guards):
    rule = _guarded_rule(guards)
    for prop, wrong in OPPOSITE_REASON.items():
        assert wrong not in analysis.lacks(rule, prop, {"p": 1}, {"p"})


# ===== EVALUATION MODES =======================================================


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_modes_agree_on_generated_programs(seed):
    text = random_positive_program(seed)
    ra = P.run_program(P.parse_program(text), P.EvalOptions(mode="naive"))
    rb = P.run_program(P.parse_program(text), P.EvalOptions(mode="seminaive"))
    assert ra.db == rb.db
