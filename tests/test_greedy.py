"""The greedy seminaive loop: a min (max) recursion whose rules are
deflation- (inflation-) preserving and nondecreasing (nonincreasing) runs
one cost level per iteration, cheapest (dearest) first, and skips queued
tuples that lost their key's gate since they were queued.

Each case runs the guarded program, which qualifies, against the same
program without its guard, which is not nondecreasing (nonincreasing) and
so runs the breadth-first loop: the answers agree, and greedy derives no
more.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premlog as P
from premlog import bench
from premlog.engine import plan
from premlog.parser import parse_program

TEMPLATE = """
path(Y,{gate}<Dy>) :- arc({src},Y,Dy).
path(Y,{gate}<Dy>) :- path(X,Dx), arc(X,Y,W), Dy=Dx{op}W{guard}.
best(Y,{final}<Dy>) :- path(Y,Dy).
"""

# name -> (gate, cost step, guard, least arc length)
CASES = {
    "min": ("min", "+", "Dy>Dx", 1),
    "mmin": ("mmin", "+", "Dy>Dx", 1),
    # Zero-length arcs: a level admits more tuples of its own cost, and the
    # level is queued and drained again.
    "min_tied": ("min", "+", "Dy>=Dx", 0),
    "mmin_tied": ("mmin", "+", "Dy>=Dx", 0),
    # The mirror: costs fall along a path and the dearest level goes first.
    "max": ("max", "-", "Dy<Dx", 1),
    "mmax": ("mmax", "-", "Dy<Dx", 1),
}


def program(case: str, arcs, src, guarded: bool = True):
    gate, op, guard, _ = CASES[case]
    text = TEMPLATE.format(
        gate=gate,
        src=src,
        op=op,
        guard=f", {guard}" if guarded else "",
        final="max" if gate.endswith("max") else "min",
    )
    return parse_program(text).with_facts(bench.arc_facts(arcs))


def evaluate(case: str, arcs, src, guarded: bool = True, **options):
    result = P.run_program(program(case, arcs, src, guarded), P.EvalOptions(**options), push=False)
    return dict(result.db.get("best", ())), result.stats


def reference(case: str, arcs, src):
    """Least path length from src; under the max mirror, the greatest first
    arc length less the least length of the rest of a path."""
    if not CASES[case][0].endswith("max"):
        return bench.dijkstra_reference(arcs, src)
    out = {}
    for u, v, w in arcs:
        if u != src:
            continue
        for node, rest in [(v, 0), *bench.dijkstra_reference(arcs, v).items()]:
            out[node] = max(out.get(node, w - rest), w - rest)
    return out


@st.composite
def graphs(draw, least: int):
    n = draw(st.integers(min_value=2, max_value=7))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(least, 9)
            ),
            max_size=18,
            unique_by=lambda a: a[:2],
        )
    )
    if draw(st.booleans()):
        return [(f"n{u}", f"n{v}", w) for u, v, w in arcs], "n0"
    return arcs, 0


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_greedy_matches_breadth_first_and_derives_no_more(case, data):
    arcs, src = data.draw(graphs(CASES[case][3]))
    greedy, stats = evaluate(case, arcs, src)
    breadth_first, bf_stats = evaluate(case, arcs, src, guarded=False)
    assert greedy == breadth_first == reference(case, arcs, src)
    assert stats.derived <= bf_stats.derived
    if greedy and CASES[case][3] > 0:
        # Round 1, then one iteration per distinct answer cost: every level
        # that holds a live tuple holds a final one, and no level is drained
        # twice; the final rule's stratum takes two more.
        assert stats.iterations == 1 + len(set(greedy.values())) + 2


ALTERNATING = """
odd(Y,min<D>) :- arc({src},Y,D).
even(Y,min<D>) :- odd(X,Dx), arc(X,Y,W), D=Dx+W{guard}.
odd(Y,min<D>) :- even(X,Dx), arc(X,Y,W), D=Dx+W{guard}.
"""


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_two_predicates_share_one_queue_of_cost_levels(data):
    """Least lengths of paths with an odd and an even number of arcs: one
    stratum of two gated predicates, which queue their levels together."""
    arcs, src = data.draw(graphs(1))
    runs = []
    for guard, mode in ((", D>Dx", "seminaive"), ("", "seminaive"), (", D>Dx", "naive")):
        text = ALTERNATING.format(src=src, guard=guard)
        prog = parse_program(text).with_facts(bench.arc_facts(arcs))
        result = P.run_program(prog, P.EvalOptions(mode=mode), push=False)
        runs.append(({p: result.db.get(p, set()) for p in ("odd", "even")}, result.stats))
    (greedy, stats), (breadth_first, bf_stats), (naive, _) = runs
    assert greedy == breadth_first == naive
    assert stats.derived <= bf_stats.derived
    costs = {t[1] for rel in greedy.values() for t in rel}
    assert stats.iterations == 1 + len(costs)


def test_a_tied_level_is_drained_again():
    arcs = [("a", "b", 1), ("b", "c", 0), ("c", "d", 0), ("a", "d", 5)]
    answers, stats = evaluate("min_tied", arcs, "a")
    assert answers == {"b": 1, "c": 1, "d": 1}
    # Round 1 admits b@1 and d@5; level 1 holds b, then c, then d in turn,
    # and d@5 was displaced before its level came up.
    assert stats.iterations == 1 + 3 + 2


def test_only_a_nondecreasing_recursion_runs_by_cost_level():
    arcs = [("a", "b", 1), ("a", "c", 2)]
    # Greedy: round 1 admits b@1 and c@2, then levels 1 and 2. Without the
    # guard, breadth-first: round 1, then one iteration with both in delta.
    assert evaluate("min", arcs, "a")[1].iterations == 1 + 2 + 2
    assert evaluate("min", arcs, "a", guarded=False)[1].iterations == 1 + 1 + 2


BOUNDED_SPATH = """
r1: path(Y,Dy) :- arc(n0,Y,Dy).
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
r3: spath(Y,Dy) :- path(Y,Dy), {bound}is_min((Y),(Dy)).
"""


def test_a_pushed_bound_leaves_the_shortest_path_greedy():
    # The pushed guard Dy<1000000 caps the cost from above, which neither
    # deflation nor the cost order minds.
    arcs = bench.gen_graph(bench.GraphSpec("cyclic", 60, 0.1, (1, 20)))
    runs = []
    for bound in ("", "Dy<1000000, "):
        prog = parse_program(BOUNDED_SPATH.format(bound=bound)).with_facts(bench.arc_facts(arcs))
        result = P.run_program(prog)
        assert [step.action for step in plan(prog).steps] == ["pushed"]
        runs.append((dict(result.db["spath"]), result.stats))
    (free, free_stats), (bounded, stats) = runs
    assert bounded == free == bench.dijkstra_reference(arcs, "n0")
    assert stats.derived <= free_stats.derived
    # Round 1, one iteration per distinct answer cost, two for the final rule.
    assert stats.iterations == free_stats.iterations == 1 + len(set(bounded.values())) + 2


def test_a_rule_the_analysis_cannot_read_runs_breadth_first():
    chain = ", ".join(f"C{i + 1}=C{i}+0" for i in range(40))
    text = (
        "p(Y,min<D>) :- arc(a,Y,D).\n"
        f"p(Y,min<D>) :- p(X,C0), arc(X,Y,W), {chain}, D=C40+W, D>C0.\n"
        "arc(a,b,1). arc(b,c,2).\n"
    )
    result = P.run_program(parse_program(text))
    assert result.answers("p") == [("b", 1), ("c", 3)]


def test_iteration_budget_counts_cost_levels():
    arcs = [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("d", "e", 1)]
    _, stats = evaluate("min", arcs, "a")
    assert stats.iterations == 1 + 4 + 2
    with pytest.raises(P.BudgetExceeded) as info:
        evaluate("min", arcs, "a", max_iterations=3)
    assert info.value.stats.iterations == 4
    assert info.value.partial["path"] == {("b", 1), ("c", 2), ("d", 3)}


HASH_SEED_RUN = """
import json
from premlog import bench
arcs = bench.gen_graph(bench.GraphSpec("cyclic", 200, 0.05, (1, 20)))
out = {}
for variant in ("spath_prem", "spath_mmin"):
    answers, stats = bench.shortest_paths(variant, arcs, "n0")
    out[variant] = [sorted(answers.items()), stats.iterations, stats.derived]
print(json.dumps(out))
"""


def test_greedy_counts_do_not_depend_on_the_hash_seed():
    """String node ids hash differently under each PYTHONHASHSEED. Cost
    levels settle in the same order whatever the order within a level, so
    answers, iterations and derived agree (retained and deleted still follow
    the order of admission within a level)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    runs = []
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", HASH_SEED_RUN], env=env, capture_output=True, text=True, check=True
        )
        runs.append(json.loads(done.stdout))
    assert runs[0] == runs[1] == runs[2]
    arcs = bench.gen_graph(bench.GraphSpec("cyclic", 200, 0.05, (1, 20)))
    expected = sorted(bench.dijkstra_reference(arcs, "n0").items())
    for variant in ("spath_prem", "spath_mmin"):
        answers, iterations, derived = runs[0][variant]
        assert [tuple(a) for a in answers] == expected
        assert (iterations, derived) == (25, 2240)
