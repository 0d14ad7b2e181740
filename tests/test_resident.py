"""Resident stores and proven integer columns.

A seminaive run keeps one store per relation for all its strata, so each
fact relation's store, and each index on it, is built once per run; and
each stratum decides once which columns hold only integers, the generated
code skipping the isinstance test on values read from them. Neither may
change what a run prints, and the column proof is part of the generated
code's cache key: the same rule text over symbolic data must still fail as
it does on its own.
"""
from __future__ import annotations

import json
import random
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premlog as P
import premlog.engine as engine
import premlog.parser as parser
from premlog.cli import EXIT_INPUT, EXIT_OK, main
from premlog.errors import BudgetExceeded, PremlogError

import conftest
from conftest import bench_corpus, facts_to_interp, random_positive_program

# Three strata: a greedy min recursion, a plain recursion that reads it and
# probes arc on the same index, and a range goal over what that derived.
STAGED = """
r1: path(Y,min<D>) :- arc(a,Y,D).
r2: path(Y,min<D>) :- path(X,D0), arc(X,Y,W), W>1, D=D0+W, D>D0.
r3: hop(Y,D) :- path(c,D), arc(c,Y,W).
r4: hop(Z,D) :- hop(Y,D), arc(Y,Z,W).
r5: loop(Y,J) :- hop(Y,D), int_up2(D,J).
arc(a,b,1). arc(b,c,2). arc(a,c,5). arc(c,d,1). arc(d,e,1). arc(e,f,1). arc(f,g,1).
"""
ARCS = {
    ("a", "b", 1), ("b", "c", 2), ("a", "c", 5),
    ("c", "d", 1), ("d", "e", 1), ("e", "f", 1), ("f", "g", 1),
}
PATH = {("b", 1), ("c", 3)}


def counts(stats):
    return (stats.iterations, stats.derived, stats.retained, stats.deleted)


def test_each_store_and_index_is_built_once_per_run(monkeypatch):
    program = P.parse_program(STAGED)
    strata = []  # per stratum: its rule ids and the stores it started from
    built = Counter()  # RelationStore constructions
    indexed = Counter()  # (store, positions) -> index builds
    real_stratum = engine._seminaive_stratum
    real_init = engine.RelationStore.__init__
    real_index = engine.RelationStore.index

    def stratum(rules, stores, options, monitor, stats):
        strata.append((sorted(r.id for r in rules), dict(stores)))
        real_stratum(rules, stores, options, monitor, stats)

    def init(self, tuples=None):
        built["stores"] += 1
        real_init(self, tuples)

    def index(self, positions):
        if positions not in self.indexes:
            indexed[id(self), positions] += 1
        return real_index(self, positions)

    monkeypatch.setattr(engine, "_seminaive_stratum", stratum)
    monkeypatch.setattr(engine.RelationStore, "__init__", init)
    monkeypatch.setattr(engine.RelationStore, "index", index)
    result = P.run_program(program)

    # One store for arc, one per head predicate (path, hop, loop).
    assert built["stores"] == 4
    assert [ids for ids, _ in strata] == [["r1", "r2"], ["r3", "r4"], ["r5"]]
    arc = strata[0][1]["arc"]
    assert all(stores["arc"] is arc for _, stores in strata)
    assert strata[2][1]["path"] is strata[1][1]["path"]
    assert result.db["arc"] is arc.tuples
    # Strata 1 and 2 both probe arc on its first column: one index.
    assert indexed[id(arc), (0,)] == 1
    assert set(indexed.values()) == {1}
    assert result.db["path"] == PATH
    assert len(result.db["loop"]) == 12


def test_resident_run_equals_a_replay_per_stratum():
    result = P.run_program(P.parse_program(STAGED))
    db = facts_to_interp(result.executed.facts)
    total = P.EvalStats()
    for stratum in P.stratify(result.executed):
        db, stats = P.seminaive_fixpoint(stratum.rules, db)
        total.merge(stats)
    assert db == result.db
    assert counts(total) == counts(result.stats) == (10, 19, 19, 1)


def test_seminaive_fixpoint_leaves_its_input_alone():
    edb = {"arc": set(ARCS), "path": {("z", 9)}}
    rules = P.stratify(P.parse_program(STAGED))[0].rules
    db, _ = P.seminaive_fixpoint(rules, edb)
    assert edb == {"arc": ARCS, "path": {("z", 9)}}
    assert db["arc"] == ARCS and db["arc"] is not edb["arc"]
    assert db["path"] == PATH | {("z", 9)}


# Frozen at the commit before resident stores: each stop falls in a later
# stratum, and carries the stats of the whole run and the state of every
# stratum so far. A tuple stop names the run's budget.
LATER_STOPS = [
    (
        dict(max_tuples=6),
        "tuple budget of 6 exhausted",
        (7, 7, 6, 1),
        {"arc": ARCS, "path": PATH, "hop": {("d", 3), ("e", 3), ("f", 3)}},
    ),
    (
        dict(max_iterations=3),
        "iteration budget of 3 exhausted",
        (7, 6, 6, 1),
        {"arc": ARCS, "path": PATH, "hop": {("d", 3), ("e", 3), ("f", 3)}},
    ),
    (
        dict(max_tuples=8),
        "range 1..3 exceeds the tuple budget",
        (9, 7, 7, 1),
        {"arc": ARCS, "path": PATH, "hop": {("d", 3), ("e", 3), ("f", 3), ("g", 3)}},
    ),
]


@pytest.mark.parametrize("budget, message, stats, partial", LATER_STOPS, ids=["tuples", "iterations", "range"])
def test_budget_stop_in_a_later_stratum(budget, message, stats, partial):
    with pytest.raises(BudgetExceeded) as err:
        P.run_program(P.parse_program(STAGED), P.EvalOptions(**budget))
    assert str(err.value) == message
    assert counts(err.value.stats) == stats
    assert err.value.partial == partial


# ===== proven integer columns =================================================

SPATH_RULES = """r1: path(Y,Dy) :- arc(a,Y,Dy).
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
r3: spath(Y,min<Dy>) :- path(Y,Dy).
"""
PASSED = "PASSED: min(path: group [0], cost 1): no counterexample in 50 samples\n"
# facts -> (run's exit code, stdout, stderr), as each prints in a fresh process.
RUNS = {
    "int": ("arc(a,b,1). arc(b,c,2). arc(a,c,5).\n", EXIT_OK, "spath(b,1).\nspath(c,3).\n", ""),
    "symbolic": (
        "arc(a,b,x). arc(b,c,y).\n",
        EXIT_INPUT,
        "",
        "error: extremum over non-integer value 'x'\n",
    ),
    "mixed": (
        "arc(a,b,1). arc(b,c,y).\n",
        EXIT_INPUT,
        "",
        "error: arithmetic '+' needs integers, got 1 and 'y'\n",
    ),
    "int_max": (
        "arc(a,b,9223372036854775807). arc(b,c,1).\n",
        EXIT_INPUT,
        "",
        "error: integer 9223372036854775808 outside signed 64-bit range\n",
    ),
}


@pytest.mark.parametrize(
    "order",
    [("int", "symbolic"), ("symbolic", "int"), ("int", "mixed", "int_max"), ("mixed", "int", "symbolic")],
    ids="-".join,
)
def test_column_proof_is_part_of_the_cache_key(tmp_path, capsys, order):
    # The same rule text, so the same cached rule code, were the proof not
    # in its key; verify's falsifier reads no proof and skips what raises.
    for name in order:
        facts, code, out, err = RUNS[name]
        path = tmp_path / f"{name}.dl"
        path.write_text(SPATH_RULES + facts)
        for argv in (["run", str(path)], ["run", str(path), "--mode", "naive"]):
            assert main(argv) == code
            assert capsys.readouterr() == (out, err)
        assert main(["verify", str(path), "--samples", "50"]) == EXIT_OK
        assert capsys.readouterr() == (PASSED, "")


def test_sum_result_is_proven_and_still_overflows():
    text = "r1: t(G,S) :- w(G,K,V), sum((G),(K,V),S).\nr2: u(G,T) :- t(G,S), T=S+1.\n"
    program = P.parse_program(text + "w(a,1,9223372036854775806). w(a,2,1).\n")
    with pytest.raises(P.Overflow, match="^integer 9223372036854775808 outside signed 64-bit range$"):
        P.run_program(program, trust_aggregates=True)
    ok = P.run_program(P.parse_program(text + "w(a,1,5). w(a,2,1).\n"), trust_aggregates=True)
    assert ok.answers("u") == [("a", 7)]


def proven(text):
    program = P.parse_program(text)
    stores = {p: engine.RelationStore(rel) for p, rel in facts_to_interp(program.facts).items()}
    rules = P.stratify(program)[0].rules
    return engine._proven_columns(rules, stores, {})[0]


@pytest.mark.parametrize(
    "facts, expected",
    [
        (RUNS["int"][0], {("arc", 2), ("path", 1)}),
        (RUNS["symbolic"][0], set()),
        (RUNS["mixed"][0], set()),  # one symbol: the column is not proven
    ],
    ids=["int", "symbolic", "mixed"],
)
def test_proven_columns(facts, expected):
    assert proven(SPATH_RULES + facts) == expected


def test_head_column_proof_is_a_greatest_fixpoint():
    # q's column is an integer in every rule given itself and the seeds; a
    # symbolic seed, or a rule that copies a symbol, disproves it.
    rules = "r1: q(X) :- b(X).\nr2: q(Y) :- q(X), Y = X.\nr3: q(Y) :- q(X), e(X,Y).\n"
    assert ("q", 0) in proven(rules + "b(1). e(1,2).")
    assert ("q", 0) not in proven(rules + "b(1). e(1,x).")
    program = P.parse_program(rules + "b(1). e(1,2).")
    stores = {p: engine.RelationStore(rel) for p, rel in facts_to_interp(program.facts).items()}
    seeds = {"q": {("x",)}}
    assert ("q", 0) not in engine._proven_columns(program.rules, stores, seeds)[0]


def test_a_variable_tied_to_a_proven_one_is_proven_whatever_the_goal_order():
    # r2 copies q's column through Z, which an equality ties to the integer
    # read from b; r3 through an integer literal; r4 through arithmetic. Tied
    # to a symbol read from e instead, Z disproves q's column.
    rules = (
        "r1: q(X) :- b(X).\nr2: q(Z) :- q(X), b(Y), Z = Y, Y = X.\n"
        "r3: q(W) :- e(V,V), W = 7.\nr4: q(W) :- e(V,U), W = V + 1.\n"
    )
    assert ("q", 0) in proven(rules + "b(1). e(x,y).")
    assert ("q", 0) not in proven(rules.replace("Z = Y, ", "Z = V, e(V,V), ") + "b(1). e(x,y).")


def test_the_body_keeps_its_tests_where_a_later_goal_proves_the_variable():
    # X = 5 proves X once the body has passed, but Y = X+1 reads X first.
    text = "r1: p(Y) :- q(X), Y = X+1, X = 5.\n"
    assert ("p", 0) in proven(text + "q(a). q(5).")
    with pytest.raises(P.TypeMismatch, match="^arithmetic '\\+' needs integers, got 'a' and 1$"):
        P.run_program(P.parse_program(text + "q(a). q(5)."))
    assert P.run_program(P.parse_program(text + "q(5). q(7).")).answers("p") == [(6,)]


# engine._proven_columns(...)[0] at the start of every seminaive stratum of
# the conftest programs and of the 96 corpus programs at seed 1, each run on
# its own facts (pushed, then stratified; a stop ends a program's list),
# frozen when a per-rule solver (_int_needs) chose which columns to scan:
# one line per stratum, its rule ids and its proven columns.
PROOFS = Path(__file__).with_name("golden_proven_columns.json")


def proof_tables():
    texts = {name: text for name, text in vars(conftest).items() if name.isupper() and isinstance(text, str)}
    for i, text in enumerate(bench_corpus().generated_programs(random.Random(1), 96)):
        texts[f"corpus 1 #{i}"] = text
    real = engine._proven_columns
    tables = {}
    for name, text in sorted(texts.items()):
        strata = []

        def record(rules, stores, seeds):
            proven, held = real(rules, stores, seeds)
            strata.append([" ".join(sorted(r.id for r in rules)), sorted(f"{p} {i}" for p, i in proven)])
            return proven, held

        program = P.parse_program(text)
        with mock.patch.object(engine, "_proven_columns", record):
            for push in (True, False):
                try:
                    P.run_program(program, P.EvalOptions(max_tuples=20_000), push=push)
                except PremlogError:
                    pass
        tables[name] = strata
    return tables


def test_every_stratum_proves_at_least_what_the_per_rule_solver_proved():
    frozen = json.loads(PROOFS.read_text(encoding="utf-8"))
    tables = proof_tables()
    assert tables.keys() == frozen.keys()
    for name, strata in tables.items():
        assert [ids for ids, _ in strata] == [ids for ids, _ in frozen[name]], name
        for (ids, now), (_, then) in zip(strata, frozen[name]):
            assert set(then) <= set(now), (name, ids)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sets(st.sampled_from("abcd")))
def test_a_column_proven_at_a_stratum_start_holds_only_integers(seed, numbered):
    # Nodes in numbered become integers, the others stay symbols; weights are
    # integers. What a stratum proves must hold of the run's whole result.
    number = {c: str(i) for i, c in enumerate("abcd", 1) if c in numbered}
    text = re.sub(r"\b[a-d]\b", lambda m: number.get(m[0], m[0]), random_positive_program(seed))
    claims = []
    real = engine._proven_columns

    def record(rules, stores, seeds):
        proven, held = real(rules, stores, seeds)
        claims.append(proven)
        return proven, held

    with mock.patch.object(engine, "_proven_columns", record):
        db = P.run_program(P.parse_program(text)).db
    assert claims
    for p, i in set().union(*claims):
        assert all(type(t[i]) is int for t in db.get(p, ())), (text, p, i)


# ===== scan order of the fact stores ============================================

SCAN_RULES = """\
r1: path(Y,min<D>) :- arc(a0,Y,D).
r2: path(Y,min<D>) :- path(X,D0), arc(X,Y,W), D=D0+W, D>D0.
r3: near(X,Y) :- node(X), w(X,Y,C), C<5.
"""
# Interleaved predicates of one arity (the line reader splits its chunks where
# the predicate changes), lines of another arity between them, and repeats.
SCAN_LINES = [f"arc(a{i},a{i * 7 % 60},{i % 9 + 1}).\n" for i in range(60)]
for i in range(0, 60, 4):
    SCAN_LINES.insert(i + 2, f"w(a{i},a{i + 1},{i % 7}).\n")
for i in range(0, 70, 10):
    SCAN_LINES.insert(i, f"node(a{i}).\n")
SCAN_LINES[30:30] = [SCAN_LINES[12], SCAN_LINES[12], SCAN_LINES[3]]


def _fact(line):
    predicate, _, args = line.rstrip(".\n").rstrip(")").partition("(")
    return P.Fact(predicate, tuple(int(a) if a.isdigit() else a for a in args.split(",")))


def _resident_stores(monkeypatch, argv):
    """The stores of the fact relations as the first stratum of a run finds them."""
    first = []
    real_stratum = engine._seminaive_stratum

    def stratum(rules, stores, options, monitor, stats):
        if not first:
            first.append({p: list(store.tuples) for p, store in stores.items()})
        real_stratum(rules, stores, options, monitor, stats)

    monkeypatch.setattr(engine, "_seminaive_stratum", stratum)
    assert main(argv) == EXIT_OK
    return first[0]


@pytest.mark.parametrize("where", ["dl", "tsv", "program"])
def test_stores_scan_the_facts_as_a_fact_by_fact_load_would(tmp_path, capsys, monkeypatch, where):
    rules = tmp_path / "rules.dl"
    if where == "tsv":
        # Integer nodes, a two-field row (length 1) and a repeated row, which
        # the edge list reader loads once.
        arcs = [(i, i * 13 % 300, i % 5 + 1) for i in range(300)]
        lines = [f"{u}\t{v}\t{d}\n" for u, v, d in arcs]
        lines[40:40] = [lines[7], "3\t9\n"]
        arcs[40:40] = [(3, 9, 1)]
        facts = [P.Fact("arc", arc) for arc in arcs]
        rules.write_text(SCAN_RULES.replace("a0", "0"))
        path = tmp_path / "arcs.tsv"
        path.write_text("".join(lines))
        argv = ["run", str(rules), "--facts", str(path)]
    else:
        lines, facts = SCAN_LINES, [_fact(line) for line in SCAN_LINES]
        if where == "dl":
            rules.write_text(SCAN_RULES)
            path = tmp_path / "facts.dl"
            path.write_text("".join(lines))
            argv = ["run", str(rules), "--facts", str(path)]
        else:
            rules.write_text(SCAN_RULES + "".join(lines))
            argv = ["run", str(rules)]
    program = P.parse_program(rules.read_text())
    if where != "program":
        program = program.with_runs(parser.read_facts_path(str(path)))
    # Program.facts keeps every fact in file order, repeats included (an edge
    # list's repeated row is loaded once), and prints as it is written.
    assert list(program.facts) == facts
    if where != "tsv":
        assert P.format_program(program) == "".join(lines) + P.format_program(
            P.parse_program(SCAN_RULES)
        )
    resident = _resident_stores(monkeypatch, argv)
    reference = facts_to_interp(program.facts)
    assert set(reference) == ({"arc"} if where == "tsv" else {"arc", "node", "w"})
    for p, rel in reference.items():
        assert resident[p] == list(engine.RelationStore(rel).tuples)
    capsys.readouterr()
