"""Command line interface: subcommands, formats, exit codes."""
from __future__ import annotations

import gc
import json
import random
import re

import pytest

import premlog as P
import premlog.analysis as analysis_module
import premlog.cli as cli_module
import premlog.parser as parser_module
from premlog.bench import SPATH_PREM_TEMPLATE, dijkstra_reference
from premlog.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_REJECTED, main

from conftest import (
    BOUNDED_PATH,
    CAPPED_MAX,
    PART_EXPLOSION,
    PART_EXPLOSION_NOGUARD,
    SHORTEST_PATH,
    SPATH_MONOTONIC,
    SPATH_STRATIFIED,
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    return _write


# ===== run ====================================================================


def test_run_text_output(write, capsys):
    prog = write("spath.dl", SHORTEST_PATH)
    assert main(["run", prog]) == EXIT_OK
    out = capsys.readouterr().out
    assert "spath(b,1)" in out and "spath(c,2)" in out


def test_run_query_and_csv(write, capsys):
    prog = write("spath.dl", SHORTEST_PATH)
    assert main(["run", prog, "--query", "path", "--format", "csv"]) == EXIT_OK
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows == ["b,1", "c,2"]


def test_run_jsonl(write, capsys):
    prog = write("spath.dl", SHORTEST_PATH)
    assert main(["run", prog, "--format", "jsonl"]) == EXIT_OK
    rows = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert {"predicate": "spath", "args": ["b", 1]} in rows


def test_run_prints_integers_before_symbols_in_a_mixed_column(write, capsys):
    # The natural order raises where an int meets a str; the answers are
    # then sorted by tuple_sort_key, integers first in every column.
    text = "r1: q(X,Y) :- p(X,Y).\np(b,2). p(10,x). p(a,1). p(9,y). p(a,c). p(a,-1). p(b,z).\n"
    prog = write("mixed.dl", text)
    expected = ["q(9,y).", "q(10,x).", "q(a,-1).", "q(a,1).", "q(a,c).", "q(b,2).", "q(b,z)."]
    assert main(["run", prog]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == expected
    assert main(["run", prog, "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [line[2:-2] for line in expected]
    result = P.run_program(P.parse_program(text))
    assert [f"q({','.join(map(str, t))})." for t in result.answers("q")] == expected
    with pytest.raises(TypeError):
        sorted(result.db["q"])


RULES_ONLY = "\n".join(SHORTEST_PATH.strip().splitlines()[:-1])


def test_run_of_facts_alone_prints_nothing(write, capsys):
    # No rule, so no default query and no answers to print.
    assert main(["run", write("facts.dl", "e(a,b). e(b,c).\n")]) == EXIT_OK
    assert capsys.readouterr() == ("", "")


def test_run_separate_facts_file(write, capsys):
    rules = write("rules.dl", RULES_ONLY)
    facts = write("facts.dl", "arc(a,b,1). arc(b,c,1). arc(a,c,5).")
    assert main(["run", rules, "--facts", facts]) == EXIT_OK
    assert "spath(c,2)" in capsys.readouterr().out


def test_run_edge_list_facts(write, tmp_path, capsys):
    rules = write("rules.dl", RULES_ONLY)
    tsv = tmp_path / "g.tsv"
    tsv.write_text("a\tb\t1\nb\tc\t1\na\tc\t5\n")
    assert main(["run", rules, "--facts", str(tsv)]) == EXIT_OK
    assert "spath(c,2)" in capsys.readouterr().out


BOM = "\ufeff"  # a UTF-8 byte order mark, which some editors write first


def test_run_program_file_with_bom(write, capsys):
    prog = write("spath.dl", BOM + SHORTEST_PATH)
    assert main(["run", prog]) == EXIT_OK
    assert "spath(c,2)" in capsys.readouterr().out


def test_run_fact_file_with_bom(write, capsys):
    rules = write("rules.dl", RULES_ONLY)
    facts = write("facts.dl", BOM + "arc(a,b,1). arc(b,c,1). arc(a,c,5).\n")
    assert main(["run", rules, "--facts", facts]) == EXIT_OK
    assert "spath(c,2)" in capsys.readouterr().out


@pytest.mark.parametrize("name, text", [("g.tsv", "a\tb\t1\nb\tc\t1\n"), ("g.csv", "a,b,1\nb,c,1\n")])
def test_run_edge_list_with_bom(write, capsys, name, text):
    rules = write("rules.dl", RULES_ONLY)
    facts = write(name, BOM + text)
    assert main(["run", rules, "--facts", facts]) == EXIT_OK
    assert capsys.readouterr().out == "spath(b,1).\nspath(c,2).\n"


def test_one_graph_per_program_version(write, tmp_path, capsys, monkeypatch):
    builds = []
    real = analysis_module.build_dependency_graph

    def counted(rules):
        builds.append(rules)
        return real(rules)

    monkeypatch.setattr(analysis_module, "build_dependency_graph", counted)
    monkeypatch.setattr(parser_module, "build_dependency_graph", counted)
    # check: the parsed program's graph serves compile, classification and push.
    assert main(["check", write("spath.dl", SHORTEST_PATH)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("APPROVED: ")
    assert len(builds) == 1
    # run: the edge list's facts join the parsed program and keep its graph;
    # the pushed program, which is stratified, has a graph of its own.
    tsv = tmp_path / "g.tsv"
    tsv.write_text("a\tb\t1\nb\tc\t1\na\tc\t5\n")
    assert main(["run", write("rules.dl", RULES_ONLY), "--facts", str(tsv)]) == EXIT_OK
    assert capsys.readouterr().out == "spath(b,1).\nspath(c,2).\n"
    assert len(builds) == 3


def test_run_stats_line(write, capsys):
    prog = write("spath.dl", SHORTEST_PATH)
    assert main(["run", prog, "--stats"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "derived" in err and "iterations" in err


def _without_wall_ms(err):
    return re.sub(r" wall_ms=[0-9.]+", "", err)


def test_run_stats_same_bytes_for_dl_and_tsv_facts(write, capsys):
    # A cyclic graph with symbolic node ids, so set order follows string hashes.
    rng = random.Random(5)
    arcs = [(f"n{i}", f"n{j}", rng.randint(1, 20)) for i in range(40) for j in rng.sample(range(40), 4)]
    prog = write("spath.dl", SPATH_PREM_TEMPLATE.format(src="n0"))
    files = [
        write("g.dl", "".join(f"arc({u},{v},{w}).\n" for u, v, w in arcs)),
        write("g.tsv", "".join(f"{u}\t{v}\t{w}\n" for u, v, w in arcs)),
        # two facts per line: read by the program parser, not the line reader
        write("g2.dl", "".join(f"arc({u},{v},{w}). " for u, v, w in arcs)),
    ]
    seen = []
    for facts in files:
        assert main(["run", prog, "--facts", facts, "--stats"]) == EXIT_OK
        captured = capsys.readouterr()
        seen.append((captured.out, _without_wall_ms(captured.err)))
    best = dijkstra_reference(arcs, "n0")
    assert seen[0][0] == "".join(f"spath_prem({v},{best[v]}).\n" for v in sorted(best))
    assert "derived=" in seen[0][1]
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_main_calls_share_no_state(write, capsys):
    rules = write("rules.dl", RULES_ONLY)
    first = write("a.dl", "arc(a,b,1).\n")
    second = write("b.dl", "arc(a,c,2).\n")
    assert main(["run", rules, "--facts", first, "--query", "path"]) == EXIT_OK
    assert capsys.readouterr().out == "path(b,1).\n"
    assert main(["run", rules, "--facts", second]) == EXIT_OK
    assert capsys.readouterr().out == "spath(c,2).\n"
    assert main(["run", rules]) == EXIT_OK
    assert capsys.readouterr().out == ""


# ===== the cyclic collector ===================================================


@pytest.fixture
def collector():
    """Starts a test with the collector on and gives the test's caller its setting back."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if enabled else gc.disable)()


# One command per exit code: 0, 1 (a parse error), 2 (a tuple budget), 3 (a rejected check).
EXIT_CASES = [
    (EXIT_OK, "run", SHORTEST_PATH, []),
    (EXIT_INPUT, "run", "q(X) :- e(X), X.\n", []),
    (EXIT_BUDGET, "run", "r1: p(Y) :- a(Y).\nr2: p(Z) :- p(Y), Z=Y+1.\na(0).\n", ["--max-tuples", "50"]),
    (EXIT_REJECTED, "check", CAPPED_MAX, []),
]


def test_a_command_runs_with_the_collector_paused(write, capsys, monkeypatch, collector):
    seen = []

    def load(args):
        seen.append(gc.isenabled())
        return P.parse_program("")

    monkeypatch.setattr(cli_module, "_load_program", load)
    assert main(["check", write("empty.dl", "")]) == EXIT_OK
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("code, command, text, extra", EXIT_CASES, ids=["ok", "input", "budget", "rejected"])
def test_the_collector_comes_back_on_every_exit_code(write, capsys, collector, code, command, text, extra):
    assert main([command, write("p.dl", text), *extra]) == code
    assert gc.isenabled()


def test_the_collector_comes_back_when_an_exception_escapes(write, monkeypatch, collector):
    def load(args):
        raise RuntimeError("not a premlog error")

    monkeypatch.setattr(cli_module, "_load_program", load)
    with pytest.raises(RuntimeError):
        main(["check", write("empty.dl", "")])
    assert gc.isenabled()


def test_a_caller_that_paused_the_collector_finds_it_paused(write, capsys, collector):
    gc.disable()
    for code, command, text, extra in EXIT_CASES:
        assert main([command, write("p.dl", text), *extra]) == code
        assert not gc.isenabled()


def test_run_missing_file_is_input_error(capsys):
    assert main(["run", "/nonexistent/prog.dl"]) == EXIT_INPUT


LIMIT = 4300  # the digits int() converts by default (sys.get_int_max_str_digits)


def test_run_long_literal_in_fact_line_is_input_error(write, capsys):
    prog = write("big.dl", "r1: q(X) :- p(X).\np(" + "1" * 5000 + ").\n")
    assert main(["run", prog]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: line 2, col 3: integer literal of 5000 digits exceeds the limit of {LIMIT}\n"
    )
    prog = write("long.dl", "r1: q(X) :- p(X).\np(" + "1" * LIMIT + ").\n")
    assert main(["run", prog]) == EXIT_OK
    assert capsys.readouterr().out == "q(" + "1" * LIMIT + ").\n"


def test_run_long_literal_in_rule_is_input_error(write, capsys):
    prog = write("big.dl", "p(1).\nr1: q(X) :- p(X), X > " + "1" * 5000 + ".\n")
    assert main(["run", prog]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: line 2, col 23: integer literal of 5000 digits exceeds the limit of {LIMIT}\n"
    )
    prog = write("long.dl", "p(1).\nr1: q(X) :- p(X), X < " + "1" * LIMIT + ".\n")
    assert main(["run", prog]) == EXIT_OK
    assert capsys.readouterr().out == "q(1).\n"


def test_run_long_integer_in_edge_list_is_input_error(write, capsys):
    prog = write("q.dl", "r1: q(X,Y) :- arc(X,Y,D).\n")
    too_long = f"integer literal of 5000 digits exceeds the limit of {LIMIT}\n"
    for row in ("1" * 5000 + "\tb\t1", "a\t" + "1" * 5000, "a\tb\t" + "1" * 5000):
        facts = write("long.tsv", "a\tb\t2\n" + row + "\n")
        assert main(["run", prog, "--facts", facts]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: line 2: " + too_long
    # int() refuses a long field that is no integer with the same error: a symbol
    facts = write("long.tsv", "1" * 5000 + "x\t" + "2" * LIMIT + "\n")
    assert main(["run", prog, "--facts", facts, "--format", "jsonl"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)
    assert row["args"] == ["1" * 5000 + "x", int("2" * LIMIT)]


def test_run_budget_exhaustion_exit_code(write, capsys):
    cyclic = (
        "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
        "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.\n"
        "arc(a,b,1). arc(b,a,1).\n"
    )
    prog = write("cyclic.dl", cyclic)
    assert main(["run", prog, "--max-tuples", "400"]) == EXIT_BUDGET


# Three strata, one tuple per fact in each.
CHAIN = "r1: p(X) :- e(X).\nr2: q(X) :- p(X).\nr3: s(X) :- q(X).\ne(a). e(b). e(c).\n"


@pytest.mark.parametrize(
    "mode, stats",
    [("seminaive", "iterations=5 derived=8 retained=7"), ("naive", "iterations=3 derived=8 retained=3")],
)
def test_a_later_stratum_stops_on_the_budget_the_run_was_given(write, capsys, mode, stats):
    prog = write("chain.dl", CHAIN)
    assert main(["run", prog, "--max-tuples", "7", "--stats", "--mode", mode]) == EXIT_BUDGET
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "budget exceeded: tuple budget of 7 exhausted"
    assert err[1].startswith(f"# {stats} deleted=0 wall_ms=")


@pytest.mark.parametrize("mode, derived", [("seminaive", 3), ("naive", 4)])
def test_run_iteration_budget_exit_code(write, capsys, mode, derived):
    prog = write("spath.dl", SPATH_STRATIFIED)
    assert main(["run", prog, "--max-iterations", "2", "--mode", mode]) == EXIT_BUDGET
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "budget exceeded: iteration budget of 2 exhausted"
    assert err[1].startswith(f"# iterations=3 derived={derived} retained=3 deleted=0 ")


# A number below its option's range is bad input, refused by the command
# before anything runs: argparse's exit 2 would read as a budget stop.
PATHS = (
    "r1: path(Y,D) :- arc(a,Y,D).\n"
    "r2: path(Y,D) :- path(X,Dx), arc(X,Y,W), D=Dx+W, D>Dx.\n"
    "r3: spath(Y,D) :- path(Y,D), is_min((Y),(D)).\n"
    "arc(a,b,1). arc(b,c,2). arc(a,c,5).\n"
)


def test_run_refuses_a_negative_tuple_budget(write, capsys):
    prog = write("paths.dl", PATHS)
    assert main(["run", prog, "--max-tuples", "-5", "--stats"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: --max-tuples must be at least 0, got -5\n")
    assert main(["run", prog, "--max-tuples", "0"]) == EXIT_BUDGET
    assert capsys.readouterr().err.splitlines()[0] == "budget exceeded: tuple budget of 0 exhausted"


def test_run_refuses_a_negative_iteration_budget(write, capsys):
    prog = write("paths.dl", PATHS)
    assert main(["run", prog, "--max-iterations", "-1", "--stats"]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: --max-iterations must be at least 0, got -1\n")
    assert main(["run", prog, "--max-iterations", "0"]) == EXIT_BUDGET
    assert capsys.readouterr().err.splitlines()[0] == "budget exceeded: iteration budget of 0 exhausted"


def test_run_refuses_unapproved_sum(write, capsys):
    prog = write("parts.dl", PART_EXPLOSION_NOGUARD)
    assert main(["run", prog]) == EXIT_REJECTED
    err = capsys.readouterr().err
    assert "rejected" in err and "--trust-but-verify" in err


def test_run_trust_but_verify_audits(write, capsys):
    prog = write("parts.dl", PART_EXPLOSION_NOGUARD)
    assert main(["run", prog, "--trust-but-verify"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "finalcost(fleet,405)" in captured.out
    assert "audit" in captured.err


@pytest.mark.parametrize("mode", ["seminaive", "naive"])
def test_run_trust_but_verify_reports_a_non_positive_summand(write, capsys, mode):
    negative_seat = PART_EXPLOSION_NOGUARD.replace("basic(seat,5)", "basic(seat,-5)")
    prog = write("parts.dl", negative_seat)
    assert main(["run", prog, "--trust-but-verify", "--mode", mode]) == EXIT_OK
    captured = capsys.readouterr()
    assert "finalcost(fleet,390)" in captured.out
    audits = [line for line in captured.err.splitlines() if line.startswith("audit: ")]
    assert audits == [
        "audit: rule r2: non-positive summand -5 for key ('bike',)",
        "audit: rule r2 sum transfer sampled: no counterexample found",
    ]


def test_run_approved_sum_runs_natively(write, capsys):
    prog = write("parts.dl", PART_EXPLOSION)
    assert main(["run", prog]) == EXIT_OK
    assert "finalcost(fleet,405)" in capsys.readouterr().out


# r1's count reads its own recursion through q and r, which carry no cost.
NO_COST_COUNT = (
    "r1: p(X,C) :- e(X,Y), q(Y,D), count((X),(Y),C).\n"
    "r2: q(X,D) :- r(X,D).\n"
    "r3: r(X,D) :- p(X,D).\n"
)
NO_COST = "no cost argument found for q, r"


def test_count_without_cost_path_is_rejected_not_bad_input(write, capsys):
    prog = write("nocost.dl", NO_COST_COUNT)
    assert main(["check", prog]) == EXIT_REJECTED
    captured = capsys.readouterr()
    assert captured.out == f"REJECTED: rule r1 count in recursion: {NO_COST}\n"
    assert captured.err == ""
    assert main(["run", prog]) == EXIT_REJECTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: rule r1 uses count inside its own recursion and the max transfer was "
        f"rejected ({NO_COST}). The fixpoint may be wrong or diverge. Stratify the "
        f"program, or rerun with --trust-but-verify to execute it anyway under audit.\n"
    )
    assert main(["optimize", prog]) == EXIT_REJECTED
    assert capsys.readouterr().err == "warning: rule r1 count left unproven\n"


def test_count_without_cost_path_runs_under_audit(write, capsys):
    prog = write("nocost.dl", NO_COST_COUNT)
    assert main(["run", prog, "--trust-but-verify"]) == EXIT_OK
    trust = "running unproven aggregate under trust-but-verify"
    assert capsys.readouterr().err == (
        f"warning: rule r1: recursive count is not provably safe ({NO_COST}); "
        f"results may be wrong if run anyway\n"
        f"warning: {trust}\n"
    )


def test_verify_names_the_unclassified_obligation(write, capsys):
    prog = write("nocost.dl", NO_COST_COUNT)
    assert main(["verify", prog]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: no constraint to verify: rule r1 count in recursion: {NO_COST}\n"
    )


def test_runtime_nonpositive_summand_is_reported_once(write, capsys):
    prog = write("parts.dl", PART_EXPLOSION_NOGUARD.replace("basic(seat,5)", "basic(seat,-5)"))
    assert main(["run", prog, "--trust-but-verify"]) == EXIT_OK
    reason = "not inflation-preserving: summand CQ is not provably positive"
    assert capsys.readouterr().err == (
        f"warning: rule r2: recursive sum is not provably safe ({reason}); "
        f"results may be wrong if run anyway\n"
        f"warning: rule r2: summand CQ is not provably positive; non-positive "
        f"contributions are dropped by the expansion\n"
        f"warning: running unproven aggregate under trust-but-verify\n"
        f"audit: rule r2: non-positive summand -5 for key ('bike',)\n"
        f"audit: rule r2 sum transfer sampled: no counterexample found\n"
    )


def test_diverging_oracle_leaves_the_run_unverified(write, capsys):
    # the unpushed recursion the oracle evaluates never ends on a cycle
    prog = write("spath.dl", SPATH_STRATIFIED)
    assert main(["run", prog, "--trust-but-verify", "--max-tuples", "500"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "spath(a,3).\nspath(b,1).\nspath(c,5).\n"
    assert captured.err == (
        "audit: oracle stopped (tuple budget of 500 exhausted); answers not verified\n"
    )
    # a native run over its budget still fails
    assert main(["run", prog, "--trust-but-verify", "--max-tuples", "3"]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded: tuple budget of 3 exhausted\n")


def test_the_oracle_keeps_one_tuple_budget_across_its_strata(write, capsys):
    # The native run derives 9 tuples; the oracle's naive sweeps derive 18.
    prog = write("chain.dl", CHAIN)
    assert main(["run", prog, "--trust-but-verify", "--max-tuples", "10"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == "s(a).\ns(b).\ns(c).\n"
    assert captured.err == "audit: oracle stopped (tuple budget of 10 exhausted); answers not verified\n"


@pytest.mark.parametrize(
    "text, message, facts_only",
    [
        ("arc(a,b,1).\narc(a,b).\n", "line 2: arc used with arity 2, earlier 3", True),
        ("r1: arc(a,b).\n", "line 1: facts take no label", True),
        ("p(X) :- arc(X,Y).\n\narc(a,b,c).\n", "line 3: arc used with arity 3, earlier 2", False),
        ("arc(a,b,1).\narc(a,b,,1).\n", "line 2, col 9: expected a term", True),
        # a digit that int() rejects is no digit to the lexer
        ("p(\u00b2).\n", "line 1, col 3: unexpected character '\u00b2'", True),
        ("q(X) :- p(X), X > \u00b2.\n", "line 1, col 19: unexpected character '\u00b2'", False),
        ("p(min<X>).\n", "line 1: fact p carries an annotation", True),
        ("p(X,min<D>,max<E>) :- q(X,D,E).\n", "line 1: rule r1 carries several head annotations", False),
        (
            "p(X,D) :- e(X,D).\np(Y,min<D>) :- p(X,E), e(X,Y), D=E+1, is_min((Y),(D)).\n",
            "line 2: rule r2 has several extremum constraints",
            False,
        ),
        (
            "p(X,D) :- e(X,D).\np(Y,D) :- p(X,E), e(Y,F), D=E+F, is_min((Y),(F)).\n",
            "line 2: rule r2: measured variable F not in head",
            False,
        ),
        (
            "p(X,D) :- e(X,D).\np(X,D) :- p(Y,E), e(Y,X), D=E+1, is_min((),(D)).\n",
            "line 2: rule r2: group [] must match the other head variables ['X']",
            False,
        ),
        ("q(G,C,S) :- e(G,Y), count((G),(Y),C), sum((G),(Y),S).\n", "line 1: rule r1 has several aggregates", False),
        ("q(G,C) :- e(G,Y), count((G),(),C).\n", "line 1, col 19: count needs at least one measured variable", False),
        ("q(X) :- e(X), X.\n", "line 1, col 16: expected a comparison operator", False),
        ("r1: p(X) :- q(X).\nr1: p(X) :- s(X).\n", "line 2: duplicate rule label r1", False),
    ],
)
def test_parse_errors_name_the_line_and_a_known_column(write, capsys, text, message, facts_only):
    prog = write("bad.dl", text)
    for command in ("run", "check"):
        assert main([command, prog]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {message}\n")
    if facts_only:  # the same text as a --facts file
        facts = write("bad_facts.dl", text)
        assert main(["run", write("empty.dl", ""), "--facts", facts]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"


# After its count a rule sees only the group and the result: a comparison
# that reads Y, or a negation that reads the result, is an error at parse in
# every command (check and optimize approved both, and run then stopped).
COUNT_ITEMS = "r1: big(G,C) :- item(G,Y), count((G),(Y),C), {}.\nitem(a,1). item(a,2). item(b,5).\nbad(a,2).\n"


@pytest.mark.parametrize(
    "goals, message",
    [
        ("C > 1, Y > C", "variable Y in comparison is not bound after the count, which binds only its group and result"),
        ("not bad(G,C)", "variable C in negation is not bound: only a comparison may read the count result"),
    ],
)
@pytest.mark.parametrize("command", [["check"], ["optimize"], ["verify"], ["run"], ["run", "--mode", "naive"]])
def test_a_count_rule_reads_only_its_group_and_result(write, capsys, goals, message, command):
    prog = write("count.dl", COUNT_ITEMS.format(goals))
    assert main([*command, prog]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: line 1: rule r1: {message}\n")


@pytest.mark.parametrize("command", ["run", "check"])
def test_facts_file_arity_conflict_names_the_file(write, tmp_path, capsys, command):
    # Once an IndexError from the generated rule code (.dl) and a silent
    # p(a). (.tsv): a --facts file must use each predicate at the program's arity.
    rules = write("p.dl", "r1: p(X,Z) :- arc(X,Y,Z).\n")
    facts = write("f.dl", "arc(a,b).\n")
    assert main([command, rules, "--facts", facts]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {facts}: arc used with arity 2, earlier 3\n")
    rules = write("q.dl", "r1: p(X) :- arc(X,Y).\n")
    tsv = tmp_path / "g.tsv"
    tsv.write_text("a b 1\n")
    assert main([command, rules, "--facts", str(tsv)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {tsv}: arc used with arity 3, earlier 2\n")


def test_facts_files_are_checked_against_each_other(write, capsys):
    rules = write("p.dl", "r1: p(X) :- q(X).\n")
    first = write("a.dl", "q(a).\nw(a,1).\n")
    second = write("b.dl", "w(b).\n")
    assert main(["run", rules, "--facts", first, "--facts", second]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {second}: w used with arity 1, earlier 2\n")
    assert main(["run", rules, "--facts", first, "--facts", write("c.dl", "w(b,2).\nq(b).\n")]) == EXIT_OK
    assert capsys.readouterr().out == "p(a).\np(b).\n"


# A final constraint whose classification raises: r2 feeds p's cost from two
# of p's arguments. check rejects it, optimize leaves it in place, and run
# evaluates it stratified.
AMBIGUOUS_COST = (
    "r1: p(Y,D) :- e(0,Y,D).\n"
    "r2: p(Y,D) :- p(X,Dx), e(X,Y,W), D=Dx+X+W.\n"
    "r3: s(Y,D) :- p(Y,D), is_min((Y),(D)).\n"
    "e(0,1,2). e(1,2,3).\n"
)
AMBIGUOUS_REASON = "rule r2: several arguments of p feed the cost of p"


def test_unclassifiable_constraint_in_each_subcommand(write, capsys):
    prog = write("ambiguous.dl", AMBIGUOUS_COST)
    assert main(["check", prog]) == EXIT_REJECTED
    assert capsys.readouterr() == (f"REJECTED: {AMBIGUOUS_REASON}\n", "")
    assert main(["optimize", prog]) == EXIT_REJECTED
    assert capsys.readouterr() == (
        "e(0,1,2).\n"
        "e(1,2,3).\n"
        "r1: p(Y,D) :- e(0,Y,D).\n"
        "r2: p(Y,D) :- p(X,Dx), e(X,Y,W), D=(Dx+X)+W.\n"
        "r3: s(Y,D) :- p(Y,D), is_min((Y),(D)).\n",
        f"warning: constraint not pushed: {AMBIGUOUS_REASON}\n",
    )
    assert main(["run", prog]) == EXIT_OK
    assert capsys.readouterr() == (
        "s(1,2).\ns(2,6).\n",
        f"warning: constraint on rule r3 not pushed: {AMBIGUOUS_REASON}\n",
    )


# The party cascade with the guard N<=2 (perfbench/corpus.py, seed 1, program
# 35): the count is not inflation-preserving, and the trusted native run
# disagrees with the oracle.
PARTY_CAPPED = """
r1: attend(X) :- organizer(X).
r2: attend(X) :- cnt(X,N), N<=2.
r3: cnt(Y,N) :- attend(X), friend(Y,X), count((Y),(X),N).
r4: fc(Y,N) :- cnt(Y,N).
organizer(o0). organizer(o1). organizer(o2).
friend(j0,o0). friend(j0,o1). friend(j0,o2). friend(j0,x2).
friend(j1,j0). friend(j1,o0). friend(j1,o1). friend(j1,x1).
friend(j2,j0). friend(j2,j1). friend(j2,o2). friend(j2,x0).
friend(x0,j1). friend(x0,o2). friend(x0,x1). friend(x0,x2).
friend(x1,j0). friend(x1,j1). friend(x1,x0). friend(x1,x2).
friend(x2,o1). friend(x2,o2). friend(x2,x0). friend(x2,x1).
"""


def test_trust_but_verify_disagreeing_with_the_oracle_exits_rejected(write, capsys):
    prog = write("party.dl", PARTY_CAPPED)
    assert main(["run", prog, "--trust-but-verify"]) == EXIT_REJECTED
    captured = capsys.readouterr()
    assert captured.out == "fc(j0,4).\nfc(j1,2).\nfc(j2,3).\nfc(x0,3).\nfc(x1,3).\nfc(x2,3).\n"
    assert captured.err == (
        "warning: rule r3: recursive count is not provably safe (not inflation-preserving: "
        "guard N__u0 <= 2 caps N__u0 from above); results may be wrong if run anyway\n"
        "warning: running unproven aggregate under trust-but-verify\n"
        "audit: rule r3 count transfer sampled: counterexample after 4 samples\n"
        "audit: cnt disagrees with the oracle (5 missing, 5 unexpected)\n"
        "audit: fc disagrees with the oracle (5 missing, 5 unexpected)\n"
    )


def test_run_rejected_push_falls_back(write, capsys):
    prog = write("capped.dl", CAPPED_MAX)
    assert main(["run", prog]) == EXIT_OK
    captured = capsys.readouterr()
    assert "topp(12)" in captured.out


def test_run_force_push_changes_answer(write, capsys):
    prog = write("capped.dl", CAPPED_MAX)
    assert main(["run", prog, "--force-push"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "topp(5)" in captured.out


# ===== check ==================================================================


def test_check_approved(write, capsys):
    prog = write("bounded.dl", BOUNDED_PATH)
    assert main(["check", prog]) == EXIT_OK
    assert "APPROVED" in capsys.readouterr().out


def test_check_rejected(write, capsys):
    prog = write("capped.dl", CAPPED_MAX)
    assert main(["check", prog]) == EXIT_REJECTED
    out = capsys.readouterr().out
    assert "REJECTED" in out and "caps" in out


# Each rejection quotes the property its conjunct needs: a lower bound needs
# a descending mapping, a min needs deflation.
@pytest.mark.parametrize(
    "text, rejection",
    [
        (
            "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
            "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy.\n"
            "r3: far(Y,Dy) :- path(Y,Dy), Dy>5.\n",
            "cannot push lower(path: arg 1 > 5): not a descending mapping: "
            "head cost may exceed 5 when Dx <= 5 (rule r2)",
        ),
        (
            "p(2).\n"
            "r2: p(J1) :- p(J), J<=10, J>=2, J1=J+2.\n"
            "r3: lowp(J1) :- p(J1), is_min((),(J1)).\n",
            "cannot push min(p: group [], cost 0): not deflation-preserving: "
            "guard J >= 2 caps J from below (rule r2)",
        ),
    ],
    ids=["lower-bound", "min"],
)
def test_check_rejection_names_the_needed_property(write, capsys, text, rejection):
    prog = write("prog.dl", text)
    assert main(["check", prog]) == EXIT_REJECTED
    assert capsys.readouterr().out == f"REJECTED: {rejection}\n"


# A recursive body atom whose cost is a constant, or a variable that another
# recursive atom reads as its cost too: each is a cost of its own, pinned by
# an equality guard, so check rejects and run keeps the stratified answers.
COST_READ_TWICE = "r1: p(Y,D) :- e(a,Y,D).\nr2: p(Y,D) :- p(X,50), e(X,Y,W), D=W.\nr3: q(Y,D) :- p(Y,D), {}.\n"


@pytest.mark.parametrize(
    "text, rejection, answers",
    [
        (
            COST_READ_TWICE.format("D<25") + "e(a,b,50). e(b,c,3).\n",
            "upper(p: arg 1 < 25): not an ascending mapping: head cost may fall below 25 when p'1 >= 25",
            "q(c,3).\n",
        ),
        (
            COST_READ_TWICE.format("is_min((Y),(D))") + "e(a,b,50). e(a,b,10). e(b,c,3).\n",
            "min(p: group [0], cost 1): not deflation-preserving: guard p'1 = 50 pins p'1",
            "q(b,10).\nq(c,3).\n",
        ),
        (
            COST_READ_TWICE.format("is_min((Y),(D))").replace("p(X,50), e(X,Y,W), D=W", "p(c,D), p(b,D), f(Y)")
            + "e(a,b,5). e(a,b,3). e(a,c,5). f(z).\n",
            "min(p: group [0], cost 1): not deflation-preserving: guard p'2 = D pins D",
            "q(b,3).\nq(c,5).\nq(z,5).\n",
        ),
    ],
    ids=["constant-bound", "constant-min", "shared-min"],
)
def test_a_cost_read_as_a_constant_or_twice_is_not_pushed(write, capsys, text, rejection, answers):
    prog = write("prog.dl", text)
    assert main(["check", prog]) == EXIT_REJECTED
    assert capsys.readouterr().out == f"REJECTED: cannot push {rejection} (rule r2)\n"
    assert main(["run", prog]) == EXIT_OK
    assert capsys.readouterr() == (answers, f"warning: constraint kept in final rule: cannot push {rejection}\n")


def test_check_no_constraints(write, capsys):
    prog = write("plain.dl", "r1: p(X) :- q(X).\nq(a).")
    assert main(["check", prog]) == EXIT_OK
    assert "no pushable constraints" in capsys.readouterr().out


# ===== optimize ===============================================================


def test_optimize_prints_rewritten_program(write, capsys):
    from conftest import BOUNDED_PATH_PUSHED

    prog = write("bounded.dl", BOUNDED_PATH)
    assert main(["optimize", prog]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.strip() == BOUNDED_PATH_PUSHED.strip()
    assert captured.err.startswith("# pushed")


def test_optimize_leaves_working_extremum_alone(write, capsys):
    prog = write("mmin.dl", SPATH_MONOTONIC)
    assert main(["optimize", prog]) == EXIT_OK
    assert "path(Y,mmin<Dy>)" in capsys.readouterr().out


# A pushed min lands on an exit rule whose cost is a constant.
CONSTANT_EXIT_COST = """
r1: p(Y,1) :- e(a,Y).
r2: p(Y,D) :- p(X,Dx), e(X,Y), D=Dx+1.
r3: s(Y,D) :- p(Y,D), is_min((Y),(D)).
e(a,b). e(b,c). e(a,c). e(c,d).
"""


def test_optimize_output_parses_and_runs_to_the_same_answers(write, capsys):
    prog = write("const.dl", CONSTANT_EXIT_COST)
    assert main(["run", prog]) == EXIT_OK
    answers = capsys.readouterr().out
    assert answers == "s(b,1).\ns(c,1).\ns(d,2).\n"
    assert main(["optimize", prog]) == EXIT_OK
    optimized = capsys.readouterr().out
    assert "p(Y,C0) :- e(a,Y), C0=1, is_min((Y),(C0))." in optimized
    assert main(["run", write("optimized.dl", optimized), "--query", "s"]) == EXIT_OK
    assert capsys.readouterr().out == answers


# A negated goal, a unary minus on a variable, a parenthesized right operand,
# a comparison led by a constant and user-written int_up2 support rules.
PRINTER_SHAPES = """
r1: path(Y,D) :- arc(a,Y,W), a!=Y, not blocked(Y), D=-W+100.
r2: path(Y,D) :- path(X,Dx), arc(X,Y,W), W>=1, D=Dx-(W-1).
r3: out(Y,D) :- path(Y,D), is_max((Y),(D)).
int_up2(C,1) :- C>=1.
int_up2(C,J) :- int_up2(C,I), I<C, J=I+1.
arc(a,b,3). arc(b,c,2). arc(a,c,7). arc(a,d,1). arc(d,c,1). arc(a,a,4). blocked(d).
"""


def test_optimize_prints_every_goal_shape_so_that_it_reads_back(write, capsys):
    prog = write("shapes.dl", PRINTER_SHAPES)
    assert main(["run", prog]) == EXIT_OK
    answers = capsys.readouterr().out
    assert answers == "out(b,97).\nout(c,96).\n"
    assert main(["optimize", prog]) == EXIT_OK
    optimized = capsys.readouterr().out
    assert "r4: int_up2(C,1) :- C>=1.\n" in optimized
    assert "a!=Y, not blocked(Y), D=(0-W)+100, is_max((Y),(D))." in optimized
    assert "D=Dx-(W-1), is_max((Y),(D))." in optimized
    assert P.format_program(P.parse_program(optimized)) == optimized
    assert main(["run", write("optimized.dl", optimized), "--query", "out"]) == EXIT_OK
    assert capsys.readouterr().out == answers


# Edge-list nodes that the parser would read as something else: a variable,
# two tokens, an integer then an identifier, or a comment.
@pytest.mark.parametrize(
    "edges, value",
    [
        ("a\tN1\t3\nN1\tx-y\t2\n", "N1"),
        ("a\tx-y\t2\n", "x-y"),
        ("a\t1b\t2\n", "1b"),
        ("b\t_c\t2\na\tb%\t1\n", "_c"),
    ],
)
def test_optimize_refuses_a_fact_it_cannot_print_back(write, capsys, edges, value):
    prog = write("path.dl", "r1: path(Y,D) :- arc(a,Y,D).\nr2: path(Y,D) :- path(X,Dx), arc(X,Y,W), D=Dx+W, D<10.\n")
    facts = write("edges.tsv", edges)
    assert main(["optimize", prog, "--facts", facts]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: arc value {value!r} is not a constant the parser reads back\n")
    assert main(["run", prog, "--facts", facts]) == EXIT_OK  # run reads the same values as they are
    assert "path(" in capsys.readouterr().out


def test_optimize_prints_facts_the_parser_reads_back(write, capsys):
    prog = write("path.dl", "r1: path(Y,D) :- arc(a,Y,D).\n")
    facts = write("edges.tsv", "a\tb'c\t1\na\tz9_\t-2\na\t\u00e9t\u00e9\t3\n")
    assert main(["optimize", prog, "--facts", facts]) == EXIT_OK
    optimized = capsys.readouterr().out
    assert optimized == "arc(a,b'c,1).\narc(a,z9_,-2).\narc(a,\u00e9t\u00e9,3).\nr1: path(Y,D) :- arc(a,Y,D).\n"
    assert P.format_program(P.parse_program(optimized)) == optimized


def test_optimize_rejection_exit(write, capsys):
    prog = write("capped.dl", CAPPED_MAX)
    assert main(["optimize", prog]) == EXIT_REJECTED


def test_optimize_force_push(write, capsys):
    prog = write("capped.dl", CAPPED_MAX)
    assert main(["optimize", prog, "--force-push"]) == EXIT_OK
    assert "is_max" in capsys.readouterr().out


# ===== verify =================================================================


def test_verify_passes_on_pushable(write, capsys):
    prog = write("spath.dl", SHORTEST_PATH)
    assert main(["verify", prog, "--samples", "200"]) == EXIT_OK
    assert "PASSED" in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["-3", "0"])
def test_verify_refuses_fewer_than_one_sample(write, capsys, samples):
    prog = write("paths.dl", PATHS)
    assert main(["verify", prog, "--samples", samples]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: --samples must be at least 1, got {samples}\n")
    assert main(["verify", prog, "--samples", "1"]) == EXIT_OK
    assert capsys.readouterr().out == "PASSED: min(path: group [0], cost 1): no counterexample in 1 samples\n"


def test_verify_falsifies_c1(write, capsys):
    prog = write("capped.dl", CAPPED_MAX)
    assert main(["verify", prog, "--samples", "1000", "--seed", "0"]) == EXIT_REJECTED
    out = capsys.readouterr().out
    assert "FALSIFIED" in out and "counterexample" in out


# ===== bench ==================================================================


def test_bench_text(capsys):
    assert main(["bench", "--kind", "dag", "--n", "12", "--p", "0.4",
                 "--seed", "3", "--runs", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "spath_prem" in out and "variant" in out


def test_bench_csv(capsys):
    assert main(["bench", "--kind", "dag", "--n", "10", "--p", "0.4", "--seed", "1",
                 "--runs", "1", "--variants", "spath_prem", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("variant,")
    assert all(row.startswith("spath_prem,") for row in lines[1:])


def test_bench_facts_file(write, tmp_path, capsys):
    tsv = tmp_path / "g.tsv"
    tsv.write_text("a\tb\t1\nb\tc\t2\n")
    assert main(["bench", "--facts", str(tsv), "--runs", "1",
                 "--variants", "spath_prem"]) == EXIT_OK
    assert "spath_prem" in capsys.readouterr().out


def test_bench_refuses_lengths_out_of_order(capsys):
    argv = ["bench", "--n", "5", "--p", "0.5", "--runs", "1", "--min-length", "9", "--max-length", "3"]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: --min-length 9 exceeds --max-length 3\n")


@pytest.mark.parametrize(
    "option, value, least", [("--max-tuples", "-1", 0), ("--runs", "0", 1), ("--runs", "-2", 1)]
)
def test_bench_refuses_a_number_below_its_range(capsys, option, value, least):
    assert main(["bench", "--n", "5", "--p", "0.5", "--runs", "1", option, value]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {option} must be at least {least}, got {value}\n")


def test_sum_past_int_max_is_an_error(write, capsys):
    prog = write("sum.dl", (
        "r1: t(G,S) :- w(G,K,V), sum((G),(K,V),S).\n"
        "w(a,1,9223372036854775807). w(a,2,1).\n"
    ))
    for mode in ("seminaive", "naive"):
        assert main(["run", prog, "--mode", mode]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: integer 9223372036854775808 outside signed 64-bit range\n")
