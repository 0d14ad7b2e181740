"""Command line interface: subcommands, formats, exit codes."""
from __future__ import annotations

import json

import pytest

from premlog.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, EXIT_REJECTED, main

from conftest import (
    BOUNDED_PATH,
    CAPPED_MAX,
    PART_EXPLOSION,
    PART_EXPLOSION_NOGUARD,
    SHORTEST_PATH,
    SPATH_MONOTONIC,
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


RULES_ONLY = "\n".join(SHORTEST_PATH.strip().splitlines()[:-1])


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


def test_run_stats_line(write, capsys):
    prog = write("spath.dl", SHORTEST_PATH)
    assert main(["run", prog, "--stats"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "derived" in err and "iterations" in err


def test_run_missing_file_is_input_error(capsys):
    assert main(["run", "/nonexistent/prog.dl"]) == EXIT_INPUT


def test_run_budget_exhaustion_exit_code(write, capsys):
    cyclic = (
        "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
        "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.\n"
        "arc(a,b,1). arc(b,a,1).\n"
    )
    prog = write("cyclic.dl", cyclic)
    assert main(["run", prog, "--max-tuples", "400"]) == EXIT_BUDGET


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


def test_run_approved_sum_runs_natively(write, capsys):
    prog = write("parts.dl", PART_EXPLOSION)
    assert main(["run", prog]) == EXIT_OK
    assert "finalcost(fleet,405)" in capsys.readouterr().out


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
