"""Golden CLI output: exit code, stdout and stderr of every subcommand variant
on every program in conftest.py, frozen byte for byte in golden_cli.json.

The `wall_ms` stats line is dropped before comparing; nothing else is
normalized. Refreeze only when an output change is intended, and name each
changed case where the change is recorded:

    PYTHONPATH=src python tests/test_cli_golden.py --freeze
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile

import pytest

import conftest
import premlog as P
from premlog.cli import main
from premlog.engine import plan

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

# `run` gets a tuple budget so the unpushed oracle of trust-but-verify stops
# quickly on the cyclic programs instead of deriving ten million tuples.
BUDGET = ("--max-tuples", "20000")
VARIANTS = {
    "run": ("run", *BUDGET),
    "run --force-push": ("run", "--force-push", *BUDGET),
    "run --trust-but-verify": ("run", "--trust-but-verify", *BUDGET),
    "check": ("check",),
    "optimize": ("optimize",),
    "optimize --force-push": ("optimize", "--force-push"),
    "verify": ("verify", "--samples", "150", "--seed", "3"),
}

_WALL_MS_LINE = re.compile(r"^# iterations=.* wall_ms=[0-9.]+\n", re.M)


def golden_programs():
    """Every program constant in conftest.py, the party programs joined with
    the facts their tests use, and a few generated programs."""
    programs = {
        name: text
        for name, text in sorted(vars(conftest).items())
        if name.isupper() and isinstance(text, str) and P.parse_program(text).rules
    }
    programs["PARTY_GATED+CLIQUE_FACTS"] = conftest.PARTY_GATED + conftest.CLIQUE_FACTS
    programs["PARTY_UNGATED+CLIQUE_FACTS"] = conftest.PARTY_UNGATED + conftest.CLIQUE_FACTS
    programs["PARTY_COUNT+CASCADE_FACTS"] = conftest.PARTY_COUNT + conftest.CASCADE_FACTS
    for seed in range(6):
        programs[f"random_positive_program({seed})"] = conftest.random_positive_program(seed)
    return programs


def capture(text: str, argv) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "program.dl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
    return {"exit": code, "stdout": out.getvalue(), "stderr": _WALL_MS_LINE.sub("", err.getvalue())}


def _frozen():
    with open(GOLDEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_conftest_program():
    frozen = _frozen()
    assert sorted(frozen) == sorted(golden_programs())
    assert all(sorted(cases) == sorted(VARIANTS) for cases in frozen.values())


@pytest.mark.parametrize("name", sorted(golden_programs()))
def test_cli_output_matches_golden(name):
    text = golden_programs()[name]
    expected = _frozen()[name]
    for variant, argv in VARIANTS.items():
        assert capture(text, argv) == expected[variant], f"{variant} on {name}"


@pytest.mark.parametrize("name", sorted(golden_programs()))
def test_optimize_prints_what_run_executes(name):
    text = golden_programs()[name]
    program = P.parse_program(text)
    if not all(ob.approved for ob in plan(program).obligations):
        pytest.skip("run refuses unproven recursive count/sum")
    executed = P.run_program(program, P.EvalOptions(max_tuples=20000)).executed
    assert capture(text, ("optimize",))["stdout"] == P.format_program(executed)


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit(__doc__)
    frozen = {
        name: {variant: capture(text, argv) for variant, argv in VARIANTS.items()}
        for name, text in golden_programs().items()
    }
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
