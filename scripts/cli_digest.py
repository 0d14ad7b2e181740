#!/usr/bin/env python3
"""Print a SHA-256 over the CLI's output on the generated benchmark corpus.

For each seed, the 96 programs of `perfbench/corpus.generated_programs` are
run in-process through `premlog.cli.main` under ten commands: `check`,
`optimize`, `run --mode naive --stats`, `run --stats`,
`run --trust-but-verify --stats`, `verify --samples 100`,
`verify --samples 300 --seed 7` (several batches of the falsifier's
samples) and `run --stats --max-tuples 4` (a budget stop on most programs,
with its stats line) on the program as generated, and `run --stats --facts F` and
`optimize --facts F` on its rule lines (those holding `:-`) with the other
lines, its facts, in the fact file F (optimize prints those facts back).
The digest covers each command's exit code, stdout and stderr, with the
`wall_ms` of a stats line and the temporary directory masked. Two checkouts that print the
same digest gave byte-identical output on every invocation.

Before the total, one line per command gives the first 16 hex digits of a
SHA-256 over that command's invocations alone, then the command without its
paths, so a changed total points at the commands whose output changed. The
total hashes the same bytes in the same order as the per-command digests
together.

    python3 scripts/cli_digest.py --seeds 1-5

The script re-executes itself with PYTHONHASHSEED=0, so that the digest does
not depend on the hash seed. It still depends on the string hash itself:
sets of tuples that hold strings iterate in hash order, and that order moves
the `--stats` counts. Python 3.10 hashes strings with siphash24 and 3.11
with siphash13, so on the same checkout the two print different totals. The
line before the total names the interpreter and its hash, `python X.Y
<sys.hash_info.algorithm>`: compare two totals only when that line is the
same. perfbench is only imported.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ["check"],
    ["optimize"],
    ["run", "--mode", "naive", "--stats"],
    ["run", "--stats"],
    ["run", "--trust-but-verify", "--stats"],
    ["verify", "--samples", "100"],
    ["verify", "--samples", "300", "--seed", "7"],
    ["run", "--stats", "--max-tuples", "4"],
)
# Run on the rule lines, with the fact lines in a .dl file after --facts.
FACTS_COMMANDS = (["run", "--stats", "--facts"], ["optimize", "--facts"])
PROGRAMS_PER_SEED = 96
_WALL_MS = re.compile(r"wall_ms=[0-9.]+")


def parse_seeds(text: str) -> List[int]:
    """'1-5' or '1,3,7' (or a mix, '1-3,9') as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def digest(seeds: List[int]) -> Tuple[str, Dict[str, str]]:
    """The total digest, and a digest per command (keyed by its words)."""
    import premlog.cli
    import corpus

    h = hashlib.sha256()
    per_command = {" ".join(c): hashlib.sha256() for c in COMMANDS + FACTS_COMMANDS}

    def run(argv: List[str], command: List[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = premlog.cli.main(argv)
        for part in (str(code), out.getvalue(), err.getvalue()):
            part = _WALL_MS.sub("wall_ms=*", part.replace(tmp, "<tmp>"))
            data = part.encode("utf-8") + b"\0"
            h.update(data)
            per_command[" ".join(command)].update(data)

    with tempfile.TemporaryDirectory() as tmp:
        path, rules, facts = (os.path.join(tmp, f) for f in ("program.dl", "rules.dl", "facts.dl"))
        for seed in seeds:
            for text in corpus.generated_programs(random.Random(seed), PROGRAMS_PER_SEED):
                lines = text.splitlines(keepends=True)
                for name, part in (
                    (path, text),
                    (rules, "".join(line for line in lines if ":-" in line)),
                    (facts, "".join(line for line in lines if ":-" not in line)),
                ):
                    with open(name, "w", encoding="utf-8") as fh:
                        fh.write(part)
                for command in COMMANDS:
                    run([command[0], path, *command[1:]], command)
                for command in FACTS_COMMANDS:
                    run([command[0], rules, *command[1:], facts], command)
    return h.hexdigest(), {c: d.hexdigest() for c, d in per_command.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-5", help="corpus seeds, e.g. 1-5 or 1,3,7")
    args = ap.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]], env)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    total, per_command = digest(parse_seeds(args.seeds))
    for command, hexdigest in per_command.items():
        print(f"{hexdigest[:16]}  {command}")
    print(f"python {sys.version_info[0]}.{sys.version_info[1]} {sys.hash_info.algorithm}")
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
