#!/usr/bin/env python3
"""Print every push decision on the generated benchmark corpus, one per line.

For each seed, the 96 programs of `perfbench/corpus.generated_programs` are
planned (`premlog.rewrite.plan`), and so are the corpus's fixture programs,
under the seed `fixture`. Each count/sum obligation and each final
constraint gets one line:

    seed  program  rule  action  reason  [oracle]

The action is `pushed`, `kept` or `skipped` (an obligation is `pushed` when
its aggregate runs natively inside the recursion, else `kept`), and the
reason is the text `premlog check` prints for it. A pushed line ends with
whether `run_program` gives `brute_force_oracle`'s relations for every final
predicate: `oracle=equal`, `oracle=DIFFERS on P, ...`, or `oracle=unverified`
when either side stops on its tuple budget. The last line counts the
actions and the pushes that differ; the exit code is 1 if any does.

    python3 scripts/verdict_table.py --seeds 1-11

perfbench is only imported.
"""
from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS_PER_SEED = 96
BUDGET = 200_000  # tuples, for the run and the oracle alike


def parse_seeds(text: str) -> List[int]:
    """'1-5' or '1,3,7' (or a mix, '1-3,9') as a list of seeds."""
    seeds: List[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def programs(seeds: List[int]) -> Iterator[Tuple[str, str, str]]:
    """(seed label, program label, program text): the fixtures, then the seeds."""
    import corpus

    seen = set()
    for name, text, *_ in corpus.VERDICT_FIXTURES + corpus.VERIFY_FIXTURES:
        if text not in seen:
            seen.add(text)
            yield "fixture", name, text
    for seed in seeds:
        for i, text in enumerate(corpus.generated_programs(random.Random(seed), PROGRAMS_PER_SEED)):
            yield str(seed), f"#{i}", text


def oracle_check(program, planned) -> str:
    """Whether the planned run gives the oracle's final relations."""
    from premlog import BudgetExceeded, EvalOptions, PremlogError, brute_force_oracle
    from premlog.engine import execute
    from premlog.model import final_rules

    options = EvalOptions(max_tuples=BUDGET)
    try:
        want = brute_force_oracle(program, options)
        got = execute(planned, options).db
    except BudgetExceeded:
        return "oracle=unverified"
    except PremlogError as exc:
        return f"oracle=ERROR {exc}"
    finals = sorted({r.head.predicate for r in final_rules(program.rules)})
    differ = [p for p in finals if got.get(p, set()) != want.get(p, set())]
    return f"oracle=DIFFERS on {', '.join(differ)}" if differ else "oracle=equal"


def decisions(planned) -> Iterator[Tuple[str, str, str, bool]]:
    """(rule, action, reason, pushed) per obligation and final constraint."""
    from premlog import PremVerdict

    for ob in planned.obligations:
        verdict = ob.verdict
        if ob.approved:
            reason = "; ".join(j for _, j in verdict.plan)
        elif verdict is not None:
            reason = f"{verdict.rejection!r} (rule {verdict.rejection.rule_id})"
        else:
            reason = ob.reason
        yield ob.rule_id, "pushed" if ob.approved else "kept", f"{ob.kind} in recursion: {reason}", ob.approved
    for step in planned.steps:
        verdict = step.verdict
        if not isinstance(verdict, PremVerdict):
            reason = str(verdict)
        elif step.action == "skipped":
            reason = "the recursion already carries a working extremum"
        elif verdict.approved:
            reason = "; ".join(j for _, j in verdict.plan)
        else:
            reason = f"{verdict.rejection!r} (rule {verdict.rejection.rule_id})"
        yield step.rule_id, step.action, reason, step.action == "pushed"


def table(seeds: List[int]) -> Tuple[List[str], Counter]:
    from premlog import parse_program
    from premlog.rewrite import plan

    lines: List[str] = []
    counts: Counter = Counter()
    for seed, name, text in programs(seeds):
        program = parse_program(text)
        planned = plan(program)
        check = None
        for rule, action, reason, pushed in decisions(planned):
            counts[action] += 1
            line = f"{seed}  {name}  {rule}  {action}  {reason}"
            if pushed:
                if check is None:
                    check = oracle_check(program, planned)
                counts[check.split(" ")[0]] += 1
                line += f"  {check}"
            lines.append(line)
    return lines, counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-11", help="corpus seeds, e.g. 1-11 or 1,3,7")
    args = ap.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    lines, counts = table(parse_seeds(args.seeds))
    print("\n".join(lines))
    print("  ".join(f"{key}: {n}" for key, n in sorted(counts.items())))
    bad = sum(n for key, n in counts.items() if key in ("oracle=DIFFERS", "oracle=ERROR"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
