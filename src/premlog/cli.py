"""Command line front end.

Subcommands: run (evaluate a program), check (report whether its constraints
can move inside the recursion), optimize (print the rewritten program),
verify (sample the transfer equation empirically), bench (time the
shortest-path variants on generated graphs).

run, check and optimize are views over one rewrite.plan(): run evaluates the
planned program, check prints the plan's verdicts, and optimize prints the
planned program, which is exactly what run executes.

Each command loads only the layers it runs: this module imports the parser,
the analysis and the rewrite, and a command imports the executor (run,
bench), the falsifier and oracle (verify, run --trust-but-verify) or the
benchmark itself, so check and optimize start without them.

A command runs with the cyclic garbage collector paused (main restores the
caller's setting however the command ends): its relations are flat tuples
that form no cycles, so collecting only rescans them. The library entry
points leave the collector to their caller.

Exit codes: 0 success, 1 bad input (a number below its option's range too),
2 budget exhausted, 3 a constraint or aggregate was rejected (or an audited
run disagreed with the oracle).
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import lru_cache
from typing import List, Optional

from .analysis import PremVerdict, constraint_from_annotations
from .errors import ArityConflict, BudgetExceeded, PremlogError
from .model import Program, format_value, tuple_sort_key
from .parser import format_program, parse_program, read_edge_list, read_facts_path
from .rewrite import plan

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_REJECTED = 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Relations are flat tuples that form no cycles: collecting only rescans them.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        if exc.stats is not None:
            print(_stats_line(exc.stats), file=sys.stderr)
        return EXIT_BUDGET
    except (PremlogError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if enabled:
            gc.enable()


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state between calls, and
    # callers that run main() many times (tests, benchmarks) skip the rebuild.
    parser = argparse.ArgumentParser(
        prog="premlog",
        description="Datalog with min/max/count/sum pushed into recursion when provably safe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate a program and print the query relation")
    _program_args(run)
    run.add_argument("--mode", choices=("naive", "seminaive"), default="seminaive")
    run.add_argument("--query", help="predicate to print (default: the final rule's head)")
    run.add_argument("--max-tuples", type=int, default=10_000_000)
    run.add_argument(
        "--max-iterations",
        type=int,
        default=None,
        help="iterations each stratum may run before the run stops (exit 2); "
        "in a greedy min/max stratum one iteration is one cost level",
    )
    run.add_argument("--seed", type=int, default=0, help="seed for audit sampling")
    run.add_argument("--stats", action="store_true", help="print evaluation counters to stderr")
    run.add_argument("--force-push", action="store_true", help="apply a rejected rewrite anyway")
    run.add_argument(
        "--trust-but-verify",
        action="store_true",
        help="run unproven recursive count/sum natively, then audit against the oracle",
    )
    run.add_argument("--format", choices=("text", "csv", "jsonl"), default="text")
    run.set_defaults(func=_cmd_run)

    check = sub.add_parser("check", help="classify every pushable constraint")
    _program_args(check)
    check.set_defaults(func=_cmd_check)

    opt = sub.add_parser("optimize", help="print the program after approved rewrites")
    _program_args(opt)
    opt.add_argument("--force-push", action="store_true")
    opt.set_defaults(func=_cmd_optimize)

    ver = sub.add_parser("verify", help="sample the transfer equation for a constraint")
    _program_args(ver)
    ver.add_argument("--samples", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="time the shortest-path variants")
    bench.add_argument("--kind", choices=("dag", "cyclic"), default="dag")
    bench.add_argument("--n", type=int, default=100)
    bench.add_argument("--p", type=float, default=0.1)
    bench.add_argument("--min-length", type=int, default=1)
    bench.add_argument("--max-length", type=int, default=100)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--facts", action="append", default=[], help="edge list file instead of a generated graph")
    bench.add_argument("--variants", default="spath,spath_prem,spath_mmin")
    bench.add_argument("--runs", type=int, default=5)
    bench.add_argument("--max-tuples", type=int, default=1_000_000)
    bench.add_argument("--format", choices=("text", "csv"), default="text")
    bench.set_defaults(func=_cmd_bench)

    return parser


def _program_args(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("program", help="program file")
    cmd.add_argument(
        "--facts",
        action="append",
        default=[],
        help="extra facts: .tsv/.csv edge lists or fact files (repeatable)",
    )


def _load_program(args) -> Program:
    with open(args.program, "r", encoding="utf-8-sig") as fh:
        program = parse_program(fh.read())
    arities = program.arities()
    for path in args.facts:
        runs = read_facts_path(path)
        # The parse checked that every fact of a predicate has one arity.
        for predicate, rows in runs:
            arity = len(rows[0])
            prior = arities.setdefault(predicate, arity)
            if prior != arity:
                raise ArityConflict(f"{path}: {predicate} used with arity {arity}, earlier {prior}")
        program = program.with_runs(runs)
    return program


def _at_least(option: str, value: Optional[int], least: int) -> None:
    """Refuse a number below its option's least value as bad input (exit 1;
    argparse's own exit 2 would read as a budget stop)."""
    if value is not None and value < least:
        raise PremlogError(f"{option} must be at least {least}, got {value}")


def _stats_line(stats) -> str:
    return (
        f"# iterations={stats.iterations} derived={stats.derived} "
        f"retained={stats.retained} deleted={stats.deleted} wall_ms={stats.wall_ms:.2f}"
    )


# =====================================================================================
# RUN
# =====================================================================================


def _cmd_run(args) -> int:
    from .engine import EvalOptions, execute

    _at_least("--max-tuples", args.max_tuples, 0)
    _at_least("--max-iterations", args.max_iterations, 0)
    program = _load_program(args)
    options = EvalOptions(
        mode=args.mode,
        max_iterations=args.max_iterations,
        max_tuples=args.max_tuples,
    )

    report = None
    if args.trust_but_verify:
        from .verify import trust_but_verify_run

        result, report = trust_but_verify_run(program, options, args.seed)
    else:
        # Refuse unproven recursive aggregates up front; nothing has run yet.
        planned = plan(program, force_push=args.force_push)
        bad = [ob for ob in planned.obligations if not ob.approved]
        for ob in bad:
            print(
                f"error: rule {ob.rule_id} uses {ob.kind} inside its own recursion "
                f"and the max transfer was rejected ({ob.reason}). The fixpoint may "
                f"be wrong or diverge. Stratify the program, or rerun with "
                f"--trust-but-verify to execute it anyway under audit.",
                file=sys.stderr,
            )
        if bad:
            return EXIT_REJECTED
        result = execute(planned, options)

    _print_answers(result, args)
    for line in result.warnings:
        print(f"warning: {line}", file=sys.stderr)
    if report is not None:
        for line in report.positivity:
            print(f"audit: {line}", file=sys.stderr)
        for ob, sampled in report.sampled:
            state = (
                "no counterexample found"
                if sampled.holds
                else f"counterexample after {sampled.samples} samples"
            )
            print(f"audit: rule {ob.rule_id} {ob.kind} transfer sampled: {state}", file=sys.stderr)
        for pred, (missing, extra) in sorted(report.diffs.items()):
            print(
                f"audit: {pred} disagrees with the oracle "
                f"({len(missing)} missing, {len(extra)} unexpected)",
                file=sys.stderr,
            )
        if report.unverified:
            print(f"audit: {report.unverified}", file=sys.stderr)
        if report.diffs:
            return EXIT_REJECTED
    if args.stats:
        print(_stats_line(result.stats), file=sys.stderr)
    return EXIT_OK


def _print_answers(result, args) -> None:
    from .engine import default_query

    query = args.query or default_query(result.program)
    if query is None:
        return
    rows = result.answers(query)
    out = sys.stdout
    if args.format == "text":
        out.writelines([f"{query}({','.join(map(str, t))}).\n" for t in rows])
    elif args.format == "csv":
        import csv as _csv

        writer = _csv.writer(out)
        for t in rows:
            writer.writerow(t)
    else:
        import json

        for t in rows:
            out.write(json.dumps({"predicate": query, "args": list(t)}) + "\n")


# =====================================================================================
# CHECK / OPTIMIZE / VERIFY
# =====================================================================================


def _not_pushed(step) -> str:
    return (
        f"constraint on rule {step.rule_id} not pushed: the recursion "
        f"already carries a working extremum"
    )


def _cmd_check(args) -> int:
    planned = plan(_load_program(args))
    lines: List[str] = []
    ok = True

    for ob in planned.obligations:
        if ob.approved:
            just = "; ".join(j for _, j in ob.verdict.plan) if ob.verdict else ""
            lines.append(f"APPROVED: rule {ob.rule_id} {ob.kind} in recursion ({just})")
        else:
            ok = False
            rejection = ob.verdict.rejection if ob.verdict is not None else None
            reason = f"{rejection!r} (rule {rejection.rule_id})" if rejection else ob.reason
            lines.append(f"REJECTED: rule {ob.rule_id} {ob.kind} in recursion: {reason}")

    for step in planned.steps:
        verdict = step.verdict
        if not isinstance(verdict, PremVerdict):
            ok = False
            lines.append(f"REJECTED: {verdict}")
        elif step.action == "skipped":
            lines.append(f"SKIPPED: {_not_pushed(step)}")
        elif verdict.approved:
            just = "; ".join(j for _, j in verdict.plan)
            lines.append(f"APPROVED: {just}")
        else:
            ok = False
            lines.append(
                f"REJECTED: {verdict.rejection!r} (rule {verdict.rejection.rule_id})"
            )

    if not lines:
        lines.append("APPROVED: no pushable constraints")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_REJECTED


def _cmd_optimize(args) -> int:
    planned = plan(_load_program(args), force_push=args.force_push)
    ok = all(ob.approved for ob in planned.obligations)
    for ob in planned.obligations:
        if not ob.approved:
            print(f"warning: rule {ob.rule_id} {ob.kind} left unproven", file=sys.stderr)
    for step in planned.steps:
        verdict = step.verdict
        if not isinstance(verdict, PremVerdict):
            print(f"warning: constraint not pushed: {verdict}", file=sys.stderr)
            ok = False
        elif step.action == "skipped":
            print(f"warning: {_not_pushed(step)}", file=sys.stderr)
        elif step.action == "kept":
            print(f"warning: {verdict.rejection!r}", file=sys.stderr)
            ok = False
        else:
            if step.action == "forced":
                print(f"warning: forcing rejected push: {verdict.rejection!r}", file=sys.stderr)
            for line in step.trace.lines():
                print(f"# {line}", file=sys.stderr)
    sys.stdout.write(format_program(planned.executed))
    return EXIT_OK if ok else EXIT_REJECTED


def _cmd_verify(args) -> int:
    _at_least("--samples", args.samples, 1)  # no PASSED from a check that sampled nothing
    planned = plan(_load_program(args), push=False)
    compiled = planned.executed
    targets = []
    for fc in compiled.final_constraints:
        targets.append((compiled, fc.constraint, None))
    if not targets:
        derived = constraint_from_annotations(compiled)
        if derived is not None:
            targets.append((compiled, derived, None))
    for ob in planned.obligations:
        if ob.verdict is not None:
            targets.append((ob.verdict.program, ob.verdict.constraint, ob.verdict.procedure))
    if not targets:
        # every obligation here lacks a verdict; say why
        why = "; ".join(
            f"rule {ob.rule_id} {ob.kind} in recursion: {ob.reason}" for ob in planned.obligations
        )
        print(f"error: no constraint to verify{': ' + why if why else ''}", file=sys.stderr)
        return EXIT_INPUT

    from .verify import check_prem_empirical

    all_hold = True
    for prog, constraint, procedure in targets:
        report = check_prem_empirical(
            prog, constraint, samples=args.samples, seed=args.seed, procedure=procedure
        )
        if report.holds:
            print(f"PASSED: {constraint!r}: no counterexample in {report.samples} samples")
        else:
            all_hold = False
            interp, lhs, rhs = report.counterexample
            print(f"FALSIFIED: {constraint!r}: counterexample after {report.samples} samples")
            for name, rel in (("I", interp), ("constrained-after", lhs), ("constrained-before", rhs)):
                rows = []
                for pred in sorted(rel):
                    for t in sorted(rel[pred], key=tuple_sort_key):
                        rows.append(f"{pred}({','.join(format_value(v) for v in t)})")
                print(f"  {name}: {' '.join(rows) if rows else '(empty)'}")
    return EXIT_OK if all_hold else EXIT_REJECTED


# =====================================================================================
# BENCH
# =====================================================================================


def _cmd_bench(args) -> int:
    from .bench import GraphSpec, gen_graph, run_benchmark
    from .engine import EvalOptions

    _at_least("--runs", args.runs, 1)
    _at_least("--max-tuples", args.max_tuples, 0)
    if args.min_length > args.max_length:
        raise PremlogError(f"--min-length {args.min_length} exceeds --max-length {args.max_length}")
    if args.facts:
        arcs = [row for path in args.facts for row in read_edge_list(path)]
        spec = None
    else:
        spec = GraphSpec(
            kind=args.kind,
            n=args.n,
            p=args.p,
            length_range=(args.min_length, args.max_length),
            seed=args.seed,
        )
        arcs = gen_graph(spec)
    variants = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    options = EvalOptions(max_tuples=args.max_tuples)
    report = run_benchmark(arcs, variants=variants, runs=args.runs, options=options)
    if args.format == "csv":
        report.write_csv(sys.stdout)
    else:
        if spec is not None:
            print(
                f"# {spec.kind} n={spec.n} p={spec.p} seed={spec.seed} arcs={report.arcs}"
            )
        print(report.format_text())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
