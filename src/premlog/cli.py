"""Command line front end.

Subcommands: run (evaluate a program), check (report whether its constraints
can move inside the recursion), optimize (print the rewritten program),
verify (sample the transfer equation empirically), bench (time the
shortest-path variants on generated graphs).

run, check and optimize are views over one engine.plan(): run evaluates the
planned program, check prints the plan's verdicts, and optimize prints the
planned program, which is exactly what run executes.

Exit codes: 0 success, 1 bad input, 2 budget exhausted, 3 a constraint or
aggregate was rejected (or an audited run disagreed with the oracle).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .analysis import PremVerdict, constraint_from_annotations
from .bench import GraphSpec, gen_graph, run_benchmark
from .engine import EvalOptions, default_query, execute, plan
from .errors import BudgetExceeded, PremlogError
from .model import Program, format_value, tuple_sort_key
from .parser import format_program, load_edge_list, load_facts_path, parse_program
from .rewrite import compile_count_in_recursion
from .verify import check_prem_empirical, trust_but_verify_run

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_REJECTED = 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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


def _build_parser() -> argparse.ArgumentParser:
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
    run.add_argument("--max-iterations", type=int, default=None)
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
    with open(args.program, "r", encoding="utf-8") as fh:
        program = parse_program(fh.read())
    extra = []
    for path in args.facts:
        extra.extend(load_facts_path(path))
    if extra:
        program = program.with_facts(tuple(extra))
    return program


def _stats_line(stats) -> str:
    return (
        f"# iterations={stats.iterations} derived={stats.derived} "
        f"retained={stats.retained} deleted={stats.deleted} wall_ms={stats.wall_ms:.2f}"
    )


# =====================================================================================
# RUN
# =====================================================================================


def _cmd_run(args) -> int:
    program = _load_program(args)
    options = EvalOptions(
        mode=args.mode,
        max_iterations=args.max_iterations,
        max_tuples=args.max_tuples,
    )

    report = None
    if args.trust_but_verify:
        result, report = trust_but_verify_run(program, options)
    else:
        # Refuse unproven recursive aggregates up front; nothing has run yet.
        planned = plan(program, force_push=args.force_push)
        bad = [ob for ob in planned.obligations if not ob.approved]
        for ob in bad:
            reason = (
                ob.verdict.rejection.condition
                if ob.verdict is not None and ob.verdict.rejection is not None
                else "; ".join(ob.notes) or "no transferable extremum"
            )
            print(
                f"error: rule {ob.rule_id} uses {ob.kind} inside its own recursion "
                f"and the max transfer was rejected ({reason}). The fixpoint may "
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
        for ob in result.obligations:
            if not ob.approved and ob.verdict is not None:
                sampled = check_prem_empirical(
                    ob.verdict.program,
                    ob.verdict.constraint,
                    samples=400,
                    seed=args.seed,
                    procedure=ob.verdict.procedure,
                )
                state = (
                    "no counterexample found"
                    if sampled.holds
                    else f"counterexample after {sampled.samples} samples"
                )
                print(
                    f"audit: rule {ob.rule_id} {ob.kind} transfer sampled: {state}",
                    file=sys.stderr,
                )
        for pred, (missing, extra) in sorted(report.diffs.items()):
            print(
                f"audit: {pred} disagrees with the oracle "
                f"({len(missing)} missing, {len(extra)} unexpected)",
                file=sys.stderr,
            )
        if report.diffs:
            return EXIT_REJECTED
    if args.stats:
        print(_stats_line(result.stats), file=sys.stderr)
    return EXIT_OK


def _print_answers(result, args) -> None:
    query = args.query or default_query(result.program)
    if query is None:
        return
    rows = sorted(result.db.get(query, set()), key=tuple_sort_key)
    out = sys.stdout
    if args.format == "text":
        for t in rows:
            out.write(f"{query}({','.join(format_value(v) for v in t)}).\n")
    elif args.format == "csv":
        import csv as _csv

        writer = _csv.writer(out)
        for t in rows:
            writer.writerow(t)
    else:
        for t in rows:
            out.write(json.dumps({"predicate": query, "args": list(t)}) + "\n")


# =====================================================================================
# CHECK / OPTIMIZE / VERIFY
# =====================================================================================


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
            reason = (
                f"{ob.verdict.rejection!r} (rule {ob.verdict.rejection.rule_id})"
                if ob.verdict is not None and ob.verdict.rejection is not None
                else "; ".join(ob.notes) or "no transferable extremum"
            )
            lines.append(f"REJECTED: rule {ob.rule_id} {ob.kind} in recursion: {reason}")

    for step in planned.steps:
        verdict = step.verdict
        if not isinstance(verdict, PremVerdict):
            ok = False
            lines.append(f"REJECTED: {verdict}")
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
            print(
                f"warning: constraint on rule {step.rule_id} not pushed: the recursion "
                f"already carries a working extremum",
                file=sys.stderr,
            )
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
    program = _load_program(args)
    compiled, obligations = compile_count_in_recursion(program)
    targets = []
    for fc in compiled.final_constraints:
        targets.append((compiled, fc.constraint, None))
    if not targets:
        derived = constraint_from_annotations(compiled)
        if derived is not None:
            targets.append((compiled, derived, None))
    for ob in obligations:
        if ob.verdict is not None:
            targets.append((ob.verdict.program, ob.verdict.constraint, ob.verdict.procedure))
    if not targets:
        print("error: no constraint to verify", file=sys.stderr)
        return EXIT_INPUT

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
    if args.facts:
        arcs = []
        for path in args.facts:
            for atom in load_edge_list(path):
                arcs.append(tuple(a.value for a in atom.args))
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
    report = run_benchmark(arcs, variants=variants, runs=args.runs, options=options, spec=spec)
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
