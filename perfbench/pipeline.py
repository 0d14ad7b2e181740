"""The traced run: premlog's pipeline called layer by layer from outside.

Each function here replays what one CLI subcommand (or bench.shortest_paths)
does, calling the public layer functions in pipeline order and recording a
span around each call:

    parse_program / load_facts_path -> compile_count_in_recursion
    -> classify_premability -> push_constraint -> stratify
    -> one fixpoint per stratum -> check_prem_empirical / brute_force_oracle

It returns an outcome in the same normal form as the untraced op, so the
caller can assert that the decomposition reproduced the answers and the
EvalStats of the real entry point. The glue between spans (building
interpretations, diffing against the oracle) is not attributed to any layer;
it is the tracing overhead.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

import premlog as P
from premlog.model import constraint_conjuncts

class Spans:
    """Spans of one op, kept in memory: (layer, start, end)."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float]] = []
        self.counts: Counter = Counter()

    def call(self, layer: str, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((layer, start, time.perf_counter()))

    def seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for layer, start, end in self.spans:
            out[layer] = out.get(layer, 0.0) + (end - start)
        return out


def stats_tuple(stats) -> Tuple[int, int, int, int]:
    return (stats.iterations, stats.derived, stats.retained, stats.deleted)


def answer_lines(db, query: Optional[str]) -> List[str]:
    if query is None:
        return []
    return sorted(f"{query}({','.join(str(v) for v in t)})." for t in db.get(query, ()))


# ===== shared stages ===========================================================


def _load(spans: Spans, program_path: str, facts: List[str]):
    with open(program_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    program = spans.call("parser.parse_program", P.parse_program, text)
    extra = []
    for path in facts:
        extra.extend(spans.call("parser.load_facts", P.load_facts_path, path))
    spans.counts["parser.facts"] += len(extra)
    return program.with_facts(tuple(extra)) if extra else program


def _verdict(spans: Spans, verdict) -> None:
    spans.counts["analysis.approved" if verdict.approved else "analysis.rejected"] += 1


def _compile(spans: Spans, program, assume: bool = False):
    executed, obligations = spans.call(
        "rewrite.compile", P.compile_count_in_recursion, program, assume=assume
    )
    for ob in obligations:
        spans.counts["analysis.approved" if ob.approved else "analysis.rejected"] += 1
    return executed, obligations


def _push_approved(spans: Spans, executed):
    """engine.run_program's push loop, without --force-push."""
    for fc in list(executed.final_constraints):
        try:
            verdict = spans.call("analysis.classify", P.classify_premability, executed, fc.constraint)
        except (P.NoCost, P.AmbiguousCost):
            spans.counts["analysis.rejected"] += 1
            continue
        _verdict(spans, verdict)
        if any(r.extremum is not None for r in verdict.procedure):
            continue
        if verdict.approved:
            executed, _ = spans.call("rewrite.push", P.push_constraint, executed, verdict)
            spans.counts["rewrite.pushes"] += 1
    return executed


def _evaluate(spans: Spans, executed, options):
    """engine.iterated_fixpoint: stratify, then one fixpoint per stratum."""
    strata = spans.call("analysis.stratify", P.stratify, executed)
    db: Dict[str, set] = {}
    for f in executed.facts:
        db.setdefault(f.predicate, set()).add(f.as_tuple())
    total = P.EvalStats()
    fixpoint = P.seminaive_fixpoint if options.mode == "seminaive" else P.naive_fixpoint
    budget = options.max_tuples
    monitor: List[str] = []
    for stratum in strata:
        opts = P.EvalOptions(
            mode=options.mode,
            max_iterations=options.max_iterations,
            max_tuples=budget,
            monitor_positivity=options.monitor_positivity,
        )
        db, stats = spans.call("engine.eval", fixpoint, stratum.rules, db, opts, monitor)
        total.merge(stats)
        budget -= stats.derived
    spans.counts["engine.strata"] += len(strata)
    for key, value in zip(("iterations", "derived", "retained", "deleted"), stats_tuple(total)):
        spans.counts[f"engine.{key}"] += value
    return db, total


# ===== one function per op kind ================================================


def run(spans: Spans, program_path: str, facts: List[str]):
    """`premlog run PROGRAM --facts F --stats` on an approved program."""
    program = _load(spans, program_path, facts)
    executed, _ = _compile(spans, program)
    executed = _push_approved(spans, executed)
    db, stats = _evaluate(spans, executed, P.EvalOptions())
    return 0, answer_lines(db, P.default_query(program)), stats_tuple(stats)


def trust_but_verify(spans: Spans, program_path: str, facts: List[str], seed: int):
    """`premlog run PROGRAM --facts F --trust-but-verify --stats --seed S`."""
    program = _load(spans, program_path, facts)
    options = P.EvalOptions(monitor_positivity=True)
    executed, obligations = _compile(spans, program, assume=True)
    executed = _push_approved(spans, executed)
    db, stats = _evaluate(spans, executed, options)
    oracle = spans.call(
        "verify.oracle", P.brute_force_oracle, program, P.EvalOptions(mode="naive")
    )
    used = {
        g.predicate for r in program.rules for g in r.body if isinstance(g, P.Atom)
    }
    by_id = {r.id: r.head.predicate for r in program.rules}
    watched = {r.head.predicate for r in program.rules if r.head.predicate not in used}
    watched |= {by_id[ob.rule_id] for ob in obligations if ob.rule_id in by_id}
    clean = all(db.get(p, set()) == oracle.get(p, set()) for p in watched)
    for ob in obligations:
        if not ob.approved and ob.verdict is not None:
            report = spans.call(
                "verify.audit",
                P.check_prem_empirical,
                ob.verdict.program,
                ob.verdict.constraint,
                samples=400,
                seed=seed,
                procedure=ob.verdict.procedure,
            )
            spans.counts["verify.samples"] += report.samples
    answers = answer_lines(db, P.default_query(program))
    return (0, answers, stats_tuple(stats)) if clean else (3, answers, None)


def check(spans: Spans, program_path: str):
    """`premlog check PROGRAM`: exit code and the number of APPROVED/REJECTED lines."""
    program = _load(spans, program_path, [])
    compiled, obligations = _compile(spans, program)
    approved = sum(ob.approved for ob in obligations)
    rejected = len(obligations) - approved
    for fc in compiled.final_constraints:
        try:
            verdict = spans.call("analysis.classify", P.classify_premability, compiled, fc.constraint)
        except (P.NoCost, P.AmbiguousCost):
            spans.counts["analysis.rejected"] += 1
            rejected += 1
            continue
        _verdict(spans, verdict)
        approved += verdict.approved
        rejected += not verdict.approved
    if approved + rejected == 0:
        approved = 1  # "APPROVED: no pushable constraints"
    return (3 if rejected else 0), approved, rejected


def optimize(spans: Spans, program_path: str, force_push: bool):
    """`premlog optimize PROGRAM [--force-push]`: exit code and the printed program."""
    program = _load(spans, program_path, [])
    executed, obligations = _compile(spans, program)
    ok = all(ob.approved for ob in obligations)
    for fc in list(executed.final_constraints):
        try:
            verdict = spans.call("analysis.classify", P.classify_premability, executed, fc.constraint)
        except (P.NoCost, P.AmbiguousCost):
            spans.counts["analysis.rejected"] += 1
            ok = False
            continue
        _verdict(spans, verdict)
        if not verdict.approved and force_push:
            verdict = replace(
                verdict,
                rejection=None,
                plan=tuple(
                    (c, "forced despite rejection") for c in constraint_conjuncts(fc.constraint)
                ),
            )
        if verdict.approved:
            executed, _ = spans.call("rewrite.push", P.push_constraint, executed, verdict)
            spans.counts["rewrite.pushes"] += 1
        else:
            ok = False
    return (0 if ok else 3), P.format_program(executed)


def verify(spans: Spans, program_path: str, samples: int, seed: int):
    """`premlog verify PROGRAM --samples N --seed S`: exit code and (holds, samples) per target."""
    program = _load(spans, program_path, [])
    compiled, obligations = _compile(spans, program)
    targets = [(compiled, fc.constraint, None) for fc in compiled.final_constraints]
    if not targets:
        derived = spans.call("analysis.classify", P.constraint_from_annotations, compiled)
        if derived is not None:
            targets.append((compiled, derived, None))
    for ob in obligations:
        if ob.verdict is not None:
            targets.append((ob.verdict.program, ob.verdict.constraint, ob.verdict.procedure))
    reports = []
    for prog, constraint, procedure in targets:
        report = spans.call(
            "verify.check",
            P.check_prem_empirical,
            prog,
            constraint,
            samples=samples,
            seed=seed,
            procedure=procedure,
        )
        spans.counts["verify.samples"] += report.samples
        reports.append((report.holds, report.samples))
    if not targets:
        return 1, reports
    return (0 if all(h for h, _ in reports) else 3), reports


def shortest_paths(spans: Spans, variant: str, arcs, source: str):
    """bench.shortest_paths: the variant program run with push=False."""
    template, query = P.bench.VARIANTS[variant]
    program = spans.call("parser.parse_program", P.parse_program, template.format(src=source))
    program = program.with_facts(P.bench.arc_facts(arcs))
    executed, _ = _compile(spans, program)
    db, stats = _evaluate(spans, executed, P.EvalOptions())
    return {t[0]: t[1] for t in db.get(query, set())}, stats_tuple(stats)
