"""Program rewrites: constraint pushing, desugaring, and aggregate compilation.

push_constraint applies an approved plan: bounds become comparison goals on
every procedure rule, extrema become working-set head annotations, and the
final rule loses the conjuncts that now live inside the recursion. Rewritten
rules keep their identity with a prime suffix per applied conjunct (r2, r2',
r2'').

count and sum inside recursion are compiled by reading them as max over
their monotonic counterparts: the max is transferred out, the push check
runs on the mcount/msum shadow, and on approval the original program runs
natively with running accumulators that release only at the fixpoint.
monotonic_form turns a count/sum rule into that mcount/msum ladder;
standard_form turns the ladders a max keeps only the top of back into
count/sum, so the falsifier derives one total per key instead of every rung.

plan() is the compile layer that run, check and optimize share: it compiles
recursive count/sum, classifies every final constraint and applies the
pushes it approves. It runs nothing, so check and optimize never load the
executor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .errors import AmbiguousCost, NoCost, PlanMismatch, PremlogError
from .model import (
    EXTREMA_KINDS,
    AggregateGoal,
    Atom,
    Bound,
    Comparison,
    Constraint,
    Extremum,
    Negated,
    Program,
    Rule,
    Variable,
    constraint_conjuncts,
    constraint_predicate,
    goal_conjunct,
    head_var_positions,
    map_goal,
)
from .analysis import (
    PremVerdict,
    Rejection,
    apply_conjunct,
    classify_premability,
    definitions,
    guard_region,
    provably_positive,
)

# =====================================================================================
# CONSTRAINT PUSH
# =====================================================================================


@dataclass(frozen=True)
class RewriteTrace:
    applied: Tuple[Tuple[Union[Bound, Extremum], str], ...]
    renamed: Dict[str, str]

    def lines(self) -> List[str]:
        out = []
        for conjunct, justification in self.applied:
            out.append(f"pushed {conjunct!r} [{justification}]")
        for old, new in sorted(self.renamed.items()):
            out.append(f"rule {old} -> {new}")
        return out


def push_constraint(program: Program, verdict: PremVerdict) -> Tuple[Program, RewriteTrace]:
    """Rewrite `program` so the constraint runs inside the recursion.

    The final rule that states the constraint loses the goals that state it,
    so the result's final_constraints no longer lists it."""
    if verdict.program != program:
        raise PlanMismatch("verdict was computed for a different program")
    if verdict.rejection is not None:
        raise PlanMismatch(f"constraint was rejected: {verdict.rejection!r}")
    if len(verdict.plan) != len(constraint_conjuncts(verdict.constraint)):
        raise PlanMismatch("plan does not cover every conjunct")

    costmap = verdict.costmap
    p0 = constraint_predicate(verdict.constraint)
    if verdict.composed:
        targets: Set[str] = {r.id for r in program.rules_defining(p0)}
    else:
        targets = {r.id for r in program.rules if r.head.predicate in costmap}

    stated = (fc.rule_id for fc in program.final_constraints if fc.constraint == verdict.constraint)
    final_rule = next(stated, None)

    renamed: Dict[str, str] = {}
    new_rules: List[Rule] = []
    for r in program.rules:
        if r.id in targets:
            rewritten = r
            for conjunct, _ in verdict.plan:
                if isinstance(conjunct, Extremum) and rewritten.extremum is not None:
                    raise PlanMismatch(f"rule {r.id} already carries a head extremum")
                rewritten = apply_conjunct(rewritten, conjunct, costmap)
            rewritten = replace(rewritten, id=r.id + "'" * len(verdict.plan))
        elif r.id == final_rule:
            rewritten = _strip_final(r, verdict.plan)
        else:
            new_rules.append(r)
            continue
        renamed[r.id] = rewritten.id
        new_rules.append(rewritten)

    out = replace(
        program,
        rules=tuple(new_rules),
        approved_recursive_aggregates=frozenset(
            renamed.get(i, i) for i in program.approved_recursive_aggregates
        ),
    )
    return out, RewriteTrace(verdict.plan, renamed)


def _strip_final(rule: Rule, plan) -> Rule:
    """The final rule without the goals whose conjuncts were pushed."""
    atom = rule.regular_goals()[0]
    pushed = [c for c, _ in plan]
    body = tuple(g for g in rule.body if goal_conjunct(g, atom) not in pushed)
    return Rule(rule.id + "'" * len(plan), rule.head, body, rule.extremum)


# =====================================================================================
# EXTREMUM DESUGARING (for the stratified oracle)
# =====================================================================================


def desugar_extremum(rule: Rule) -> Tuple[Rule, Rule]:
    """Rewrite an is_min/is_max goal into negation of a witness predicate.

    spath(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).
    becomes
    spath(Y,Dy) :- path(Y,Dy), not lesser_r4(Y,Dy).
    lesser_r4(Y,Dy) :- path(Y,Dy), path(Y,Dy1), Dy1<Dy.
    """
    agg = rule.aggregate()
    if agg is None or agg.kind not in EXTREMA_KINDS:
        raise PremlogError(f"rule {rule.id} has no extremum goal to desugar")
    if sum(isinstance(g, AggregateGoal) for g in rule.body) > 1:
        raise PremlogError("cannot desugar a rule with a second aggregate")
    cost = agg.measured[0]
    aux_name = ("lesser_" if agg.kind == "is_min" else "greater_") + rule.id
    keep = tuple(g for g in rule.body if g is not agg)

    used = set(rule.head.variables()) | set(rule.body_variables())
    suffix = "1"
    while any(f"{v}{suffix}" in used for v in used):
        suffix += "1"
    renames = {v: f"{v}{suffix}" for v in used if v not in agg.group_by}
    witness = tuple(map_goal(g, lambda v: Variable(renames.get(v, v))) for g in keep)
    op = "<" if agg.kind == "is_min" else ">"
    compare = Comparison(op, Variable(renames[cost]), Variable(cost))
    aux_args = tuple(Variable(v) for v in agg.group_by + (cost,))
    aux = Rule(aux_name, Atom(aux_name, aux_args), keep + witness + (compare,))
    main = Rule(rule.id, rule.head, keep + (Negated(Atom(aux_name, aux_args)),), rule.extremum)
    return main, aux


def monotonic_form(rule: Rule) -> Tuple[Rule, int]:
    """The ladder of a count/sum rule: the same rule over mcount/msum, whose
    max is the count/sum, and the head position of the aggregate result."""
    agg = rule.aggregate()
    pos = head_var_positions(rule.head).get(agg.result)
    if pos is None:
        raise PremlogError(f"rule {rule.id}: aggregate result {agg.result} is not in the head")
    ladder = AggregateGoal("m" + agg.kind, agg.group_by, agg.measured, agg.result)
    body = tuple(ladder if g is agg else g for g in rule.body)
    return Rule(rule.id, rule.head, body, rule.extremum), pos


def standard_form(rules: Sequence[Rule], constraint: Constraint) -> List[Rule]:
    """rules with each mcount/msum ladder that constraint keeps only the top
    of read as its count/sum: the inverse of monotonic_form, under a max.

    For a key with total t a ladder rule derives the head with every result
    1..t, its count/sum with t alone, and the head's other positions do not
    read the result. So each lower rung differs from the top only in the
    cost, where it is lower, and a max that does not group by the cost drops
    it: gamma(T) is the same for both forms. A rule is kept as it is unless
    the constraint is a single max on its head predicate, the result is a
    bare variable at the cost position and nowhere else in the head, and no
    other goal reads it (a post filter would cut the ladder, not the total).
    """
    if not (
        isinstance(constraint, Extremum)
        and constraint.kind == "max"
        and constraint.cost not in constraint.group_by
    ):
        return list(rules)
    out: List[Rule] = []
    for r in rules:
        agg = r.aggregate()
        if (
            agg is not None
            and agg.kind in ("mcount", "msum")
            and r.head.predicate == constraint.predicate
            and r.head.args[constraint.cost] == Variable(agg.result)
            and list(r.head.variables()).count(agg.result) == 1
            and all(agg.result not in g.variables() for g in r.body if g is not agg)
        ):
            total = replace(agg, kind=agg.kind[1:])
            r = replace(r, body=tuple(total if g is agg else g for g in r.body))
        out.append(r)
    return out


def materialize_monotonic(program: Program) -> Tuple[Program, Dict[str, int]]:
    """Replace count/sum with their monotonic forms for oracle evaluation.

    Returns the rewritten program plus {head predicate: result position}
    entries for every touched rule; after the fixpoint the caller projects
    those predicates to the maximal result per remaining key.
    """
    projections: Dict[str, int] = {}
    new_rules: List[Rule] = []
    for r in program.rules:
        agg = r.aggregate()
        if agg is None or agg.kind not in ("count", "sum"):
            new_rules.append(r)
            continue
        ladder, pos = monotonic_form(r)
        prior = projections.setdefault(r.head.predicate, pos)
        if prior != pos:
            raise PremlogError(
                f"{r.head.predicate} aggregates into different argument positions"
            )
        new_rules.append(ladder)
    return program.with_rules(new_rules), projections


# =====================================================================================
# COUNT/SUM IN RECURSION
# =====================================================================================


@dataclass(frozen=True)
class CompileObligation:
    rule_id: str
    kind: str  # 'count' | 'sum'
    verdict: Optional[PremVerdict]  # None when the shadow could not be classified
    approved: bool
    notes: Tuple[str, ...]

    @property
    def reason(self) -> str:
        """Why the obligation is not approved: the shadow's rejection, else the notes."""
        if self.verdict is not None and self.verdict.rejection is not None:
            return self.verdict.rejection.condition
        return "; ".join(self.notes) or "no transferable extremum"


def compile_count_in_recursion(
    program: Program, assume: bool = False
) -> Tuple[Program, List[CompileObligation]]:
    """Check every recursive count/sum by transferring max out of it.

    count is read as max of mcount and sum as max of msum; the aggregate may
    stay inside the recursion exactly when that max could be pushed back in,
    which the shadow classification decides. Approved rules are marked so
    stratification lets them through; `assume` marks them regardless (the
    trust-but-verify path) while still reporting the real verdict.
    """
    graph = program.graph
    obligations: List[CompileObligation] = []
    approved: Set[str] = set(program.approved_recursive_aggregates)
    for r in program.rules:
        agg = r.aggregate()
        if agg is None or agg.kind not in ("count", "sum"):
            continue
        head_scc = graph.scc_of[r.head.predicate]
        if all(graph.scc_of[g.predicate] != head_scc for g in r.regular_goals()):
            continue
        notes: List[str] = []
        try:
            shadow_rule, pos = monotonic_form(r)
        except PremlogError as exc:
            obligations.append(CompileObligation(r.id, agg.kind, None, False, (str(exc),)))
            continue
        shadow = program.with_rules(shadow_rule if x.id == r.id else x for x in program.rules)
        constraint = Extremum(
            "max",
            r.head.predicate,
            tuple(i for i in range(len(r.head.args)) if i != pos),
            pos,
        )
        if agg.kind == "sum":
            defs = definitions(r)
            region = guard_region([g for g in r.body if isinstance(g, Comparison)], defs)
            summand = agg.measured[-1]
            if not provably_positive(summand, defs, region):
                notes.append(
                    f"rule {r.id}: summand {summand} is not provably positive; "
                    f"non-positive contributions are dropped by the expansion"
                )
        try:
            verdict: Optional[PremVerdict] = classify_premability(shadow, constraint)
        except (NoCost, AmbiguousCost) as exc:
            verdict = None
            notes.append(str(exc))
        ok = verdict is not None and verdict.approved
        if ok or assume:
            approved.add(r.id)
        obligations.append(CompileObligation(r.id, agg.kind, verdict, ok, tuple(notes)))
    if approved == program.approved_recursive_aggregates:
        return program, obligations  # the same program keeps its graph
    return replace(program, approved_recursive_aggregates=frozenset(approved)), obligations


# =====================================================================================
# PROGRAM PLAN
# =====================================================================================


@dataclass(frozen=True)
class ConstraintStep:
    """What plan() did with one final constraint.

    verdict is the classifier's answer, or the NoCost/AmbiguousCost it raised
    instead. action is 'pushed', 'forced' (pushed despite a rejection), 'kept'
    (left in its stratified final rule) or 'skipped' (the recursion already
    carries a working extremum, and the final rule filters on top of it).
    """

    rule_id: str
    verdict: Union[PremVerdict, NoCost, AmbiguousCost]
    action: str
    trace: Optional[RewriteTrace] = None


@dataclass
class ProgramPlan:
    program: Program
    obligations: List[CompileObligation]
    steps: List[ConstraintStep]
    executed: Program
    warnings: List[str]


def plan(
    program: Program, push: bool = True, force_push: bool = False, trust: bool = False
) -> ProgramPlan:
    """Compile recursive count/sum, then decide and apply every constraint push.

    A rejected constraint is left in its stratified final rule (the safe
    fallback); force_push applies it inside the recursion anyway, which can
    change answers on programs that fail the check. trust runs unproven
    count/sum natively (see compile_count_in_recursion).
    """
    warnings: List[str] = []
    executed, obligations = compile_count_in_recursion(program, assume=trust)
    for ob in obligations:
        if not ob.approved:
            warnings.append(
                f"rule {ob.rule_id}: recursive {ob.kind} is not provably safe ({ob.reason}); "
                f"results may be wrong if run anyway"
            )
        if ob.verdict is not None:  # without a verdict, the notes are the reason above
            warnings.extend(ob.notes)
        if trust and not ob.approved:
            warnings.append("running unproven aggregate under trust-but-verify")

    steps: List[ConstraintStep] = []
    for fc in executed.final_constraints if push else ():
        try:
            verdict = classify_premability(executed, fc.constraint)
        except (NoCost, AmbiguousCost) as exc:
            warnings.append(f"constraint on rule {fc.rule_id} not pushed: {exc}")
            steps.append(ConstraintStep(fc.rule_id, exc, "kept"))
            continue
        if any(r.extremum is not None for r in verdict.procedure):
            warnings.append(
                f"constraint on rule {fc.rule_id} not pushed: the recursion "
                f"already carries a working extremum"
            )
            steps.append(ConstraintStep(fc.rule_id, verdict, "skipped"))
            continue
        if verdict.approved:
            verdict = _reject_other_readers(verdict, fc.rule_id)
        if verdict.approved:
            executed, trace = push_constraint(executed, verdict)
            steps.append(ConstraintStep(fc.rule_id, verdict, "pushed", trace))
        elif force_push:
            warnings.append(f"forcing rejected push: {verdict.rejection!r}")
            forced = replace(
                verdict,
                rejection=None,
                plan=tuple(
                    (c, "forced despite rejection") for c in constraint_conjuncts(fc.constraint)
                ),
            )
            executed, trace = push_constraint(executed, forced)
            steps.append(ConstraintStep(fc.rule_id, verdict, "forced", trace))
        else:
            warnings.append(f"constraint kept in final rule: {verdict.rejection!r}")
            steps.append(ConstraintStep(fc.rule_id, verdict, "kept"))
    return ProgramPlan(program, obligations, steps, executed, warnings)


def _reject_other_readers(verdict: PremVerdict, final_rule: str) -> PremVerdict:
    """Reject a push into a recursion that a rule outside it, other than the
    constraint's own final rule, also reads: the push changes what that
    recursion holds, not only what the final rule keeps.

    This lives here rather than in classify_premability because that also
    classifies count/sum shadows, whose heads other rules are meant to read.
    """
    graph = verdict.program.graph
    scc = graph.scc_members(constraint_predicate(verdict.constraint))
    for e in graph.edges:
        if e.body in scc and e.head not in scc and e.rule_id != final_rule:
            conjunct = constraint_conjuncts(verdict.constraint)[0]
            rejection = Rejection(conjunct, f"{e.body} is also read by rule {e.rule_id}", e.rule_id)
            return replace(verdict, rejection=rejection)
    return verdict
