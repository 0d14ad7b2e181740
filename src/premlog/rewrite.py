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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple, Union

from .errors import PlanMismatch, PremlogError
from .model import (
    EXTREMA_KINDS,
    RANGE_PREDICATE,
    AggregateGoal,
    ArithExpr,
    Atom,
    Bound,
    Comparison,
    Constant,
    Extremum,
    FinalConstraint,
    Goal,
    Negated,
    Program,
    Rule,
    Variable,
    constraint_conjuncts,
    constraint_predicate,
)
from .analysis import (
    DependencyGraph,
    PremVerdict,
    _apply_conjunct,
    build_dependency_graph,
    classify_premability,
    guard_region,
    _definitions,
    subst_defs,
    interval,
)
from .parser import _comparison_bound, _head_var_positions

# =====================================================================================
# CONSTRAINT PUSH
# =====================================================================================


@dataclass(frozen=True)
class RewriteTrace:
    constraint: object
    applied: Tuple[Tuple[Union[Bound, Extremum], str], ...]
    renamed: Dict[str, str]
    final_rule: Optional[Tuple[str, str]]  # (old id, new id)

    def lines(self) -> List[str]:
        out = []
        for conjunct, justification in self.applied:
            out.append(f"pushed {conjunct!r} [{justification}]")
        for old, new in sorted(self.renamed.items()):
            out.append(f"rule {old} -> {new}")
        return out


def push_constraint(program: Program, verdict: PremVerdict) -> Tuple[Program, RewriteTrace]:
    """Rewrite `program` so the constraint runs inside the recursion."""
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

    final_entry: Optional[FinalConstraint] = None
    for fc in program.final_constraints:
        if fc.constraint == verdict.constraint:
            final_entry = fc
            break

    renamed: Dict[str, str] = {}
    new_rules: List[Rule] = []
    final_ids: Optional[Tuple[str, str]] = None
    for r in program.rules:
        if r.id in targets:
            rewritten = r
            for conjunct, _ in verdict.plan:
                if isinstance(conjunct, Extremum) and rewritten.extremum is not None:
                    raise PlanMismatch(f"rule {r.id} already carries a head extremum")
                rewritten = _apply_conjunct(rewritten, conjunct, costmap)
            rewritten = replace(rewritten, id=r.id + "'" * len(verdict.plan))
            renamed[r.id] = rewritten.id
            new_rules.append(rewritten)
        elif final_entry is not None and r.id == final_entry.rule_id:
            rewritten = _strip_final(r, verdict.plan)
            renamed[r.id] = rewritten.id
            final_ids = (r.id, rewritten.id)
            new_rules.append(rewritten)
        else:
            new_rules.append(r)

    out = replace(
        program,
        rules=tuple(new_rules),
        final_constraints=tuple(fc for fc in program.final_constraints if fc is not final_entry),
        approved_recursive_aggregates=frozenset(
            renamed.get(i, i) for i in program.approved_recursive_aggregates
        ),
    )
    return out, RewriteTrace(verdict.constraint, verdict.plan, renamed, final_ids)


def _strip_final(rule: Rule, plan) -> Rule:
    regular = [g for g in rule.regular_goals() if g.predicate != RANGE_PREDICATE]
    atom = regular[0]
    positions = _head_var_positions(atom)
    pushed = [c for c, _ in plan]
    body: List[Goal] = []
    for g in rule.body:
        drop = False
        if isinstance(g, Comparison):
            drop = _comparison_bound(g, atom.predicate, positions) in pushed
        elif isinstance(g, AggregateGoal) and g.kind in EXTREMA_KINDS:
            var = g.measured[0]
            if var in positions and all(v in positions for v in g.group_by):
                ex = Extremum(
                    g.kind[3:],
                    atom.predicate,
                    tuple(positions[v] for v in g.group_by),
                    positions[var],
                )
                drop = ex in pushed
        if not drop:
            body.append(g)
    return Rule(rule.id + "'" * len(plan), rule.head, tuple(body), rule.extremum)


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
    cost = agg.measured[0]
    aux_name = ("lesser_" if agg.kind == "is_min" else "greater_") + rule.id
    keep = tuple(g for g in rule.body if g is not agg)

    used = set(rule.head.variables()) | set(rule.body_variables())
    suffix = "1"
    while any(f"{v}{suffix}" in used for v in used):
        suffix += "1"
    renames = {v: f"{v}{suffix}" for v in used if v not in agg.group_by}

    def rn_term(t):
        if isinstance(t, Variable):
            return Variable(renames.get(t.name, t.name))
        if isinstance(t, ArithExpr):
            return ArithExpr(t.op, rn_term(t.left), rn_term(t.right))
        return t

    def rn_goal(g: Goal) -> Goal:
        if isinstance(g, Atom):
            return Atom(g.predicate, tuple(rn_term(a) for a in g.args))
        if isinstance(g, Comparison):
            return Comparison(g.op, rn_term(g.left), rn_term(g.right))
        if isinstance(g, Negated):
            return Negated(Atom(g.atom.predicate, tuple(rn_term(a) for a in g.atom.args)))
        raise PremlogError("cannot desugar a rule with a second aggregate")

    witness = tuple(rn_goal(g) for g in keep)
    op = "<" if agg.kind == "is_min" else ">"
    compare = Comparison(op, Variable(renames[cost]), Variable(cost))
    aux_args = tuple(Variable(v) for v in agg.group_by + (cost,))
    aux = Rule(aux_name, Atom(aux_name, aux_args), keep + witness + (compare,))
    main = Rule(rule.id, rule.head, keep + (Negated(Atom(aux_name, aux_args)),), rule.extremum)
    return main, aux


# =====================================================================================
# MONOTONIC SUM EXPANSION
# =====================================================================================


def expand_msum(goal: AggregateGoal, rule: Optional[Rule] = None) -> Tuple[Tuple[Goal, ...], List[str]]:
    """Expand msum/sum into a unit range join plus mcount/count.

    sum((),(Pno,C),T)  ->  int_up2(C,Int), count((),(Pno,C,Int),T)

    Each positive summand C contributes C distinct witnesses, so counting
    them sums the summands. Non-positive summands produce no witnesses; the
    returned warnings flag summands that are not provably positive.
    """
    if goal.kind not in ("msum", "sum"):
        raise PremlogError(f"{goal.kind} is not a summing aggregate")
    summand = goal.measured[-1]
    used = set(goal.variables())
    if rule is not None:
        used |= set(rule.head.variables()) | set(rule.body_variables())
    fresh = "Int"
    n = 1
    while fresh in used:
        n += 1
        fresh = f"Int{n}"
    range_goal = Atom(RANGE_PREDICATE, (Variable(summand), Variable(fresh)))
    counter = AggregateGoal(
        "mcount" if goal.kind == "msum" else "count",
        goal.group_by,
        goal.measured + (fresh,),
        goal.result,
    )
    warnings: List[str] = []
    if rule is not None:
        defs = _definitions(rule)
        guards = [g for g in rule.body if isinstance(g, Comparison)]
        region = guard_region(guards, defs)
        lo, _ = region.get(summand, (None, None))
        if lo is None or lo < 1:
            lo, _ = interval(subst_defs(Variable(summand), defs), region)
        if lo is None or lo < 1:
            warnings.append(
                f"rule {rule.id}: summand {summand} is not provably positive; "
                f"non-positive contributions are dropped by the expansion"
            )
    return (range_goal, counter), warnings


def int_up2_support_rules() -> Tuple[Rule, Rule]:
    """The defining rules of the unit range generator, for reference output."""
    c, j, j1 = Variable("C"), Variable("J"), Variable("J1")
    base = Rule(
        "u1",
        Atom(RANGE_PREDICATE, (c, Constant(1))),
        (Comparison(">", c, Constant(0)),),
    )
    step = Rule(
        "u2",
        Atom(RANGE_PREDICATE, (c, j1)),
        (
            Atom(RANGE_PREDICATE, (c, j)),
            Comparison("=", j1, ArithExpr("+", j, Constant(1))),
            Comparison("<=", j1, c),
        ),
    )
    return base, step


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
        pos = _result_position(r, agg)
        prior = projections.setdefault(r.head.predicate, pos)
        if prior != pos:
            raise PremlogError(
                f"{r.head.predicate} aggregates into different argument positions"
            )
        swapped = AggregateGoal(
            "mcount" if agg.kind == "count" else "msum",
            agg.group_by,
            agg.measured,
            agg.result,
        )
        body = tuple(swapped if g is agg else g for g in r.body)
        new_rules.append(Rule(r.id, r.head, body, r.extremum))
    return program.with_rules(new_rules), projections


def _result_position(rule: Rule, agg: AggregateGoal) -> int:
    for i, a in enumerate(rule.head.args):
        if isinstance(a, Variable) and a.name == agg.result:
            return i
    raise PremlogError(f"rule {rule.id}: aggregate result {agg.result} is not in the head")


# =====================================================================================
# COUNT/SUM IN RECURSION
# =====================================================================================


@dataclass(frozen=True)
class CompileObligation:
    rule_id: str
    kind: str  # 'count' | 'sum'
    verdict: Optional[PremVerdict]
    approved: bool
    notes: Tuple[str, ...]


def compile_count_in_recursion(
    program: Program,
    graph: Optional[DependencyGraph] = None,
    assume: bool = False,
) -> Tuple[Program, List[CompileObligation]]:
    """Check every recursive count/sum by transferring max out of it.

    count is read as max of mcount and sum as max of msum; the aggregate may
    stay inside the recursion exactly when that max could be pushed back in,
    which the shadow classification decides. Approved rules are marked so
    stratification lets them through; `assume` marks them regardless (the
    trust-but-verify path) while still reporting the real verdict.
    """
    if graph is None:
        graph = build_dependency_graph(program)
    obligations: List[CompileObligation] = []
    approved: Set[str] = set(program.approved_recursive_aggregates)
    for r in program.rules:
        agg = r.aggregate()
        if agg is None or agg.kind not in ("count", "sum"):
            continue
        head_scc = graph.scc_of.get(r.head.predicate)
        recursive = any(
            isinstance(g, Atom)
            and g.predicate != RANGE_PREDICATE
            and graph.scc_of.get(g.predicate) == head_scc
            for g in r.body
        )
        if not recursive:
            continue
        notes: List[str] = []
        try:
            pos = _result_position(r, agg)
        except PremlogError as exc:
            obligations.append(CompileObligation(r.id, agg.kind, None, False, (str(exc),)))
            continue
        shadow_kind = "mcount" if agg.kind == "count" else "msum"
        shadow_goal = AggregateGoal(shadow_kind, agg.group_by, agg.measured, agg.result)
        shadow_rule = Rule(r.id, r.head, tuple(shadow_goal if g is agg else g for g in r.body))
        shadow = program.with_rules(shadow_rule if x.id == r.id else x for x in program.rules)
        constraint = Extremum(
            "max",
            r.head.predicate,
            tuple(i for i in range(len(r.head.args)) if i != pos),
            pos,
        )
        if agg.kind == "sum":
            _, warn = expand_msum(shadow_goal, shadow_rule)
            notes.extend(warn)
        verdict = classify_premability(shadow, constraint)
        ok = verdict.approved
        if ok:
            approved.add(r.id)
        elif assume:
            approved.add(r.id)
            notes.append("running unproven aggregate under trust-but-verify")
        obligations.append(CompileObligation(r.id, agg.kind, verdict, ok, tuple(notes)))
    out = replace(program, approved_recursive_aggregates=frozenset(approved))
    return out, obligations
