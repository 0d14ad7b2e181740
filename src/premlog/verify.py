"""Empirical safety nets for constraint transfer.

The static classifier is conservative; when it rejects, or when a recursive
count/sum runs on trust, these checks probe the semantics directly:

  * check_prem_empirical samples random interpretations and tests the
    transfer equation gamma(T(I)) = gamma(T(gamma(I))) on each, looking for
    a concrete refutation;
  * brute_force_oracle evaluates a program the slow safe way (no pushing,
    monotonic aggregate forms, extrema as negation) for answer comparison;
  * trust_but_verify_run executes unproven aggregates natively and then
    diffs the observable answers against the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .analysis import build_dependency_graph, classify_premability, stratify
from .engine import (
    EvalOptions,
    RunResult,
    apply_constraint,
    apply_ico,
    naive_fixpoint,
    run_program,
    seminaive_fixpoint,
)
from .errors import AmbiguousCost, NoCost, Overflow, TypeMismatch
from .model import (
    EXTREMA_KINDS,
    RANGE_PREDICATE,
    Atom,
    Constant,
    Constraint,
    Interpretation,
    Program,
    Rule,
    Value,
    Variable,
    constraint_predicate,
    facts_to_interp,
    final_rules,
    interp_copy,
    interp_eq,
    tuple_sort_key,
    value_sort_key,
)
from .rewrite import desugar_extremum, materialize_monotonic

# =====================================================================================
# SAMPLED TRANSFER CHECK
# =====================================================================================

_INT_POOL: Tuple[int, ...] = tuple(range(-2, 13))
_MAX_POOL = 24
_MAX_SAMPLE_SIZE = 12


@dataclass(frozen=True)
class PremCheckReport:
    samples: int
    verdict: str  # 'passed' | 'falsified'
    counterexample: Optional[Tuple[Interpretation, Interpretation, Interpretation]]
    seed: int

    @property
    def holds(self) -> bool:
        return self.verdict == "passed"


def _arities(program: Program) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for r in list(program.rules) + list(program.support_rules):
        out.setdefault(r.head.predicate, r.head.arity)
        for g in r.body:
            if isinstance(g, Atom) and g.predicate != RANGE_PREDICATE:
                out.setdefault(g.predicate, g.arity)
    for f in program.facts:
        out.setdefault(f.predicate, f.arity)
    return out


def _position_pools(program: Program, arities: Dict[str, int]) -> Dict[str, List[Set[Value]]]:
    """Plausible values per argument position, propagated head-to-body.

    Seeded from facts and rule constants, then each head position absorbs
    the pools of body positions sharing its variable, so sampled tuples for
    recursive predicates actually join with the fixed relations.
    """
    pools: Dict[str, List[Set[Value]]] = {
        p: [set() for _ in range(n)] for p, n in arities.items()
    }
    for f in program.facts:
        for i, a in enumerate(f.args):
            pools[f.predicate][i].add(a.value)
    for r in program.rules:
        atoms = [r.head] + [g for g in r.body if isinstance(g, Atom) and g.predicate != RANGE_PREDICATE]
        for atom in atoms:
            for i, a in enumerate(atom.args):
                if isinstance(a, Constant):
                    pools[atom.predicate][i].add(a.value)
    for _ in range(len(program.rules) + 2):
        changed = False
        for r in program.rules:
            body_atoms = [g for g in r.body if isinstance(g, Atom) and g.predicate != RANGE_PREDICATE]
            for i, a in enumerate(r.head.args):
                if not isinstance(a, Variable):
                    continue
                target = pools[r.head.predicate][i]
                for g in body_atoms:
                    for j, b in enumerate(g.args):
                        if isinstance(b, Variable) and b.name == a.name:
                            extra = pools[g.predicate][j] - target
                            if extra:
                                target.update(extra)
                                changed = True
        if not changed:
            break
    return pools


def _finalize_pool(values: Set[Value], ints_only: bool) -> List[Value]:
    if ints_only:
        values = {v for v in values if isinstance(v, int)}
    if not values or all(isinstance(v, int) for v in values):
        values = set(values) | set(_INT_POOL)
    return sorted(values, key=value_sort_key)[:_MAX_POOL]


def check_prem_empirical(
    program: Program,
    constraint: Constraint,
    samples: int = 1000,
    seed: int = 0,
    procedure: Optional[Sequence[Rule]] = None,
) -> PremCheckReport:
    """Test the transfer equation on random interpretations.

    The fixed facts are kept in every sample; the recursive predicates get
    random relations of up to 12 tuples drawn from the inferred pools. Any
    sample where constraining before the consequence step changes the
    constrained result is re-run once and returned as a counterexample.
    """
    p0 = constraint_predicate(constraint)
    costmap: Dict[str, int] = {}
    if procedure is None:
        try:
            verdict = classify_premability(program, constraint)
            procedure = verdict.procedure
            costmap = verdict.costmap
        except (NoCost, AmbiguousCost):
            procedure = ()
        if not procedure:
            graph = build_dependency_graph(program)
            scc = set(graph.scc_members(p0)) if p0 in graph.scc_of else {p0}
            procedure = [r for r in program.rules if r.head.predicate in scc]
    rules = list(procedure)
    if not rules:
        return PremCheckReport(0, "passed", None, seed)

    sampled_preds = sorted({r.head.predicate for r in rules})
    arities = _arities(program)
    for r in rules:  # composed rules may not appear in the program
        arities.setdefault(r.head.predicate, r.head.arity)
    raw_pools = _position_pools(program, arities)
    pools: Dict[str, List[List[Value]]] = {}
    for pred in sampled_preds:
        cost = costmap.get(pred)
        pools[pred] = [
            _finalize_pool(raw_pools.get(pred, [set()] * arities[pred])[i], ints_only=(i == cost))
            for i in range(arities[pred])
        ]

    fixed = facts_to_interp(program.facts)
    rng = random.Random(seed)
    for n in range(1, samples + 1):
        interp = interp_copy(fixed)
        for _ in range(rng.randint(0, _MAX_SAMPLE_SIZE)):
            pred = sampled_preds[rng.randrange(len(sampled_preds))]
            t = tuple(
                pool[rng.randrange(len(pool))] for pool in pools[pred]
            )
            interp.setdefault(pred, set()).add(t)
        try:
            lhs = apply_constraint(constraint, apply_ico(rules, interp))
            rhs = apply_constraint(
                constraint, apply_ico(rules, apply_constraint(constraint, interp))
            )
        except (TypeMismatch, Overflow):
            continue
        if not interp_eq(lhs, rhs):
            again_l = apply_constraint(constraint, apply_ico(rules, interp))
            again_r = apply_constraint(
                constraint, apply_ico(rules, apply_constraint(constraint, interp))
            )
            if not interp_eq(again_l, again_r):
                return PremCheckReport(n, "falsified", (interp, lhs, rhs), seed)
    return PremCheckReport(samples, "passed", None, seed)


# =====================================================================================
# SLOW ORACLE
# =====================================================================================


def brute_force_oracle(
    program: Program, options: Optional[EvalOptions] = None
) -> Interpretation:
    """Evaluate without any rewriting shortcuts.

    count/sum become their monotonic forms; is_min/is_max goals are desugared
    into negation of a witness predicate; the whole thing runs as a plain
    stratified fixpoint, naive by default. A count-form predicate is projected
    to its maximal result as soon as its stratum completes, so later strata
    read the totals, not the partial tallies. Slow, but every step is
    ordinary Datalog.
    """
    options = options or EvalOptions(mode="naive")
    mono, projections = materialize_monotonic(program)
    rules: List[Rule] = []
    aux_preds: Set[str] = set()
    for r in mono.rules:
        agg = r.aggregate()
        if agg is not None and agg.kind in EXTREMA_KINDS:
            main, aux = desugar_extremum(r)
            rules.extend((main, aux))
            aux_preds.add(aux.head.predicate)
        else:
            rules.append(r)
    prepared = mono.with_rules(tuple(rules))
    strata = stratify(prepared)
    fixpoint = naive_fixpoint if options.mode == "naive" else seminaive_fixpoint
    db = facts_to_interp(prepared.facts)
    for stratum in strata:
        db, _ = fixpoint(stratum.rules, db, options)
        for pred in stratum.predicates:
            pos = projections.get(pred)
            if pos is not None and db.get(pred):
                db[pred] = _max_project(db[pred], pos)
    for pred in aux_preds:
        db.pop(pred, None)
    return db


def _max_project(rel: Set[Tuple], pos: int) -> Set[Tuple]:
    best: Dict[Tuple, int] = {}
    for t in rel:
        key = t[:pos] + t[pos + 1 :]
        if key not in best or t[pos] > best[key]:
            best[key] = t[pos]
    return {t for t in rel if best[t[:pos] + t[pos + 1 :]] == t[pos]}


# =====================================================================================
# TRUST BUT VERIFY
# =====================================================================================


@dataclass
class TrustReport:
    positivity: List[str]
    diffs: Dict[str, Tuple[List[Tuple], List[Tuple]]]  # pred -> (missing, unexpected)
    compared: List[str]

    @property
    def clean(self) -> bool:
        return not self.positivity and not self.diffs


def trust_but_verify_run(
    program: Program, options: Optional[EvalOptions] = None
) -> Tuple[RunResult, TrustReport]:
    """Run unproven recursive aggregates natively, then audit the answers.

    Summand positivity is monitored during accumulation, and the observable
    relations (final predicates plus the aggregate heads) are diffed against
    the oracle. A non-empty report means the trusted run is unsound on this
    database.
    """
    options = options or EvalOptions()
    result = run_program(program, replace(options, monitor_positivity=True), trust_aggregates=True)
    oracle = brute_force_oracle(
        program, EvalOptions(mode="naive", max_tuples=options.max_tuples)
    )

    finals = {r.head.predicate for r in final_rules(program.rules)}
    watched = sorted(finals | _obligation_heads(program, result))

    positivity = [w for w in result.warnings if "non-positive summand" in w]
    diffs: Dict[str, Tuple[List[Tuple], List[Tuple]]] = {}
    for pred in watched:
        native = result.db.get(pred, set())
        expected = oracle.get(pred, set())
        if native != expected:
            diffs[pred] = (
                sorted(expected - native, key=tuple_sort_key),
                sorted(native - expected, key=tuple_sort_key),
            )
    return result, TrustReport(positivity, diffs, watched)


def _obligation_heads(program: Program, result: RunResult) -> Set[str]:
    heads: Set[str] = set()
    by_id = {r.id: r for r in program.rules}
    for ob in result.obligations:
        rule = by_id.get(ob.rule_id)
        if rule is not None:
            heads.add(rule.head.predicate)
    return heads
