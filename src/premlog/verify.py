"""Empirical safety nets for constraint transfer.

The static classifier is conservative; when it rejects, or when a recursive
count/sum runs on trust, these checks probe the semantics directly:

  * check_prem_empirical samples random interpretations and tests the
    transfer equation gamma(T(I)) = gamma(T(gamma(I))) on each, looking for
    a concrete refutation;
  * brute_force_oracle evaluates a program the slow safe way (no pushing,
    monotonic aggregate forms, extrema as negation) for answer comparison;
  * trust_but_verify_run executes unproven aggregates natively, samples
    each one's transfer equation, and diffs the observable answers against
    the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .analysis import classify_premability, stratify
from .engine import (
    ConsequenceStep,
    EvalOptions,
    RunResult,
    apply_constraint,
    execute,
    naive_fixpoint,
    plan,
)
from .errors import AmbiguousCost, BudgetExceeded, NoCost, Overflow, TypeMismatch
from .model import (
    EXTREMA_KINDS,
    Constant,
    Constraint,
    Interpretation,
    Program,
    Rule,
    Value,
    Variable,
    constraint_conjuncts,
    constraint_predicate,
    facts_to_interp,
    final_rules,
    interp_eq,
    keep_extremal,
    tuple_sort_key,
    value_sort_key,
)
from .rewrite import CompileObligation, desugar_extremum, materialize_monotonic, standard_form

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

    @property
    def holds(self) -> bool:
        return self.verdict == "passed"


def _position_pools(program: Program, arities: Dict[str, int]) -> Dict[str, List[Set[Value]]]:
    """Plausible values per argument position, propagated head-to-body.

    Seeded from facts and rule constants, then each head position absorbs
    the pools of body positions sharing its variable, so sampled tuples for
    recursive predicates actually join with the fixed relations.
    """
    pools: Dict[str, List[Set[Value]]] = {
        p: [set() for _ in range(n)] for p, n in arities.items()
    }
    for predicate, values in program.facts:
        for i, v in enumerate(values):
            pools[predicate][i].add(v)
    for r in program.rules:
        for atom in [r.head] + r.regular_goals():
            for i, a in enumerate(atom.args):
                if isinstance(a, Constant):
                    pools[atom.predicate][i].add(a.value)
    for _ in range(len(program.rules) + 2):
        changed = False
        for r in program.rules:
            body_atoms = r.regular_goals()
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


def _sample_space(
    program: Program, constraint: Constraint, procedure: Optional[Sequence[Rule]]
) -> Tuple[List[Rule], List[str], Dict[str, List[List[Value]]]]:
    """The rules of one transfer check, the predicates its samples draw
    tuples for (in draw order), and the value pool of each of their argument
    positions. Without a procedure, the classifier's is used, or else every
    rule of the constrained predicate's recursion."""
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
            graph = program.graph
            scc = set(graph.scc_members(p0)) if p0 in graph.scc_of else {p0}
            procedure = [r for r in program.rules if r.head.predicate in scc]
    rules = list(procedure)
    if not rules:
        return rules, [], {}
    sampled_preds = sorted({r.head.predicate for r in rules})
    arities = program.arities()
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
    return rules, sampled_preds, pools


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
    constrained result is returned as a counterexample. A sample that the
    constraint leaves as it is (gamma(I) = I) cannot be one: after its
    first consequence step, which may raise, nothing more is evaluated.
    An mcount/msum ladder under a max is checked as its count/sum
    (rewrite.standard_form): max of msum is sum, so gamma(T) is the same,
    and a key derives its total instead of every natural up to it.
    """
    rules, sampled_preds, pools = _sample_space(program, constraint, procedure)
    if not rules:
        return PremCheckReport(0, "passed", None)

    # Only the sampled predicates and the constrained one differ between
    # samples, or between the two sides of the equation; the rest of the EDB
    # is compiled into the step once and joined back into a counterexample.
    touched = set(sampled_preds) | {constraint_predicate(constraint)}
    fixed = facts_to_interp(program.facts)
    rest = {p: rel for p, rel in fixed.items() if p not in touched}
    seeded = [(p, rel) for p, rel in fixed.items() if p in touched]
    constrained = {part.predicate for part in constraint_conjuncts(constraint)}
    step = ConsequenceStep(standard_form(rules, constraint), rest)

    # Each draw is what Random.randrange(n) returns on this interpreter,
    # inlined: getrandbits(n.bit_length()), drawn again while it is n or
    # more. So a seed draws the stream, and finds the counterexample, that
    # randint(0, 12) and randrange calls per predicate and position would.
    getrandbits = random.Random(seed).getrandbits
    sizes = _MAX_SAMPLE_SIZE + 1
    size_bits = sizes.bit_length()
    n_preds = len(sampled_preds)
    pred_bits = n_preds.bit_length()
    draws = [
        (pred, [(pool, len(pool), len(pool).bit_length()) for pool in pools[pred]])
        for pred in sampled_preds
    ]
    for n in range(1, samples + 1):
        interp = {p: set(rel) for p, rel in seeded}
        size = getrandbits(size_bits)
        while size >= sizes:
            size = getrandbits(size_bits)
        for _ in range(size):
            i = getrandbits(pred_bits)
            while i >= n_preds:
                i = getrandbits(pred_bits)
            pred, positions = draws[i]
            values = []
            for pool, m, bits in positions:
                j = getrandbits(bits)
                while j >= m:
                    j = getrandbits(bits)
                values.append(pool[j])
            interp.setdefault(pred, set()).add(tuple(values))
        try:
            derived = step(interp)
            before = apply_constraint(constraint, interp)
            if all(len(before[p]) == len(interp[p]) for p in constrained if p in interp):
                continue  # gamma(I) = I: both sides are gamma(T(I))
            lhs = apply_constraint(constraint, derived)
            rhs = apply_constraint(constraint, step(before))
        except (TypeMismatch, Overflow):
            continue
        if not interp_eq(lhs, rhs):
            return PremCheckReport(
                n, "falsified", ({**rest, **interp}, {**rest, **lhs}, {**rest, **rhs})
            )
    return PremCheckReport(samples, "passed", None)


# =====================================================================================
# SLOW ORACLE
# =====================================================================================


def brute_force_oracle(
    program: Program, options: Optional[EvalOptions] = None
) -> Interpretation:
    """Evaluate without any rewriting shortcuts.

    count/sum become their monotonic forms; is_min/is_max goals are desugared
    into negation of a witness predicate; the whole thing runs as a plain
    stratified naive fixpoint, whatever options.mode says (options supplies
    the budgets). A count-form predicate is projected
    to its maximal result (keep_extremal) as soon as its stratum completes, so
    later strata read the totals, not the partial tallies. Slow, but every step is
    ordinary Datalog.
    """
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
    db = facts_to_interp(prepared.facts)
    for stratum in strata:
        db, _ = naive_fixpoint(stratum.rules, db, options)
        for pred in stratum.predicates:
            pos = projections.get(pred)
            if pos is not None and db.get(pred):
                db[pred] = keep_extremal(db[pred], "max", pos)
    for pred in aux_preds:
        db.pop(pred, None)
    return db


# =====================================================================================
# TRUST BUT VERIFY
# =====================================================================================


@dataclass
class TrustReport:
    positivity: List[str]
    # The sampled transfer check of each unproven obligation with a verdict.
    sampled: List[Tuple[CompileObligation, PremCheckReport]]
    diffs: Dict[str, Tuple[List[Tuple], List[Tuple]]]  # pred -> (missing, unexpected)
    compared: List[str]
    unverified: str = ""  # set when the oracle gave no answers to compare

    @property
    def clean(self) -> bool:
        return not self.positivity and not self.diffs and not self.unverified


def trust_but_verify_run(
    program: Program, options: Optional[EvalOptions] = None, seed: int = 0
) -> Tuple[RunResult, TrustReport]:
    """Run unproven recursive aggregates natively, then audit the answers.

    Summand positivity is monitored during accumulation, each unproven
    aggregate's transfer equation is sampled (400 samples from seed), and
    the observable relations (final predicates plus the aggregate heads) are
    diffed against the oracle. A report that is not clean means the trusted
    run is unsound on this database, or, when the oracle runs out of budget,
    that it is unverified.
    """
    options = options or EvalOptions()
    planned = plan(program, trust=True)
    result = execute(planned, replace(options, monitor_positivity=True))
    # execute() appends the positivity monitor's lines to the plan's warnings;
    # they are reported once, as audit lines.
    positivity = result.warnings[len(planned.warnings):]
    del result.warnings[len(planned.warnings):]
    sampled = [
        (
            ob,
            check_prem_empirical(
                ob.verdict.program,
                ob.verdict.constraint,
                samples=400,
                seed=seed,
                procedure=ob.verdict.procedure,
            ),
        )
        for ob in result.obligations
        if not ob.approved and ob.verdict is not None
    ]
    try:
        oracle = brute_force_oracle(
            program, EvalOptions(mode="naive", max_tuples=options.max_tuples)
        )
    except BudgetExceeded as exc:
        unverified = f"oracle stopped ({exc}); answers not verified"
        return result, TrustReport(positivity, sampled, {}, [], unverified)

    finals = {r.head.predicate for r in final_rules(program.rules)}
    head_of = {r.id: r.head.predicate for r in program.rules}
    watched = sorted(finals | {head_of[ob.rule_id] for ob in result.obligations})

    diffs: Dict[str, Tuple[List[Tuple], List[Tuple]]] = {}
    for pred in watched:
        native = result.db.get(pred, set())
        expected = oracle.get(pred, set())
        if native != expected:
            diffs[pred] = (
                sorted(expected - native, key=tuple_sort_key),
                sorted(native - expected, key=tuple_sort_key),
            )
    return result, TrustReport(positivity, sampled, diffs, watched)
