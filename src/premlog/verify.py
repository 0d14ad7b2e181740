"""Empirical safety nets for constraint transfer.

The static classifier is conservative; when it rejects, or when a recursive
count/sum runs on trust, these checks probe the semantics directly:

  * check_prem_empirical samples random interpretations and tests the
    transfer equation gamma(T(I)) = gamma(T(gamma(I))) on each, looking for
    a concrete refutation; it checks 64 samples at a time, their tuples
    told apart by a leading tag column, with one consequence step per side;
  * brute_force_oracle evaluates a program the slow safe way (no pushing,
    monotonic aggregate forms, extrema as negation) for answer comparison;
  * trust_but_verify_run executes unproven aggregates natively, samples
    each one's transfer equation, and diffs the observable answers against
    the oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .analysis import classify_premability, order_goals, stratify
from .engine import (
    ConsequenceStep,
    EvalOptions,
    EvalStats,
    RunResult,
    apply_constraint,
    execute,
    naive_fixpoint,
)
from .errors import AmbiguousCost, BudgetExceeded, NoCost, Overflow, PremlogError, TypeMismatch
from .model import (
    EXTREMA_KINDS,
    AggregateGoal,
    Atom,
    Bound,
    Constant,
    Constraint,
    Interpretation,
    Negated,
    Program,
    Rule,
    Value,
    Variable,
    constraint_conjuncts,
    constraint_predicate,
    final_rules,
    keep_extremal,
    make_constraint,
    runs_to_interp,
    tuple_sort_key,
    value_sort_key,
)
from .rewrite import CompileObligation, desugar_extremum, materialize_monotonic, plan, standard_form

# =====================================================================================
# SAMPLED TRANSFER CHECK
# =====================================================================================

_INT_POOL: Tuple[int, ...] = tuple(range(-2, 13))
_MAX_POOL = 24
_MAX_SAMPLE_SIZE = 12
# Samples checked by one tagged consequence step; the tag column and the
# relation of a batch's tags have names no parsed program can use.
_BATCH_SIZE = 64
_TAG = "#tag"
_BATCH_PRED = "#batch"


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
    for predicate, rows in program.runs:
        for pool, column in zip(pools[predicate], zip(*rows)):
            pool.update(column)
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
    rule of the constrained predicate's recursion; NoCost if there is none."""
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
        raise NoCost(f"no rule defines {p0}, so no sample can test its constraint")
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


def _tag_rules(rules: Sequence[Rule], tagged: Set[str]) -> List[Rule]:
    """rules over relations with a leading tag column: each atom over a tagged
    predicate has the tag first and each aggregate groups by it first; a rule
    that reads no tagged predicate positively reads the tags of _BATCH_PRED."""
    tag = Variable(_TAG)

    def atom(a: Atom) -> Atom:
        return Atom(a.predicate, (tag,) + a.args) if a.predicate in tagged else a

    out = []
    for r in rules:
        reads = any(isinstance(g, Atom) and g.predicate in tagged for g in r.body)
        body = [] if reads else [Atom(_BATCH_PRED, (tag,))]
        for g in r.body:
            if isinstance(g, Atom):
                g = atom(g)
            elif isinstance(g, Negated):
                g = Negated(atom(g.atom))
            elif isinstance(g, AggregateGoal):
                g = replace(g, group_by=(_TAG,) + g.group_by)
            body.append(g)
        extremum = r.extremum and replace(r.extremum, cost=r.extremum.cost + 1)
        out.append(replace(r, head=atom(r.head), body=tuple(body), extremum=extremum))
    return out


def _tag_constraint(constraint: Constraint) -> Constraint:
    """constraint on relations with a leading tag column, each tag apart."""
    return make_constraint(
        replace(part, cost=part.cost + 1)
        if isinstance(part, Bound)
        else replace(part, group_by=(0,) + tuple(g + 1 for g in part.group_by), cost=part.cost + 1)
        for part in constraint_conjuncts(constraint)
    )


def _by_tag(interp: Interpretation) -> Dict[int, Interpretation]:
    """The rows of interp by tag, still tagged, in the relations that hold them."""
    out: Dict[int, Interpretation] = {}
    for p, rel in interp.items():
        for row in rel:
            out.setdefault(row[0], {}).setdefault(p, set()).add(row)
    return out


def _only(interp: Interpretation, tags: Set[int]) -> Interpretation:
    return {p: {row for row in rel if row[0] in tags} for p, rel in interp.items()}


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
    constrained result is returned as a counterexample, the first in draw
    order. A sample that the constraint leaves as it is (gamma(I) = I)
    cannot be one, and nothing of it is evaluated but gamma(I).

    Samples are checked in batches of 64. Each tuple carries a leading tag
    column, its sample's index in the batch, and so do the rules and the
    constraint: one tagged step evaluates T on the whole batch. When gamma(I)
    or a step raises, the batch's samples are checked again one by one, in
    order: after a step, each sample gamma changes starts at its own step,
    from its rows of the batch's gamma(I). TypeMismatch and Overflow skip
    only the samples that raise them, and the first BudgetExceeded or
    counterexample is the one a sample-by-sample check meets.
    An mcount/msum ladder under a max is checked as its count/sum
    (rewrite.standard_form): max of msum is sum, so gamma(T) is the same,
    and a key derives its total instead of every natural up to it.
    """
    rules, sampled_preds, pools = _sample_space(program, constraint, procedure)

    # Only the sampled predicates and the constrained one differ between
    # samples, or between the two sides of the equation; the rest of the EDB
    # is compiled into the step once and joined back into a counterexample.
    cp = constraint_predicate(constraint)
    touched = set(sampled_preds) | {cp}
    fixed = runs_to_interp(program.runs)
    rest = {p: rel for p, rel in fixed.items() if p not in touched}
    seeded = [(p, rel) for p, rel in fixed.items() if p in touched]
    step = ConsequenceStep(_tag_rules(standard_form(rules, constraint), touched), rest)
    gamma = partial(apply_constraint, _tag_constraint(constraint))

    def refute(
        interp: Interpretation, tags: Sequence[int], before: Optional[Interpretation] = None
    ) -> Optional[Tuple[int, Tuple]]:
        """The first of tags whose sample in interp refutes the equation, and
        its counterexample, untagged; None if there is none. Given before,
        gamma(interp), every sample in interp is one gamma changes."""
        live = tags
        try:
            if before is None:
                before = gamma(interp)
                live = {row[0] for row in interp.get(cp, set()) - before.get(cp, set())}
                if not live:
                    return None
                if len(live) < len(tags):
                    interp, before = _only(interp, live), _only(before, live)
            batch = {(t,) for t in live}
            t_i = step({**interp, _BATCH_PRED: batch})
            lhs = gamma(t_i)
            t_gi = step({**before, _BATCH_PRED: batch})
            rhs = gamma(t_gi)
        except PremlogError as exc:
            if len(live) > 1:  # check the samples one by one, in order
                parts = _by_tag(interp)
                if before is None:  # gamma(I) raised: each sample computes its own
                    singles = (refute(parts[t], (t,)) for t in sorted(parts))
                else:  # each starts at its step, from its rows of gamma(I)
                    befores = _by_tag(before)
                    singles = (refute(parts[t], (t,), befores.get(t, {})) for t in sorted(live))
                return next(filter(None, singles), None)
            if isinstance(exc, (TypeMismatch, Overflow)):
                return None
            raise
        wrong = {row[0] for p in {*lhs, *rhs} for row in lhs.get(p, set()) ^ rhs.get(p, set())}
        if not wrong:
            return None
        t = min(wrong)
        # A sample-by-sample check has the relations that hold a row of t,
        # and every relation of I on its constrained-before side.
        keys = lambda rel: {p for p, r in rel.items() if any(x[0] == t for x in r)} - {_BATCH_PRED}
        untag = lambda rel, ps: {p: {row[1:] for row in rel.get(p, ()) if row[0] == t} for p in ps}
        sample = untag(interp, keys(interp))
        sides = (sample, untag(lhs, keys(t_i)), untag(rhs, sample.keys() | keys(t_gi)))
        return t, tuple({**rest, **side} for side in sides)

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
    for start in range(0, samples, _BATCH_SIZE):
        tags = range(min(_BATCH_SIZE, samples - start))
        interp = {p: {(t, *row) for t in tags for row in rel} for p, rel in seeded}
        for t in tags:
            size = getrandbits(size_bits)
            while size >= sizes:
                size = getrandbits(size_bits)
            for _ in range(size):
                i = getrandbits(pred_bits)
                while i >= n_preds:
                    i = getrandbits(pred_bits)
                pred, positions = draws[i]
                values = [t]
                for pool, m, bits in positions:
                    j = getrandbits(bits)
                    while j >= m:
                        j = getrandbits(bits)
                    values.append(pool[j])
                interp.setdefault(pred, set()).add(tuple(values))
        found = refute(interp, tags)
        if found is not None:
            return PremCheckReport(start + found[0] + 1, "falsified", found[1])
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
    the budgets; one tuple budget covers every stratum). A count-form
    predicate is projected to its maximal result (keep_extremal) as soon as
    its stratum completes, so later strata read the totals, not the partial
    tallies. Slow, but every step is ordinary Datalog. A rule that is not
    safe raises SafetyError (analysis.order_goals), as it does in run_program.
    """
    mono, projections = materialize_monotonic(program)
    rules: List[Rule] = []
    aux_preds: Set[str] = set()
    for r in mono.rules:
        agg = r.aggregate()
        if agg is not None and agg.kind in EXTREMA_KINDS:
            order_goals(r)  # the desugared pair could run a rule the engine refuses
            main, aux = desugar_extremum(r)
            rules.extend((main, aux))
            aux_preds.add(aux.head.predicate)
        else:
            rules.append(r)
    prepared = mono.with_rules(tuple(rules))
    strata = stratify(prepared)
    db = runs_to_interp(prepared.runs)
    stats = EvalStats()
    for stratum in strata:
        db, _ = naive_fixpoint(stratum.rules, db, options, None, stats)
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
    unverified: str = ""  # set when the oracle gave no answers to compare


def trust_but_verify_run(
    program: Program, options: Optional[EvalOptions] = None, seed: int = 0
) -> Tuple[RunResult, TrustReport]:
    """Run unproven recursive aggregates natively, then audit the answers.

    Summand positivity is monitored during accumulation, each unproven
    aggregate's transfer equation is sampled (400 samples from seed), and
    the observable relations (final predicates plus the aggregate heads) are
    diffed against the oracle. A report with positivity lines or diffs means
    the trusted run is unsound on this database; unverified, that the oracle
    ran out of budget.
    """
    options = options or EvalOptions()
    planned = plan(program, trust=True)
    result = execute(planned, replace(options, monitor_positivity=True))
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
        return result, TrustReport(result.positivity, sampled, {}, unverified)

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
    return result, TrustReport(result.positivity, sampled, diffs)
