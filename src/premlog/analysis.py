"""Static analysis: dependencies, strata, and constraint push classification.

The push classifier decides whether a pruning constraint attached to a final
rule may be applied inside the recursion that feeds it, that is, whether the
transfer equation gamma(T(I)) = gamma(T(gamma(I))) holds for every rule of
the recursion. Each kind of conjunct asks every rule one question (NEEDS):

  * a max needs inflation: raising a recursive body cost can only raise, or
    keep, the derivable head costs;
  * a min needs deflation: lowering a body cost can only lower, or keep, them;
  * a bound needs its transfer, which lacks_transfer decides per firing. A
    bound's gamma filters single tuples, so the equation holds when every
    firing from a body tuple the bound drops derives a head the bound drops.
    For D<B, each recursive body cost in turn is restricted to what the bound
    drops (x >= B), and the head cost's interval over the guard region must
    then lie in [B, inf); an empty region means no such firing. A lower bound
    is the mirror image. check calls a rule that transfers an upper (lower)
    bound ascending (descending).

`lacks` decides inflation and deflation, and the cost order that the
engine's greedy loop reads besides them: nondecreasing (for min: the head
cost never falls below a recursive body cost) and nonincreasing (for max).

A rejection quotes the reason of the property its conjunct needs. Checks run
on normalized guards: assignment definitions are substituted so a guard such
as Dy>Dx with Dy=Dx+Dxy is judged as Dxy>0, which does not mention the
recursive cost at all. Conjuncts are checked in order against the
already-rewritten procedure, so a pushed bound can disqualify a later
extremum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .errors import AmbiguousCost, NoCost, PremlogError, SafetyError, StratificationError
from .model import (
    COUNTING_KINDS,
    FLIP_OP,
    RANGE_PREDICATE,
    AggregateGoal,
    ArithExpr,
    Atom,
    Bound,
    Comparison,
    Constant,
    Constraint,
    Extremum,
    Goal,
    HeadExtremum,
    Negated,
    Program,
    Rule,
    Term,
    Variable,
    constraint_conjuncts,
    constraint_predicate,
    map_goal,
    term_variables,
)

# =====================================================================================
# DEPENDENCY GRAPH AND STRATIFICATION
# =====================================================================================

# The goals a non-monotonic aggregate ranges over, like negated goals, need
# the full extension of their predicates before the rule fires (mcount/msum
# are safe inside recursion). stratify reads the aggregate off an edge's rule,
# so the graph is structural: annotations and aggregates leave it unchanged.
NONMONOTONIC_KINDS = ("count", "sum", "is_min", "is_max")


@dataclass(frozen=True)
class DepEdge:
    head: str
    body: str
    rule_id: str
    negated: bool


@dataclass(frozen=True)
class DependencyGraph:
    edges: Tuple[DepEdge, ...]
    sccs: Tuple[Tuple[str, ...], ...]  # dependencies first
    scc_of: Dict[str, int]
    # Predicates that read themselves: members of a multi-predicate SCC, and
    # heads of self-loops.
    recursive: FrozenSet[str]

    def scc_members(self, predicate: str) -> Tuple[str, ...]:
        return self.sccs[self.scc_of[predicate]]


def build_dependency_graph(rules: Sequence[Rule]) -> DependencyGraph:
    """The graph of `rules` (facts add only isolated nodes): see Program.graph."""
    edges: List[DepEdge] = []
    adj: Dict[str, List[str]] = {}
    for r in rules:
        adj.setdefault(r.head.predicate, [])
        for g in r.body:
            if isinstance(g, Atom) and g.predicate != RANGE_PREDICATE:
                edges.append(DepEdge(r.head.predicate, g.predicate, r.id, False))
            elif isinstance(g, Negated):
                edges.append(DepEdge(r.head.predicate, g.atom.predicate, r.id, True))
    for e in edges:
        adj[e.head].append(e.body)
        adj.setdefault(e.body, [])
    sccs = _tarjan(sorted(adj), {p: sorted(set(ts)) for p, ts in adj.items()})
    scc_of = {p: i for i, comp in enumerate(sccs) for p in comp}
    recursive = {p for comp in sccs if len(comp) > 1 for p in comp}
    recursive.update(e.head for e in edges if e.head == e.body)
    return DependencyGraph(tuple(edges), tuple(sccs), scc_of, frozenset(recursive))


def _tarjan(nodes: Sequence[str], adj: Dict[str, Sequence[str]]):
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    onstack: Set[str] = set()
    stack: List[str] = []
    out: List[Tuple[str, ...]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(adj.get(root, ())))]
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    onstack.add(child)
                    work.append((child, iter(adj.get(child, ()))))
                    advanced = True
                    break
                if child in onstack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(tuple(sorted(comp)))
    return tuple(out)


@dataclass(frozen=True)
class Stratum:
    predicates: Tuple[str, ...]
    rules: Tuple[Rule, ...]


def stratify(program: Program) -> List[Stratum]:
    """Split rules into bottom-up evaluation strata.

    Negation and non-monotonic aggregates may not cross back into their own
    stratum; recursive count/sum is allowed only for rules that passed the
    push check and were marked approved.
    """
    graph = program.graph
    approved = program.approved_recursive_aggregates
    rule_of = {r.id: r for r in program.rules}
    for e in graph.edges:
        if graph.scc_of[e.head] != graph.scc_of[e.body]:
            continue
        if e.negated:
            raise StratificationError(
                f"negation of {e.body} inside its own recursive component", e.rule_id
            )
        agg = rule_of[e.rule_id].aggregate()
        if agg is not None and agg.kind in NONMONOTONIC_KINDS and e.rule_id not in approved:
            raise StratificationError(
                f"non-monotonic aggregate over {e.body} inside its own recursive "
                f"component (not approved for native evaluation)",
                e.rule_id,
            )
    strata: List[Stratum] = []
    for comp in graph.sccs:
        members = set(comp)
        rules = tuple(r for r in program.rules if r.head.predicate in members)
        if not rules:
            continue
        strata.append(Stratum(comp, rules))
    return strata


# =====================================================================================
# RULE SAFETY AND GOAL ORDER
# =====================================================================================


def _needs(goal: Goal, bound: AbstractSet[str]) -> Iterable[str]:
    """The variables goal waits for, given bound: none for an atom, the count
    of int_up2, T's for an assignment V=T (V unbound), else all of its own."""
    if isinstance(goal, Atom):
        return term_variables(goal.args[0]) if goal.predicate == RANGE_PREDICATE else ()
    if (
        isinstance(goal, Comparison)
        and goal.op == "="
        and isinstance(goal.left, Variable)
        and goal.left.name not in bound
    ):
        return term_variables(goal.right)
    return goal.variables()


def order_goals(
    rule: Rule, line: Optional[int] = None
) -> Tuple[Tuple[Goal, ...], Tuple[Comparison, ...]]:
    """The body goals of a safe rule in binding order, and its post filters.

    The order is greedy: the first goal, in body order, whose variables are
    bound (_needs) comes next, and binds its own. Goals that wait for a count
    or sum's result are its post filters; after the tally a rule sees only
    its group and its result (the max of the mcount/msum ladder), so they
    must be comparisons over those. Anything else raises SafetyError, at
    line: the head, the body goals in body order, the aggregate's coverage of
    the head, then the goals left waiting.
    """
    agg = rule.aggregate()
    result = agg.result if agg is not None else None
    pending = [g for g in rule.body if not isinstance(g, AggregateGoal)]
    bound: Set[str] = set()
    order: List[Goal] = []
    i = 0
    while i < len(pending):
        if bound.issuperset(_needs(pending[i], bound)):
            order.append(pending.pop(i))
            bound.update(order[-1].variables())
            i = 0
        else:
            i += 1
    seen = bound | {result} if result is not None else bound

    checks: List[Tuple[Iterable[str], str, AbstractSet[str]]] = [(rule.head.variables(), "head", seen)]
    for g in rule.body:  # a goal that ran has its variables bound
        if isinstance(g, AggregateGoal):
            checks.append((g.group_by, "aggregate group", bound))
            checks.append((g.measured, "aggregate input", bound))
        elif g not in pending:
            continue
        elif isinstance(g, Negated):
            checks.append((g.variables(), "negation", seen))
        elif isinstance(g, Comparison):  # V=T as an assignment: T's variables
            checks.append((_needs(g, ()), "comparison", seen))
    for names, where, known in checks:
        for v in names:
            if v not in known:
                raise SafetyError(f"rule {rule.id}: variable {v} in {where} is not bound", line)
    if agg is not None:
        covered = {result} if agg.kind in COUNTING_KINDS else set(agg.measured)
        stray = set(rule.head.variables()) - covered - set(agg.group_by)
        if stray:
            raise SafetyError(
                f"rule {rule.id}: head variables {sorted(stray)} not covered by the "
                f"{agg.kind} group",
                line,
            )

    post: List[Comparison] = []
    for g in pending:
        if isinstance(g, Comparison) and result is not None:
            outside = [v for v in g.variables() if v != result and v not in agg.group_by]
            if not outside:
                post.append(g)
                continue
            v = outside[0]
        else:
            v = next(v for v in g.variables() if v not in bound)
        where = "comparison" if isinstance(g, Comparison) else (
            "negation" if isinstance(g, Negated) else RANGE_PREDICATE
        )
        why = ""
        if v in bound:
            why = f" after the {agg.kind}, which binds only its group and result"
        elif v == result:
            why = f": only a comparison may read the {agg.kind} result"
        raise SafetyError(f"rule {rule.id}: variable {v} in {where} is not bound{why}", line)
    return tuple(order), tuple(post)


# =====================================================================================
# COST ARGUMENT PROPAGATION
# =====================================================================================


def find_cost_arguments(
    rules: Sequence[Rule], scc: Set[str], seed_pred: str, seed_pos: int
) -> Dict[str, int]:
    """Locate the cost argument position of every predicate in a component.

    Starting from the constrained predicate, the position is propagated to
    recursive body predicates through the head cost's defining expression.
    """
    costmap: Dict[str, int] = {seed_pred: seed_pos}
    changed = True
    while changed:
        changed = False
        for r in rules:
            pred = r.head.predicate
            if pred not in scc or pred not in costmap:
                continue
            pos = costmap[pred]
            if pos >= len(r.head.args):
                raise NoCost(f"{pred} has no argument at position {pos}")
            base = _base_cost_vars(r, r.head.args[pos])
            if not base:
                continue
            for g in r.body:
                if not isinstance(g, Atom) or g.predicate not in scc:
                    continue
                hits = [
                    i
                    for i, a in enumerate(g.args)
                    if isinstance(a, Variable) and a.name in base
                ]
                if len(hits) > 1:
                    raise AmbiguousCost(
                        f"rule {r.id}: several arguments of {g.predicate} feed the "
                        f"cost of {pred}"
                    )
                if not hits:
                    continue
                prior = costmap.get(g.predicate)
                if prior is None:
                    costmap[g.predicate] = hits[0]
                    changed = True
                elif prior != hits[0]:
                    raise AmbiguousCost(
                        f"{g.predicate} carries its cost at position {prior} and "
                        f"{hits[0]} in different rules"
                    )
    missing = sorted(scc - set(costmap))
    if missing:
        raise NoCost(f"no cost argument found for {', '.join(missing)}")
    return costmap


def _base_cost_vars(rule: Rule, cost_term: Term) -> Set[str]:
    if not isinstance(cost_term, Variable):
        return set()
    agg = rule.aggregate()
    if agg is not None and agg.result == cost_term.name:
        # Aggregate results are produced, not copied, so nothing to propagate.
        return set()
    return set(term_variables(subst_defs(cost_term, definitions(rule))))


# =====================================================================================
# TERM NORMALIZATION: DEFINITIONS, LINEAR FORMS, INTERVALS, DIRECTIONS
# =====================================================================================


def definitions(rule: Rule) -> Dict[str, Term]:
    """Assignments V=expr whose target is not bound by a positive goal."""
    atom_bound: Set[str] = set()
    for g in rule.body:
        if isinstance(g, Atom):
            atom_bound.update(g.variables())
    defs: Dict[str, Term] = {}
    for g in rule.body:
        if (
            isinstance(g, Comparison)
            and g.op == "="
            and isinstance(g.left, Variable)
            and g.left.name not in atom_bound
            and g.left.name not in defs
        ):
            defs[g.left.name] = g.right
    return defs


def subst_defs(t: Term, defs: Dict[str, Term], _depth: int = 0) -> Term:
    if _depth > 32:
        raise PremlogError("definition chain too deep")
    if isinstance(t, Variable) and t.name in defs:
        return subst_defs(defs[t.name], defs, _depth + 1)
    if isinstance(t, ArithExpr):
        return ArithExpr(t.op, subst_defs(t.left, defs, _depth + 1), subst_defs(t.right, defs, _depth + 1))
    return t


def linear_form(t: Term) -> Optional[Tuple[Dict[str, int], int]]:
    """Write t as sum(coeff*var) + const, or None if not linear over ints."""
    if isinstance(t, Constant):
        return ({}, t.value) if isinstance(t.value, int) else None
    if isinstance(t, Variable):
        return ({t.name: 1}, 0)
    lf_l = linear_form(t.left)
    lf_r = linear_form(t.right)
    if lf_l is None or lf_r is None:
        return None
    (cl, kl), (cr, kr) = lf_l, lf_r
    if t.op == "+":
        merged = dict(cl)
        for v, c in cr.items():
            merged[v] = merged.get(v, 0) + c
        return ({v: c for v, c in merged.items() if c != 0}, kl + kr)
    if t.op == "-":
        merged = dict(cl)
        for v, c in cr.items():
            merged[v] = merged.get(v, 0) - c
        return ({v: c for v, c in merged.items() if c != 0}, kl - kr)
    if t.op == "*":
        if not cl:
            return ({v: kl * c for v, c in cr.items() if kl * c != 0}, kl * kr)
        if not cr:
            return ({v: kr * c for v, c in cl.items() if kr * c != 0}, kr * kl)
        return None
    return None


Intv = Tuple[Optional[int], Optional[int]]  # (lo, hi); None encodes the open end

FULL: Intv = (None, None)


def _iadd(a: Intv, b: Intv) -> Intv:
    lo = None if a[0] is None or b[0] is None else a[0] + b[0]
    hi = None if a[1] is None or b[1] is None else a[1] + b[1]
    return (lo, hi)


def _ineg(a: Intv) -> Intv:
    return (None if a[1] is None else -a[1], None if a[0] is None else -a[0])


def _imul(a: Intv, b: Intv) -> Intv:
    import math

    def ends(iv: Intv):
        lo = -math.inf if iv[0] is None else iv[0]
        hi = math.inf if iv[1] is None else iv[1]
        return lo, hi

    def mul(p, q):
        if p == 0 or q == 0:
            return 0
        return p * q

    (alo, ahi), (blo, bhi) = ends(a), ends(b)
    prods = [mul(alo, blo), mul(alo, bhi), mul(ahi, blo), mul(ahi, bhi)]
    lo, hi = min(prods), max(prods)
    return (None if lo == -math.inf else int(lo), None if hi == math.inf else int(hi))


Region = Dict[str, Intv]


def interval(t: Term, region: Region) -> Intv:
    lf = linear_form(t)
    if lf is not None:
        coeffs, const = lf
        acc: Intv = (const, const)
        for v, c in coeffs.items():
            iv = region.get(v, FULL)
            acc = _iadd(acc, _imul((c, c), iv))
        return acc
    if isinstance(t, Constant):  # a symbol: linear_form reads integers and variables
        return FULL
    left = interval(t.left, region)
    right = interval(t.right, region)
    if t.op == "+":
        return _iadd(left, right)
    if t.op == "-":
        return _iadd(left, _ineg(right))
    return _imul(left, right)


def _combine_dir(a: str, b: str) -> str:
    if a == "indep":
        return b
    if b == "indep":
        return a
    if a == b:
        return a
    return "unknown"


def _flip_dir(d: str) -> str:
    return {"inc": "dec", "dec": "inc"}.get(d, d)


def direction(t: Term, x: str, region: Region) -> str:
    """Monotonicity of t in variable x over region: inc, dec, indep, unknown."""
    lf = linear_form(t)
    if lf is not None:
        c = lf[0].get(x, 0)
        return "indep" if c == 0 else ("inc" if c > 0 else "dec")
    if isinstance(t, Constant):  # a symbol, as in interval
        return "indep"
    dl = direction(t.left, x, region)
    dr = direction(t.right, x, region)
    if t.op == "+":
        return _combine_dir(dl, dr)
    if t.op == "-":
        return _combine_dir(dl, _flip_dir(dr))
    # product: need one factor independent of x with a provable sign
    if dl == "indep" and dr == "indep":
        return "indep"
    for const_side, var_dir in ((t.left, dr), (t.right, dl)):
        side_dir = direction(const_side, x, region)
        if side_dir != "indep" or var_dir == "indep":
            continue
        lo, hi = interval(const_side, region)
        if lo is not None and lo >= 0:
            return var_dir
        if hi is not None and hi <= 0:
            return _flip_dir(var_dir)
    return "unknown"


# =====================================================================================
# GUARD NORMALIZATION
# =====================================================================================


def _ceil_div(p: int, q: int) -> int:
    return -((-p) // q)


def _single_var_interval(coeff: int, const: int, op: str) -> Optional[Intv]:
    """Solve coeff*x + const OP 0 over the integers; None when op is != , and
    an empty interval (lo > hi) for an equality with no integer solution."""
    if op == "!=":
        return None
    if coeff < 0:
        coeff, const, op = -coeff, -const, FLIP_OP.get(op, op)
    if op == "=":
        if (-const) % coeff == 0:
            v = (-const) // coeff
            return (v, v)
        return (1, 0)
    if op == "<":
        return (None, _ceil_div(-const, coeff) - 1)
    if op == "<=":
        return (None, (-const) // coeff)
    if op == ">":
        return ((-const) // coeff + 1, None)
    if op == ">=":
        return (_ceil_div(-const, coeff), None)
    return None


def _solve_guard(left: Term, right: Term, op: str) -> Optional[Tuple[str, Intv]]:
    """The variable of a guard left OP right linear in one variable, and the
    interval the guard keeps it in; None for any other guard."""
    lf = linear_form(ArithExpr("-", left, right))
    if lf is None or len(lf[0]) != 1:  # linear_form keeps no zero coefficient
        return None
    [(v, c)] = lf[0].items()
    iv = _single_var_interval(c, lf[1], op)
    return None if iv is None else (v, iv)


def guard_region(guards: Sequence[Comparison], defs: Dict[str, Term]) -> Region:
    """Intervals implied by single-variable guards, raw and def-expanded."""
    region: Region = {}
    for g in guards:
        for left, right in ((g.left, g.right), (subst_defs(g.left, defs), subst_defs(g.right, defs))):
            solved = _solve_guard(left, right, g.op)
            if solved is not None:
                v, iv = solved
                region[v] = _meet(region.get(v, FULL), iv)
    return region


def _meet(a: Intv, b: Intv) -> Intv:
    """The intersection of two intervals; lo > hi when it is empty."""
    lo = a[0] if b[0] is None else (b[0] if a[0] is None else max(a[0], b[0]))
    hi = a[1] if b[1] is None else (b[1] if a[1] is None else min(a[1], b[1]))
    return (lo, hi)


def guard_effect(guard: Comparison, x: str, defs: Dict[str, Term], region: Region) -> str:
    """How a guard constrains growth of x: none, upper, lower, or breaks."""
    e = ArithExpr("-", subst_defs(guard.left, defs), subst_defs(guard.right, defs))
    d = direction(e, x, region)
    if d == "indep":
        return "none"
    if guard.op in ("=", "!="):
        return "breaks"
    if d == "unknown":
        return "breaks"
    op = guard.op
    if d == "dec":
        op = FLIP_OP[op]
    # e increases with x; guard is e OP 0
    return "lower" if op in (">", ">=") else "upper"


# =====================================================================================
# RULE COST VIEW
# =====================================================================================


@dataclass(frozen=True)
class RuleCostView:
    rule: Rule
    head_cost: Term
    body_costs: Tuple[Tuple[Atom, str], ...]
    defs: Dict[str, Term]
    guards: Tuple[Comparison, ...]
    region: Region


def make_cost_view(rule: Rule, costmap: Dict[str, int], scc: Set[str]) -> RuleCostView:
    """The rule's costs and guards. Each recursive body atom contributes one
    cost variable: a constant, an expression or a variable already read as a
    cost becomes a fresh variable (the atom's predicate, a prime and its
    place in the body) with a guard equating it to the argument."""
    defs = definitions(rule)
    guards = [
        g
        for g in rule.body
        if isinstance(g, Comparison) and not (g.op == "=" and isinstance(g.left, Variable) and g.left.name in defs and defs[g.left.name] is g.right)
    ]
    head_cost = rule.head.args[costmap[rule.head.predicate]]
    body_costs: List[Tuple[Atom, str]] = []
    for i, g in enumerate(rule.body):
        if isinstance(g, Atom) and g.predicate in scc and g.predicate in costmap:
            arg = g.args[costmap[g.predicate]]
            if isinstance(arg, Variable) and all(arg.name != x for _, x in body_costs):
                body_costs.append((g, arg.name))
            else:
                fresh = f"{g.predicate}'{i + 1}"
                guards.append(Comparison("=", Variable(fresh), arg))
                body_costs.append((g, fresh))
    region = guard_region(guards, defs)
    return RuleCostView(rule, head_cost, tuple(body_costs), defs, tuple(guards), region)


# =====================================================================================
# PRESERVATION AND MAPPING CHECKS
# =====================================================================================


def provably_positive(var: str, defs: Dict[str, Term], region: Region) -> bool:
    """Whether the guards, directly or through var's definition, keep var >= 1."""
    lo, _ = region.get(var, FULL)
    if lo is None or lo < 1:
        lo, _ = interval(subst_defs(Variable(var), defs), region)
    return lo is not None and lo >= 1


def _positivity_guards(view: RuleCostView, summand: str) -> Set[int]:
    """Indices of guards that only lower-bound the summand variable."""
    solved = [_solve_guard(g.left, g.right, g.op) for g in view.guards]
    return {i for i, s in enumerate(solved) if s is not None and s[0] == summand and s[1][1] is None}


def _noncost_argument_terms(view: RuleCostView, costmap: Dict[str, int], scc: Set[str]):
    rule = view.rule
    head_pos = costmap.get(rule.head.predicate)
    for i, a in enumerate(rule.head.args):
        if i != head_pos:
            yield a
    for g in rule.regular_goals():
        cost_pos = costmap.get(g.predicate) if g.predicate in scc else None
        for i, a in enumerate(g.args):
            if cost_pos is None or i != cost_pos:
                yield a


def _structural_reason(
    view: RuleCostView, side: str, costmap: Dict[str, int], scc: Set[str]
) -> str:
    """Why the guards or non-cost arguments break `side` (inflation or
    deflation), or "" when they do not.

    Names the first guard that caps the cost on that side or pins it, else
    the first non-cost argument that depends on the cost.
    """
    caps, end = {"inflation": ("upper", "above"), "deflation": ("lower", "below")}[side]
    agg = view.rule.aggregate()
    skip: Set[int] = set()
    if agg is not None and agg.kind in ("msum", "sum"):
        skip = _positivity_guards(view, agg.measured[-1])
    for _, x in view.body_costs:
        for i, g in enumerate(view.guards):
            if i in skip:
                continue
            eff = guard_effect(g, x, view.defs, view.region)
            if eff == caps:
                return f"guard {g!r} caps {x} from {end}"
            if eff == "breaks":
                return f"guard {g!r} pins {x}"
        for a in _noncost_argument_terms(view, costmap, scc):
            if not isinstance(a, Constant) and x in set(term_variables(subst_defs(a, view.defs))):
                return f"argument {a!r} depends on the cost {x}"
    return ""


def _head_is_result(view: RuleCostView) -> bool:
    """Whether the head cost is the result of the rule's count/sum."""
    agg, head = view.rule.aggregate(), view.head_cost
    return agg is not None and agg.kind in COUNTING_KINDS and isinstance(head, Variable) and head.name == agg.result


def lacks(rule: Rule, prop: str, costmap: Dict[str, int], scc: Set[str]) -> str:
    """Why `rule` lacks `prop`, or "" when it has it.

    prop is inflation, deflation, nondecreasing or nonincreasing (see the
    module docstring). Exit rules, with no recursive cost input, have all four.
    """
    view = make_cost_view(rule, costmap, scc)
    if not view.body_costs:
        return ""
    head = subst_defs(view.head_cost, view.defs)

    if prop in ("nondecreasing", "nonincreasing"):
        for _, x in view.body_costs:
            lo, hi = interval(ArithExpr("-", head, Variable(x)), view.region)
            if prop == "nondecreasing" and (lo is None or lo < 0):
                return f"head cost may drop below {x}"
            if prop == "nonincreasing" and (hi is None or hi > 0):
                return f"head cost may exceed {x}"
        return ""

    reason = _structural_reason(view, prop, costmap, scc)
    if reason:
        return reason
    agg = rule.aggregate()
    if _head_is_result(view):
        if prop == "deflation":
            return f"{agg.kind} results only grow"
        summed = agg.kind in ("msum", "sum")
        witnesses = set(agg.group_by) | set(agg.measured[:-1] if summed else agg.measured)
        for _, x in view.body_costs:
            if x in witnesses:
                return f"cost {x} selects the aggregated witnesses"
        summand = agg.measured[-1]
        if summed and not provably_positive(summand, view.defs, view.region):
            return f"summand {summand} is not provably positive"
        return ""
    for _, x in view.body_costs:
        if direction(head, x, view.region) not in ("inc", "indep"):
            return f"head cost may fall as {x} grows"
        if agg is not None and x in set(agg.group_by) | set(agg.measured):
            return f"cost {x} selects the aggregated witnesses"
    return ""


def lacks_transfer(rule: Rule, bound: Bound, costmap: Dict[str, int], scc: Set[str]) -> str:
    """Why a firing of `rule` from a body tuple that `bound` drops may derive
    a head the bound keeps, or "" when none can (see the module docstring)."""
    view = make_cost_view(rule, costmap, scc)
    if not view.body_costs:
        return ""
    if _head_is_result(view):
        return "aggregate result is not comparable to body costs"
    if type(bound.limit) is not int:
        return f"limit {bound.limit} is not an integer"
    # the least cost an upper bound drops, or the greatest a lower bound drops
    b = bound.limit + (bound.op == "<=") - (bound.op == ">=")
    dropped = (b, None) if bound.kind == "upper" else (None, b)
    head = subst_defs(view.head_cost, view.defs)
    for _, x in view.body_costs:
        region = {**view.region, x: _meet(view.region.get(x, FULL), dropped)}
        if any(lo is not None and hi is not None and lo > hi for lo, hi in region.values()):
            continue  # no firing reads a dropped tuple through x
        iv = interval(head, region)
        if _meet(iv, dropped) != iv:
            if bound.kind == "upper":
                return f"head cost may fall below {b} when {x} >= {b}"
            return f"head cost may exceed {b} when {x} <= {b}"
    return ""


# =====================================================================================
# COMPOSITION (UNFOLDING A COMPANION PREDICATE)
# =====================================================================================


def _rename_rule(rule: Rule, suffix: str) -> Rule:
    def rename(v: str) -> Term:
        return Variable(f"{v}__{suffix}")

    body = tuple(map_goal(g, rename) for g in rule.body)
    return Rule(rule.id, map_goal(rule.head, rename), body, rule.extremum)


def _resolve(subst: Dict[str, Term], t: Term) -> Term:
    # _unify_args binds only unbound variables, so every chain ends.
    while isinstance(t, Variable) and t.name in subst:
        t = subst[t.name]
    return t


def _unify_args(a: Tuple[Term, ...], b: Tuple[Term, ...]) -> Optional[Dict[str, Term]]:
    subst: Dict[str, Term] = {}
    for x, y in zip(a, b):
        x, y = _resolve(subst, x), _resolve(subst, y)
        if isinstance(x, Variable):
            if not (isinstance(y, Variable) and y.name == x.name):
                subst[x.name] = y
        elif isinstance(y, Variable):
            subst[y.name] = x
        elif isinstance(x, Constant) and isinstance(y, Constant):
            if x.value != y.value:
                return None
        else:
            return None
    return subst


def compose_procedure(program: Program, p0: str, companion: str) -> Optional[List[Rule]]:
    """Unfold `companion` goals inside the rules defining p0.

    Applicable when the recursion runs p0 -> companion -> p0 and the
    companion has plain conjunctive rules. Returns the composed rules or
    None when the shape does not allow it.
    """
    companion_rules = program.rules_defining(companion)
    if not companion_rules:
        return None
    recursive_defs = [
        r
        for r in companion_rules
        if any(isinstance(g, Atom) and g.predicate == p0 for g in r.body)
    ]
    if len(recursive_defs) != 1:
        return None
    if any(r.aggregate() is not None or r.extremum is not None for r in companion_rules):
        return None
    composed: List[Rule] = []
    for k, r in enumerate(program.rules_defining(p0)):
        goals = list(r.body)
        slots = [i for i, g in enumerate(goals) if isinstance(g, Atom) and g.predicate == companion]
        if not slots:
            composed.append(r)
            continue
        if len(slots) != 1:
            return None
        slot = slots[0]
        for q_rule in companion_rules:
            fresh = _rename_rule(q_rule, f"u{k}")
            subst = _unify_args(fresh.head.args, goals[slot].args)  # type: ignore[arg-type]
            if subst is None:
                continue

            def walk(v: str) -> Term:
                return _resolve(subst, Variable(v))

            unfolded = goals[:slot] + list(fresh.body) + goals[slot + 1 :]
            new_goals = [map_goal(g, walk) for g in unfolded]
            if None not in new_goals:
                head = map_goal(r.head, walk)
                composed.append(Rule(f"{r.id}+{fresh.id}", head, tuple(new_goals), r.extremum))
    return composed or None


# =====================================================================================
# CLASSIFICATION
# =====================================================================================


@dataclass(frozen=True)
class Rejection:
    conjunct: Union[Bound, Extremum]
    condition: str
    rule_id: str

    def __repr__(self) -> str:
        return f"cannot push {self.conjunct!r}: {self.condition}"


@dataclass(frozen=True)
class PremVerdict:
    program: Program
    constraint: Constraint
    costmap: Dict[str, int]
    plan: Tuple[Tuple[Union[Bound, Extremum], str], ...]
    rejection: Optional[Rejection]
    composed: bool
    procedure: Tuple[Rule, ...]  # the unrewritten working rules, composed if needed

    @property
    def approved(self) -> bool:
        return self.rejection is None


# The property every procedure rule needs for a conjunct of each kind to be
# pushed, and the rejection that names a rule lacking it. A bound's is its
# transfer (lacks_transfer), which check calls an ascending (descending) mapping.
NEEDS = {"min": "deflation", "max": "inflation", "upper": "ascending", "lower": "descending"}
_REJECTED = {
    "inflation": "not inflation-preserving",
    "deflation": "not deflation-preserving",
    "ascending": "not an ascending mapping",
    "descending": "not a descending mapping",
}


def classify_premability(program: Program, constraint: Constraint) -> PremVerdict:
    """Decide, conjunct by conjunct, whether a constraint can be pushed.

    Bounds are checked before extrema, and each approved conjunct is applied
    to the working copy of the procedure before the next check, so earlier
    pushes can disqualify later ones. A rejection names the failed condition
    and the smallest offending rule id.
    """
    graph = program.graph
    p0 = constraint_predicate(constraint)
    conjuncts = constraint_conjuncts(constraint)

    if p0 not in graph.scc_of:
        raise NoCost(f"{p0} is not defined in the program")
    if p0 not in graph.recursive:
        return PremVerdict(
            program,
            constraint,
            {},
            (),
            Rejection(conjuncts[0], f"{p0} is not recursive, nothing to push into", "-"),
            False,
            (),
        )

    scc = set(graph.scc_members(p0))
    composed = False
    if len(scc) == 1:
        working = list(program.rules_defining(p0))
    elif len(scc) == 2:
        companion = next(p for p in scc if p != p0)
        unfolded = compose_procedure(program, p0, companion)
        if unfolded is None:
            raise NoCost(
                f"recursion through {companion} cannot be composed into {p0}"
            )
        working = unfolded
        scc = {p0}
        composed = True
    else:
        working = [r for r in program.rules if r.head.predicate in scc]

    seed_pos = conjuncts[0].cost
    costmap = find_cost_arguments(working, scc, p0, seed_pos)
    procedure = tuple(working)
    p0_arity = next(r for r in working if r.head.predicate == p0).head.arity

    plan: List[Tuple[Union[Bound, Extremum], str]] = []
    rejection: Optional[Rejection] = None
    for conjunct in conjuncts:
        if isinstance(conjunct, Bound):
            if composed:
                rejection = Rejection(
                    conjunct, "bound push through a composed recursion is not supported", working[0].id
                )
                break
        else:
            rest = tuple(i for i in range(p0_arity) if i != conjunct.cost)
            if tuple(sorted(conjunct.group_by)) != rest:
                # the working set keys on every non-cost argument; a narrower
                # group would merge keys the constraint keeps apart
                rejection = Rejection(
                    conjunct, "the group must cover every argument except the cost", "-"
                )
                break
        need = NEEDS[conjunct.kind]
        decide, prop = (lacks_transfer, conjunct) if isinstance(conjunct, Bound) else (lacks, need)
        failures = [(r.id, why) for r in working if (why := decide(r, prop, costmap, scc))]
        if failures:
            rid, reason = min(failures)
            rejection = Rejection(conjunct, f"{_REJECTED[need]}: {reason}", rid)
            break
        safe = ", ".join(r.id for r in working)
        plan.append((conjunct, f"{conjunct.kind}-{need} ({need}-safe: {safe})"))
        working = [apply_conjunct(r, conjunct, costmap) for r in working]

    return PremVerdict(program, constraint, costmap, tuple(plan), rejection, composed, procedure)


def apply_conjunct(rule: Rule, conjunct: Union[Bound, Extremum], costmap: Dict[str, int]) -> Rule:
    pos = costmap[rule.head.predicate]
    if isinstance(conjunct, Bound):
        guard = Comparison(conjunct.op, rule.head.args[pos], Constant(conjunct.limit))
        return Rule(rule.id, rule.head, rule.body + (guard,), rule.extremum)
    return Rule(rule.id, rule.head, rule.body, HeadExtremum(conjunct.kind, False, pos))


def constraint_from_annotations(program: Program) -> Optional[Constraint]:
    """Recover the constraint a pre-pushed program enforces via head extrema."""
    for r in program.rules:
        if r.extremum is None or r.extremum.monotonic:
            continue
        pred = r.head.predicate
        group = tuple(i for i in range(len(r.head.args)) if i != r.extremum.cost)
        return Extremum(r.extremum.kind, pred, group, r.extremum.cost)
    return None
