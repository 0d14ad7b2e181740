"""Bottom-up evaluation: naive and seminaive fixpoints under constraints.

Both modes share one rule executor. The naive loop literally iterates
I <- gamma(T(I u edb)): every sweep recomputes all consequences, then the
working constraints (head extrema, implicit count/sum projection) filter the
result; the loop stops when the interpretation repeats, and the confirming
sweep is counted. The seminaive loop keeps per-predicate working sets:

  * a min/max head annotation admits a tuple only if it beats the incumbent
    for its key; the beaten tuple is deleted from the store and from any
    pending delta, so it never fires a rule;
  * mmin/mmax admit improving tuples without deleting older ones;
  * mcount/msum emit incrementally as fresh witnesses arrive;
  * count/sum accumulate witnesses silently and release their totals only
    when the fixpoint quiesces, which may restart the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .analysis import (
    DependencyGraph,
    PremVerdict,
    Rejection,
    build_dependency_graph,
    classify_premability,
    stratify,
)
from .errors import (
    AmbiguousCost,
    BudgetExceeded,
    NoCost,
    PremlogError,
    SafetyError,
    TypeMismatch,
)
from .model import (
    EXTREMA_KINDS,
    RANGE_PREDICATE,
    AggregateGoal,
    Atom,
    Bound,
    Comparison,
    Constant,
    Constraint,
    GroundTuple,
    Interpretation,
    Negated,
    Program,
    Rule,
    Variable,
    constraint_conjuncts,
    constraint_predicate,
    compare_values,
    eval_interpreted,
    eval_term,
    final_rules,
    interp_copy,
    substitute,
)
from .rewrite import CompileObligation, RewriteTrace, compile_count_in_recursion, push_constraint

# =====================================================================================
# OPTIONS AND STATS
# =====================================================================================


@dataclass
class EvalOptions:
    mode: str = "seminaive"
    max_iterations: Optional[int] = None
    max_tuples: int = 10_000_000
    monitor_positivity: bool = False


@dataclass
class EvalStats:
    iterations: int = 0
    derived: int = 0  # produced head tuples, duplicates and rejections included
    retained: int = 0  # tuples that entered a store
    deleted: int = 0  # tuples displaced by a working constraint
    wall_ms: float = 0.0

    def merge(self, other: "EvalStats") -> None:
        self.iterations += other.iterations
        self.derived += other.derived
        self.retained += other.retained
        self.deleted += other.deleted
        self.wall_ms += other.wall_ms


# =====================================================================================
# STORES AND WORKING-SET INDEXES
# =====================================================================================


class RelationStore:
    """A set of ground tuples with lazily built positional hash indexes."""

    __slots__ = ("tuples", "indexes")

    def __init__(self, tuples: Optional[Iterable[GroundTuple]] = None):
        self.tuples: Set[GroundTuple] = set(tuples) if tuples else set()
        self.indexes: Dict[Tuple[int, ...], Dict[Tuple, Set[GroundTuple]]] = {}

    def __len__(self) -> int:
        return len(self.tuples)

    def __contains__(self, t: GroundTuple) -> bool:
        return t in self.tuples

    def add(self, t: GroundTuple) -> bool:
        if t in self.tuples:
            return False
        self.tuples.add(t)
        for positions, ix in self.indexes.items():
            key = tuple(t[p] for p in positions)
            ix.setdefault(key, set()).add(t)
        return True

    def remove(self, t: GroundTuple) -> None:
        self.tuples.discard(t)
        for positions, ix in self.indexes.items():
            key = tuple(t[p] for p in positions)
            bucket = ix.get(key)
            if bucket is not None:
                bucket.discard(t)

    def match(self, positions: Tuple[int, ...], key: Tuple) -> Iterable[GroundTuple]:
        if not positions:
            return self.tuples
        ix = self.indexes.get(positions)
        if ix is None:
            ix = {}
            for t in self.tuples:
                ix.setdefault(tuple(t[p] for p in positions), set()).add(t)
            self.indexes[positions] = ix
        return ix.get(key, ())


@dataclass(frozen=True)
class ChangeSet:
    inserted: bool
    displaced: Optional[GroundTuple] = None


class ExtremaIndex:
    """One tuple per key; a newcomer wins only strictly, ties keep the incumbent."""

    __slots__ = ("kind", "cost", "best")

    def __init__(self, kind: str, cost: int):
        self.kind = kind
        self.cost = cost
        self.best: Dict[Tuple, GroundTuple] = {}

    def _key(self, t: GroundTuple) -> Tuple:
        c = self.cost
        return t[:c] + t[c + 1 :]

    def insert(self, t: GroundTuple) -> ChangeSet:
        v = t[self.cost]
        if not isinstance(v, int):
            raise TypeMismatch(f"extremum over non-integer value {v!r}")
        key = self._key(t)
        incumbent = self.best.get(key)
        if incumbent is None:
            self.best[key] = t
            return ChangeSet(True)
        held = incumbent[self.cost]
        better = v < held if self.kind == "min" else v > held
        if not better:
            return ChangeSet(False)
        self.best[key] = t
        return ChangeSet(True, incumbent)


class MonotonicIndex:
    """Admit strictly improving tuples per key; never delete admitted ones."""

    __slots__ = ("kind", "cost", "best")

    def __init__(self, kind: str, cost: int):
        self.kind = kind
        self.cost = cost
        self.best: Dict[Tuple, int] = {}

    def insert(self, t: GroundTuple) -> bool:
        v = t[self.cost]
        if not isinstance(v, int):
            raise TypeMismatch(f"extremum over non-integer value {v!r}")
        c = self.cost
        key = t[:c] + t[c + 1 :]
        held = self.best.get(key)
        if held is not None and (v >= held if self.kind == "min" else v <= held):
            return False
        self.best[key] = v
        return True


# =====================================================================================
# RULE PLANS
# =====================================================================================


@dataclass(frozen=True)
class _Scan:
    atom: Atom
    positions: Tuple[int, ...]  # statically bound positions, index key order
    key_parts: Tuple[Tuple[str, object], ...]  # ('c', value) | ('v', name) per position
    binds: Tuple[Tuple[int, object], ...]  # remaining positions: ('c', value)|('v', name)
    scc_ordinal: Optional[int]


@dataclass(frozen=True)
class _Plan:
    rule: Rule
    steps: Tuple[object, ...]  # _Scan | Comparison | Negated | range Atom
    n_scc: int
    agg: Optional[AggregateGoal]
    post_filters: Tuple[Comparison, ...]
    head: Tuple[Tuple[str, object], ...]  # ('c', value) | ('v', name)


def compile_plan(rule: Rule, scc_preds: Set[str]) -> _Plan:
    agg = rule.aggregate()
    pending: List[object] = [g for g in rule.body if not isinstance(g, AggregateGoal)]
    bound: Set[str] = set()
    steps: List[object] = []
    post: List[Comparison] = []
    n_scc = 0

    def ready(g) -> bool:
        if isinstance(g, Atom):
            if g.predicate == RANGE_PREDICATE:
                return all(v in bound for v in _tvars(g.args[0]))
            return True
        if isinstance(g, Comparison):
            if g.op == "=" and isinstance(g.left, Variable) and g.left.name not in bound:
                return all(v in bound for v in _tvars(g.right))
            return all(v in bound for v in g.variables())
        if isinstance(g, Negated):
            return all(v in bound for v in g.variables())
        return False

    while pending:
        chosen = None
        for g in pending:
            if ready(g):
                chosen = g
                break
        if chosen is None:
            leftovers = []
            for g in pending:
                names = set(g.variables()) if not isinstance(g, Atom) else set()
                if (
                    isinstance(g, Comparison)
                    and agg is not None
                    and agg.result is not None
                    and names <= bound | {agg.result}
                ):
                    post.append(g)
                else:
                    leftovers.append(g)
            if leftovers:
                raise SafetyError(
                    f"rule {rule.id}: cannot order goals {[repr(g) for g in leftovers]}"
                )
            break
        pending.remove(chosen)
        if isinstance(chosen, Atom) and chosen.predicate != RANGE_PREDICATE:
            positions: List[int] = []
            key_parts: List[Tuple[str, object]] = []
            binds: List[Tuple[int, object]] = []
            seen_here: Set[str] = set()
            for i, a in enumerate(chosen.args):
                if isinstance(a, Constant):
                    positions.append(i)
                    key_parts.append(("c", a.value))
                elif a.name in bound or a.name in seen_here:
                    if a.name in bound:
                        positions.append(i)
                        key_parts.append(("v", a.name))
                    else:
                        binds.append((i, a.name))
                else:
                    seen_here.add(a.name)
                    binds.append((i, a.name))
            ordinal = None
            if chosen.predicate in scc_preds:
                ordinal = n_scc
                n_scc += 1
            steps.append(
                _Scan(chosen, tuple(positions), tuple(key_parts), tuple(binds), ordinal)
            )
            bound.update(chosen.variables())
        else:
            steps.append(chosen)
            if isinstance(chosen, Atom):  # range goal
                bound.update(_tvars(chosen.args[1]))
            elif isinstance(chosen, Comparison) and chosen.op == "=" and isinstance(chosen.left, Variable):
                bound.add(chosen.left.name)

    head = tuple(
        ("c", a.value) if isinstance(a, Constant) else ("v", a.name) for a in rule.head.args
    )
    return _Plan(rule, tuple(steps), n_scc, agg, tuple(post), head)


def _tvars(t) -> Iterator[str]:
    if isinstance(t, Variable):
        yield t.name
    elif not isinstance(t, Constant):
        yield from _tvars(t.left)
        yield from _tvars(t.right)


def _build_head(plan: _Plan, binding: Dict[str, object]) -> GroundTuple:
    return tuple(v if k == "c" else binding[v] for k, v in plan.head)


# =====================================================================================
# EXECUTOR
# =====================================================================================


class _Context:
    """Shared state for one fixpoint loop: stores, deltas, version selection."""

    __slots__ = ("stores", "delta", "version", "max_span")

    def __init__(self, stores: Dict[str, RelationStore], max_span: int):
        self.stores = stores
        self.delta: Dict[str, Set[GroundTuple]] = {}
        self.version: Optional[int] = None
        self.max_span = max_span

    def store(self, pred: str) -> RelationStore:
        s = self.stores.get(pred)
        if s is None:
            s = RelationStore()
            self.stores[pred] = s
        return s


def _scan_source(ctx: _Context, scan: _Scan, key: Tuple) -> Iterator[GroundTuple]:
    """Yield matching tuples, rechecking liveness at consumption time.

    Stores and deltas mutate while join generators are suspended (admission
    happens per binding), so every view snapshots first and skips tuples that
    were displaced in the meantime.
    """
    store = ctx.store(scan.atom.predicate)
    pred = scan.atom.predicate
    if ctx.version is not None and scan.scc_ordinal == ctx.version:
        live = ctx.delta.get(pred)
        if not live:
            return
        for t in list(live):
            if t not in live:
                continue
            for i, p in enumerate(scan.positions):
                if t[p] != key[i]:
                    break
            else:
                yield t
        return
    exclude = None
    if ctx.version is not None and scan.scc_ordinal is not None and scan.scc_ordinal < ctx.version:
        exclude = ctx.delta.get(pred, ())
    for t in list(store.match(scan.positions, key)):
        if t not in store.tuples:
            continue
        if exclude is not None and t in exclude:
            continue
        yield t


def _bindings(ctx: _Context, steps: Tuple[object, ...], i: int, binding: Dict) -> Iterator[Dict]:
    if i == len(steps):
        yield binding
        return
    step = steps[i]
    if isinstance(step, _Scan):
        key = tuple(v if k == "c" else binding[v] for k, v in step.key_parts)
        for t in _scan_source(ctx, step, key):
            nb = dict(binding)
            ok = True
            for pos, name in step.binds:
                v = t[pos]
                cur = nb.get(name, _MISS)
                if cur is _MISS:
                    nb[name] = v
                elif cur != v:
                    ok = False
                    break
            if ok:
                yield from _bindings(ctx, steps, i + 1, nb)
    elif isinstance(step, Comparison):
        ok, nb = eval_interpreted(step, binding)
        if ok:
            yield from _bindings(ctx, steps, i + 1, nb if nb is not binding else binding)
    elif isinstance(step, Negated):
        t = substitute(step.atom, binding).as_tuple()
        if t not in ctx.store(step.atom.predicate):
            yield from _bindings(ctx, steps, i + 1, binding)
    else:  # range goal int_up2(C, J)
        c = eval_term(step.args[0], binding)
        if not isinstance(c, int):
            raise TypeMismatch(f"range over non-integer {c!r}")
        j_term = step.args[1]
        if isinstance(j_term, Constant) or (
            isinstance(j_term, Variable) and j_term.name in binding
        ):
            j = eval_term(j_term, binding)
            if isinstance(j, int) and 1 <= j <= c:
                yield from _bindings(ctx, steps, i + 1, binding)
        else:
            if c > ctx.max_span:
                raise BudgetExceeded(f"range 1..{c} exceeds the tuple budget")
            for j in range(1, c + 1):
                nb = dict(binding)
                nb[j_term.name] = j
                yield from _bindings(ctx, steps, i + 1, nb)


_MISS = object()


# =====================================================================================
# AGGREGATE SEMANTICS (static)
# =====================================================================================


def eval_aggregate(kind: str, rows: Iterable[Tuple[Tuple, Tuple]]):
    """Evaluate an aggregate over (group key, measured) rows.

    mcount: key -> {1..k} for k distinct witnesses; count: key -> k.
    msum:   key -> {1..S}; sum: key -> S, where S totals the maximal
            positive summand per witness prefix.
    is_min/is_max: key -> extremal measured value.
    """
    groups: Dict[Tuple, Set[Tuple]] = {}
    for key, measured in rows:
        groups.setdefault(key, set()).add(measured)
    if kind in ("mcount", "count"):
        if kind == "count":
            return {k: len(ws) for k, ws in groups.items()}
        return {k: set(range(1, len(ws) + 1)) for k, ws in groups.items()}
    if kind in ("msum", "sum"):
        out = {}
        for k, ws in groups.items():
            best: Dict[Tuple, int] = {}
            for m in ws:
                s = m[-1]
                if not isinstance(s, int):
                    raise TypeMismatch(f"summand {s!r} is not an integer")
                prefix = m[:-1]
                if prefix not in best or s > best[prefix]:
                    best[prefix] = s
            total = sum(max(s, 0) for s in best.values())
            if kind == "sum":
                if total >= 1:
                    out[k] = total
            else:
                out[k] = set(range(1, total + 1))
        return out
    if kind in EXTREMA_KINDS:
        pick = min if kind == "is_min" else max
        out = {}
        for k, ws in groups.items():
            vals = [m[0] for m in ws]
            if any(not isinstance(v, int) for v in vals):
                raise TypeMismatch("extremum over non-integer values")
            out[k] = pick(vals)
        return out
    raise PremlogError(f"unknown aggregate kind {kind}")


# =====================================================================================
# RULE EVALUATION (full join, static aggregates)
# =====================================================================================


def _agg_row(plan: _Plan, binding: Dict) -> Tuple[Tuple, Tuple]:
    agg = plan.agg
    key = tuple(binding[v] for v in agg.group_by)
    measured = tuple(binding[v] for v in agg.measured)
    return key, measured


def _emit_counting(plan: _Plan, key: Tuple, values) -> Iterator[GroundTuple]:
    agg = plan.agg
    binding = dict(zip(agg.group_by, key))
    if isinstance(values, int):
        values = (values,)
    for v in values:
        binding[agg.result] = v
        if all(eval_interpreted(f, binding)[0] for f in plan.post_filters):
            yield _build_head(plan, binding)


def _rule_candidates(ctx: _Context, plan: _Plan) -> Iterator[GroundTuple]:
    """All head tuples derivable from the current stores (no delta logic)."""
    agg = plan.agg
    if agg is None:
        for b in _bindings(ctx, plan.steps, 0, {}):
            yield _build_head(plan, b)
        return
    rows = set()
    keep: Dict[Tuple[Tuple, Tuple], Dict] = {}
    for b in _bindings(ctx, plan.steps, 0, {}):
        row = _agg_row(plan, b)
        rows.add(row)
        if agg.kind in EXTREMA_KINDS and row not in keep:
            keep[row] = b
    result = eval_aggregate(agg.kind, rows)
    if agg.kind in EXTREMA_KINDS:
        for (key, measured), b in keep.items():
            if result.get(key) == measured[0]:
                yield _build_head(plan, b)
        return
    for key, values in result.items():
        yield from _emit_counting(plan, key, values)


# =====================================================================================
# GATES
# =====================================================================================


@dataclass
class _Gates:
    extrema: Dict[str, ExtremaIndex]
    monotonic: Dict[str, MonotonicIndex]
    # naive mode reapplies these as filters instead of using the indexes
    gamma: Dict[str, Tuple[str, int]]  # pred -> (kind, cost position)


def _build_gates(rules: Sequence[Rule]) -> _Gates:
    # A count/sum rule carries an implicit max on its result: the predicate is
    # read as the max projection of the monotonic form. Unannotated rules of
    # the same predicate feed the same gate; only two different annotations
    # conflict.
    specs: Dict[str, Set[Tuple[str, bool, int]]] = {}
    for r in rules:
        pred = r.head.predicate
        entry = specs.setdefault(pred, set())
        if r.extremum is not None:
            entry.add((r.extremum.kind, r.extremum.monotonic, r.extremum.cost))
            continue
        agg = r.aggregate()
        if agg is not None and agg.kind in ("count", "sum"):
            pos = next(
                (
                    i
                    for i, a in enumerate(r.head.args)
                    if isinstance(a, Variable) and a.name == agg.result
                ),
                None,
            )
            if pos is not None:
                entry.add(("max", False, pos))
    extrema: Dict[str, ExtremaIndex] = {}
    monotonic: Dict[str, MonotonicIndex] = {}
    gamma: Dict[str, Tuple[str, int]] = {}
    for pred, entry in specs.items():
        if len(entry) > 1:
            raise PremlogError(f"rules defining {pred} disagree on its working constraint")
        if not entry:
            continue
        kind, mono, pos = next(iter(entry))
        if mono:
            monotonic[pred] = MonotonicIndex(kind, pos)
        else:
            extrema[pred] = ExtremaIndex(kind, pos)
            gamma[pred] = (kind, pos)
    return _Gates(extrema, monotonic, gamma)


# =====================================================================================
# SEMINAIVE FIXPOINT
# =====================================================================================


def seminaive_fixpoint(
    rules: Sequence[Rule],
    edb: Interpretation,
    options: Optional[EvalOptions] = None,
    monitor: Optional[List[str]] = None,
) -> Tuple[Interpretation, EvalStats]:
    """Evaluate one stratum incrementally; returns edb extended with results."""
    options = options or EvalOptions()
    stats = EvalStats()
    started = time.perf_counter()
    head_preds = {r.head.predicate for r in rules}
    stores: Dict[str, RelationStore] = {}
    for pred, rel in edb.items():
        stores[pred] = RelationStore(rel if pred not in head_preds else None)
    ctx = _Context(stores, options.max_tuples)
    gates = _build_gates(rules)
    plans = {r.id: compile_plan(r, head_preds) for r in rules}
    recursive_rules = [r for r in rules if plans[r.id].n_scc > 0]
    exit_rules = [r for r in rules if plans[r.id].n_scc == 0]

    delta: Dict[str, Set[GroundTuple]] = {}
    next_delta: Dict[str, Set[GroundTuple]] = {}

    def drop_everywhere(pred: str, t: GroundTuple) -> None:
        ctx.store(pred).remove(t)
        for d in (delta, next_delta):
            s = d.get(pred)
            if s is not None:
                s.discard(t)

    def admit(pred: str, t: GroundTuple) -> bool:
        stats.derived += 1
        if stats.derived > options.max_tuples:
            raise BudgetExceeded(
                f"tuple budget of {options.max_tuples} exhausted",
                stats=stats,
                partial=_snapshot(ctx.stores),
            )
        store = ctx.store(pred)
        mono = gates.monotonic.get(pred)
        if mono is not None:
            if not mono.insert(t) or not store.add(t):
                return False
            stats.retained += 1
            next_delta.setdefault(pred, set()).add(t)
            return True
        ex = gates.extrema.get(pred)
        if ex is not None:
            change = ex.insert(t)
            if not change.inserted:
                return False
            if change.displaced is not None:
                drop_everywhere(pred, change.displaced)
                stats.deleted += 1
            store.add(t)
            stats.retained += 1
            next_delta.setdefault(pred, set()).add(t)
            return True
        if store.add(t):
            stats.retained += 1
            next_delta.setdefault(pred, set()).add(t)
            return True
        return False

    # Incremental aggregate state, one slot per rule.
    witness: Dict[str, Dict[Tuple, Set[Tuple]]] = {}
    emitted: Dict[str, Dict[Tuple, int]] = {}
    prefix_best: Dict[str, Dict[Tuple, Dict[Tuple, int]]] = {}
    warned: Set[str] = set()

    def feed_aggregate(rule: Rule, plan: _Plan, key: Tuple, measured: Tuple) -> None:
        agg = plan.agg
        slot = witness.setdefault(rule.id, {})
        ws = slot.setdefault(key, set())
        if measured in ws:
            return
        ws.add(measured)
        if agg.kind in ("msum", "sum"):
            s = measured[-1]
            if not isinstance(s, int):
                raise TypeMismatch(f"summand {s!r} is not an integer")
            if s < 1 and options.monitor_positivity and rule.id not in warned:
                warned.add(rule.id)
                if monitor is not None:
                    monitor.append(
                        f"rule {rule.id}: non-positive summand {s} for key {key}"
                    )
            best = prefix_best.setdefault(rule.id, {}).setdefault(key, {})
            pfx = measured[:-1]
            if pfx not in best or s > best[pfx]:
                best[pfx] = s
        if agg.kind in ("mcount", "msum"):
            track = emitted.setdefault(rule.id, {})
            have = track.get(key, 0)
            target = (
                len(ws)
                if agg.kind == "mcount"
                else sum(max(v, 0) for v in prefix_best[rule.id][key].values())
            )
            for v in range(have + 1, target + 1):
                for t in _emit_counting(plan, key, (v,)):
                    admit(rule.head.predicate, t)
            if target > have:
                track[key] = target

    def release_deferred() -> bool:
        changed = False
        for r in rules:
            plan = plans[r.id]
            agg = plan.agg
            if agg is None or agg.kind not in ("count", "sum"):
                continue
            track = emitted.setdefault(r.id, {})
            for key, ws in witness.get(r.id, {}).items():
                if agg.kind == "count":
                    total = len(ws)
                else:
                    total = sum(max(v, 0) for v in prefix_best[r.id][key].values())
                    if total < 1:
                        continue
                if track.get(key) == total:
                    continue
                track[key] = total
                for t in _emit_counting(plan, key, (total,)):
                    if admit(r.head.predicate, t):
                        changed = True
        return changed

    def run_rule(rule: Rule, version: Optional[int]) -> None:
        plan = plans[rule.id]
        ctx.version = version
        if plan.agg is None:
            for b in _bindings(ctx, plan.steps, 0, {}):
                admit(rule.head.predicate, _build_head(plan, b))
        elif plan.agg.kind in EXTREMA_KINDS:
            # Stratified filter: body predicates are complete, evaluate statically.
            for t in _rule_candidates(ctx, plan):
                admit(rule.head.predicate, t)
        else:
            for b in _bindings(ctx, plan.steps, 0, {}):
                key, measured = _agg_row(plan, b)
                feed_aggregate(rule, plan, key, measured)
        ctx.version = None

    # Seed: facts for stratum predicates enter through the gates.
    for pred in head_preds:
        for t in edb.get(pred, ()):
            admit(pred, t)

    # Round 1: exit rules fire once over the full stores.
    stats.iterations += 1
    _check_iterations(stats, options, ctx)
    for r in exit_rules:
        run_rule(r, None)
    delta, next_delta = next_delta, {}

    while True:
        if not any(delta.values()):
            if release_deferred():
                delta, next_delta = next_delta, {}
                continue
            break
        stats.iterations += 1
        _check_iterations(stats, options, ctx)
        ctx.delta = delta
        for r in recursive_rules:
            for version in range(plans[r.id].n_scc):
                run_rule(r, version)
        ctx.delta = {}
        delta, next_delta = next_delta, {}

    stats.wall_ms += (time.perf_counter() - started) * 1000.0
    return _snapshot(ctx.stores), stats


def _check_iterations(stats: EvalStats, options: EvalOptions, ctx: _Context) -> None:
    if options.max_iterations is not None and stats.iterations > options.max_iterations:
        raise BudgetExceeded(
            f"iteration budget of {options.max_iterations} exhausted",
            stats=stats,
            partial=_snapshot(ctx.stores),
        )


def _snapshot(stores: Dict[str, RelationStore]) -> Interpretation:
    return {p: set(s.tuples) for p, s in stores.items() if s.tuples}


# =====================================================================================
# NAIVE FIXPOINT
# =====================================================================================


def naive_fixpoint(
    rules: Sequence[Rule],
    edb: Interpretation,
    options: Optional[EvalOptions] = None,
    monitor: Optional[List[str]] = None,
) -> Tuple[Interpretation, EvalStats]:
    """Iterate I <- gamma(T(I u edb)) until the interpretation repeats."""
    options = options or EvalOptions()
    stats = EvalStats()
    started = time.perf_counter()
    head_preds = {r.head.predicate for r in rules}
    gates = _build_gates(rules)
    plans = {r.id: compile_plan(r, head_preds) for r in rules}
    mono = {p: MonotonicIndex(ix.kind, ix.cost) for p, ix in gates.monotonic.items()}
    seeds = {p: set(edb.get(p, set())) for p in head_preds}

    current: Dict[str, Set[GroundTuple]] = {p: set() for p in head_preds}
    while True:
        stats.iterations += 1
        stores: Dict[str, RelationStore] = {}
        for pred, rel in edb.items():
            if pred not in head_preds:
                stores[pred] = RelationStore(rel)
        for pred in head_preds:
            stores[pred] = RelationStore(current[pred] | seeds[pred])
        ctx = _Context(stores, options.max_tuples)
        if options.max_iterations is not None and stats.iterations > options.max_iterations:
            raise BudgetExceeded(
                f"iteration budget of {options.max_iterations} exhausted",
                stats=stats,
                partial=_snapshot(stores),
            )

        out: Dict[str, Set[GroundTuple]] = {p: set(current[p] | seeds[p]) for p in head_preds}
        for r in rules:
            for t in _rule_candidates(ctx, plans[r.id]):
                stats.derived += 1
                if stats.derived > options.max_tuples:
                    raise BudgetExceeded(
                        f"tuple budget of {options.max_tuples} exhausted",
                        stats=stats,
                        partial={p: set(v) for p, v in out.items() if v},
                    )
                out[r.head.predicate].add(t)

        new: Dict[str, Set[GroundTuple]] = {}
        for pred in head_preds:
            rel = out[pred]
            spec = gates.gamma.get(pred)
            if spec is not None:
                rel = _gamma_filter(rel, spec[0], spec[1])
            gate = mono.get(pred)
            if gate is not None:
                admitted = set(current[pred])
                for t in sorted(rel - current[pred], key=_mono_order(gate)):
                    if gate.insert(t):
                        admitted.add(t)
                rel = admitted
            new[pred] = rel

        for pred in head_preds:
            stats.retained += len(new[pred] - current[pred])
            stats.deleted += len(current[pred] - new[pred])
        if new == current:
            break
        current = new

    result = interp_copy(edb)
    for pred in head_preds:
        if current[pred]:
            result[pred] = set(current[pred])
        elif not seeds[pred]:
            result.pop(pred, None)
    stats.wall_ms += (time.perf_counter() - started) * 1000.0
    return result, stats


def _mono_order(gate: MonotonicIndex) -> Callable[[GroundTuple], Tuple]:
    # Feed candidates best-first so one sweep admits only the per-key winners.
    sign = 1 if gate.kind == "min" else -1

    def key(t: GroundTuple):
        v = t[gate.cost]
        if not isinstance(v, int):
            raise TypeMismatch(f"extremum over non-integer value {v!r}")
        return (sign * v,)

    return key


def _gamma_filter(rel: Set[GroundTuple], kind: str, cost: int) -> Set[GroundTuple]:
    best: Dict[Tuple, int] = {}
    for t in rel:
        v = t[cost]
        if not isinstance(v, int):
            raise TypeMismatch(f"extremum over non-integer value {v!r}")
        key = t[:cost] + t[cost + 1 :]
        held = best.get(key)
        if held is None or (v < held if kind == "min" else v > held):
            best[key] = v
    return {t for t in rel if best[t[:cost] + t[cost + 1 :]] == t[cost]}


# =====================================================================================
# PURE PRIMITIVES (used by the empirical checker and tests)
# =====================================================================================


def apply_ico(rules: Sequence[Rule], interp: Interpretation) -> Interpretation:
    """One inclusive consequence step: interp plus every derivable head.

    Head extremum annotations are ignored here; constraints are applied
    separately so the two can be composed in either order.
    """
    stores = {p: RelationStore(rel) for p, rel in interp.items()}
    ctx = _Context(stores, 10_000_000)
    out = interp_copy(interp)
    for r in rules:
        plan = compile_plan(r, set())
        for t in _rule_candidates(ctx, plan):
            out.setdefault(r.head.predicate, set()).add(t)
    return out


def apply_constraint(constraint: Constraint, interp: Interpretation) -> Interpretation:
    """Filter one predicate by bounds and extrema; other relations pass through."""
    out = interp_copy(interp)
    for part in constraint_conjuncts(constraint):
        rel = out.get(part.predicate)
        if not rel:
            continue
        if isinstance(part, Bound):
            rel = {t for t in rel if compare_values(part.op, t[part.cost], part.limit)}
        else:
            best: Dict[Tuple, int] = {}
            for t in rel:
                v = t[part.cost]
                if not isinstance(v, int):
                    raise TypeMismatch(f"extremum over non-integer value {v!r}")
                key = tuple(t[i] for i in part.group_by)
                held = best.get(key)
                if held is None or (v < held if part.kind == "min" else v > held):
                    best[key] = v
            rel = {t for t in rel if best[tuple(t[i] for i in part.group_by)] == t[part.cost]}
        out[part.predicate] = rel
    return out


# =====================================================================================
# STRATIFIED DRIVER
# =====================================================================================


def iterated_fixpoint(
    program: Program,
    options: Optional[EvalOptions] = None,
    monitor: Optional[List[str]] = None,
) -> Tuple[Interpretation, EvalStats]:
    """Evaluate a program stratum by stratum, bottom up."""
    options = options or EvalOptions()
    strata = stratify(program)
    db: Interpretation = {}
    for f in program.facts:
        db.setdefault(f.predicate, set()).add(f.as_tuple())
    total = EvalStats()
    fixpoint = seminaive_fixpoint if options.mode == "seminaive" else naive_fixpoint
    budget = options.max_tuples
    for stratum in strata:
        try:
            db, stats = fixpoint(stratum.rules, db, replace(options, max_tuples=budget), monitor)
        except BudgetExceeded as exc:
            if exc.stats is not None:
                total.merge(exc.stats)
            exc.stats = total
            raise
        total.merge(stats)
        budget -= stats.derived
    return db, total


# =====================================================================================
# PROGRAM PIPELINE
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
            reason = ob.verdict.rejection.condition if ob.verdict and ob.verdict.rejection else "no cost path"
            warnings.append(
                f"rule {ob.rule_id}: recursive {ob.kind} is not provably safe ({reason}); "
                f"results may be wrong if run anyway"
            )
        warnings.extend(ob.notes)

    steps: List[ConstraintStep] = []
    for fc in executed.final_constraints if push else ():
        graph = build_dependency_graph(executed)
        try:
            verdict = classify_premability(executed, fc.constraint, graph)
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
            verdict = _reject_other_readers(graph, verdict, fc.rule_id)
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


def _reject_other_readers(
    graph: DependencyGraph, verdict: PremVerdict, final_rule: str
) -> PremVerdict:
    """Reject a push into a recursion that a rule outside it, other than the
    constraint's own final rule, also reads: the push changes what that
    recursion holds, not only what the final rule keeps.

    This lives here rather than in classify_premability because that also
    classifies count/sum shadows, whose heads other rules are meant to read.
    """
    scc = graph.scc_members(constraint_predicate(verdict.constraint))
    for e in graph.edges:
        if e.body in scc and e.head not in scc and e.rule_id != final_rule:
            conjunct = constraint_conjuncts(verdict.constraint)[0]
            rejection = Rejection(conjunct, f"{e.body} is also read by rule {e.rule_id}", e.rule_id)
            return replace(verdict, rejection=rejection)
    return verdict


@dataclass
class RunResult:
    program: Program
    executed: Program
    obligations: List[CompileObligation]
    db: Interpretation
    stats: EvalStats
    warnings: List[str]
    fallback: bool  # a rejected constraint stayed in its stratified final rule

    def answers(self, predicate: str) -> List[GroundTuple]:
        from .model import tuple_sort_key

        return sorted(self.db.get(predicate, set()), key=tuple_sort_key)


def default_query(program: Program) -> Optional[str]:
    finals = final_rules(program.rules)
    if finals:
        return finals[-1].head.predicate
    if program.rules:
        return program.rules[-1].head.predicate
    return None


def execute(planned: ProgramPlan, options: Optional[EvalOptions] = None) -> RunResult:
    """Evaluate a plan's executed program."""
    monitor: List[str] = []
    db, stats = iterated_fixpoint(planned.executed, options, monitor)
    fallback = any(step.action == "kept" for step in planned.steps)
    return RunResult(
        planned.program,
        planned.executed,
        planned.obligations,
        db,
        stats,
        planned.warnings + monitor,
        fallback,
    )


def run_program(
    program: Program,
    options: Optional[EvalOptions] = None,
    push: bool = True,
    force_push: bool = False,
    trust_aggregates: bool = False,
) -> RunResult:
    """Full pipeline: plan(), then evaluate the executed program."""
    return execute(plan(program, push, force_push, trust_aggregates), options)
