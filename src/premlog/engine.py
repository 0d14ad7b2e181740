"""Bottom-up evaluation: naive and seminaive fixpoints under constraints.

Both modes, and the consequence step T, share one rule executor: generated
code. Each rule becomes one Python function per delta version, written
straight from its goals in analysis.order_goals's order (a rule that is not
safe raises SafetyError there), compiled on first use and cached. The
function is a nest of loops, one per body atom, that probes a store's hash
index on whatever the goals before the atom bound (as Soufflé compiles a
rule, Jordan, Scholz and Subotić 2016), binds Datalog variables to locals,
and inlines checked 64-bit arithmetic and comparisons. Each store and index
is bound once per call, and every probe is a dict lookup. Tracebacks and
profiles name the function `<premlog rule ID vK>` (`full` when no delta is
read).

Admission happens inside that function, per binding. In a seminaive stratum
the function writes its head's admission once per head kind (plain, min/max,
mmin/mmax): the working-set test, the store insert, the index upkeep and the
add to the next delta, with the stats counters as local ints added to
EvalStats when it returns. Seeds, count/sum releases and is_min/is_max
winners enter through `<premlog admit P>`, generated from the same source. A
stratified is_min/is_max rule keeps each key's best rows in a dict inside the
function, and its caller emits the winners. ConsequenceStep, the full join
of T that the naive loop sweeps with and the falsifier applies to a batch
of tagged samples (apply_ico too), collects each head tuple in a set of its
own instead.

The naive loop literally iterates I <- gamma(T(I u edb)): every sweep is one
call of its stratum's ConsequenceStep, then the working constraints (head
extrema, implicit count/sum projection) filter the result through
model.keep_extremal, the one gamma that apply_constraint and the oracle's
count projection use too; the loop stops when the interpretation repeats,
and the confirming sweep is counted. The seminaive loop admits each head
tuple through its predicate's one gate, a model.HeadExtremum: a min/max or
mmin/mmax annotation, or the implicit max of count/sum, admits a tuple only
if it strictly beats its key's incumbent. A min/max gate deletes the beaten
tuple from the store and from any pending delta, so it never fires a rule;
mmin/mmax delete nothing. Each counting rule keeps one _Tally per key, and
its rule function writes the tally itself, per binding (as it writes
admission). mcount/count keep the key's distinct witnesses, and a new one
joins the set. msum/sum keep only the best summand per witness prefix,
since sum is the max of the msum ladder (Mazuran, Serra and Zaniolo): a
summand above its prefix's best raises the best and the key's running
total, so a total is read, never summed again, and a lower one changes
nothing. A full join (ConsequenceStep) releases each key's total once the
join is done, in the order of the keys' first rows; seminaive releases
mcount/msum ladders as their totals grow, and count/sum totals only when
the fixpoint quiesces, which may restart the loop.

A seminaive stratum runs one loop, and each iteration takes its delta from
a picker chosen once per stratum. The breadth-first picker (_admitted)
takes everything the iteration before admitted. The greedy one
(_cost_levels) serves a stratum whose heads all carry a min/mmin gate (or
all a max/mmax gate), with no counting rule, and whose rules analysis.lacks
finds deflation-preserving and nondecreasing (no head cost below a body
cost), or inflation-preserving and nonincreasing. There the cheapest queued
cost level (the dearest) is final, and each pick drains one level, skipping
tuples that lost their gate since they were queued: Dijkstra's algorithm as
a fixpoint (Knuth 1977; the greedy fixpoint of Ganguly, Greco and Zaniolo).
A guard that caps the cost, such as a pushed bound, leaves a stratum greedy.

A seminaive run keeps its relations resident (as BigDatalog keeps its
recursive relations across iterations): iterated_fixpoint copies each
relation's facts into a RelationStore once, every stratum runs on the same
stores, and only a stratum's head predicates get fresh ones. An index built
in one stratum serves the next, the result is the stores' own sets, and
only a budget stop copies them. seminaive_fixpoint runs one stratum the same
way, on copies of the interpretation it is given. Either mode counts every
stratum of a run into one EvalStats, against one tuple budget and one clock.

Each seminaive stratum also proves, once, which columns hold only integers
(as Soufflé types its columns, Jordan, Scholz and Subotić 2016), in one
pass. A column that a positive atom reads into a variable, from a relation
the stratum only reads, takes its type from its store: a scan at C speed
that stops at the first symbol, kept on the store. A head column takes its
type from the head terms, as the greatest fixpoint over the stratum's head
columns given the seeds: an integer literal, arithmetic, or a variable read
from a proven column, bound by int_up2 or a counting result, or tied to
one of those by an equality. That last fact ignores goal order, so it
serves only the head. The generated code skips the isinstance test on
values read from a proven column; the proof is part of the code's cache
key, and ConsequenceStep, which reads no proof, keeps every test.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache, partial
from heapq import heappop, heappush
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .analysis import lacks, order_goals, stratify
from .errors import BudgetExceeded, PremlogError, TypeMismatch
from .model import (
    COUNTING_KINDS,
    EXTREMA_KINDS,
    INT_MAX,
    INT_MIN,
    RANGE_PREDICATE,
    AggregateGoal,
    ArithExpr,
    Atom,
    Bound,
    Comparison,
    Constant,
    Constraint,
    GroundTuple,
    HeadExtremum,
    Interpretation,
    Negated,
    Program,
    Rule,
    Variable,
    all_ints,
    check_int,
    checked_arith,
    compare_values,
    constraint_conjuncts,
    final_rules,
    head_var_positions,
    keep_extremal,
    runs_to_interp,
    tuple_sort_key,
)
from .rewrite import CompileObligation, ProgramPlan, plan

# =====================================================================================
# OPTIONS AND STATS
# =====================================================================================


@dataclass
class EvalOptions:
    """Evaluation settings; perfbench's replay sets every field."""
    mode: str = "seminaive"
    max_iterations: Optional[int] = None
    max_tuples: int = 10_000_000
    monitor_positivity: bool = False


@dataclass
class EvalStats:
    """A run's counters and wall_ms, one per run; merge serves perfbench's replay and the tests."""
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
# STORES AND TALLIES
# =====================================================================================


class RelationStore:
    """A set of ground tuples with lazily built positional hash indexes, and
    which of its columns are proven to hold only integers."""

    __slots__ = ("tuples", "indexes", "_keyed", "ints")

    def __init__(self, tuples: Optional[Iterable[GroundTuple]] = None):
        self.tuples: Set[GroundTuple] = set(tuples) if tuples else set()
        self.indexes: Dict[Tuple[int, ...], Dict[object, Set[GroundTuple]]] = {}
        self._keyed: List[Tuple[Callable[[GroundTuple], object], Dict]] = []
        self.ints: Dict[int, bool] = {}  # column -> all integers, once asked

    def add(self, t: GroundTuple) -> bool:
        if t in self.tuples:
            return False
        self.tuples.add(t)
        for key_of, ix in self._keyed:
            ix.setdefault(key_of(t), set()).add(t)
        return True

    def remove(self, t: GroundTuple) -> None:
        self.tuples.discard(t)
        for key_of, ix in self._keyed:
            bucket = ix.get(key_of(t))
            if bucket is not None:
                bucket.discard(t)

    def index(self, positions: Tuple[int, ...]) -> Dict[object, Set[GroundTuple]]:
        """The hash index on positions, built on first use and kept current by
        add and remove. A key is what itemgetter(*positions) reads: the bare
        value for one column, a tuple for more."""
        ix = self.indexes.get(positions)
        if ix is None:
            # Keys are read at C speed, and each bucket gets its tuples in
            # the order add() one by one would give them.
            key_of = itemgetter(*positions)
            ix = self.indexes[positions] = {}
            for k, t in zip(map(key_of, self.tuples), self.tuples):
                bucket = ix.get(k)
                if bucket is None:
                    ix[k] = {t}
                else:
                    bucket.add(t)
            self._keyed.append((key_of, ix))
        return ix

    def int_column(self, i: int) -> bool:
        """Whether column i holds only integers. Asked only of a relation
        that no running rule derives into, so the answer is kept."""
        known = self.ints.get(i)
        if known is None:
            known = self.ints[i] = all_ints(self.tuples, i)
        return known


# Relation columns, (predicate, position), proven to hold only integers.
_Columns = FrozenSet[Tuple[str, int]]


class _Tally:
    """One counting aggregate's state per group key, and nothing else:
    written by the generated rule code (_tally_row) and read per key.

    count and sum are the max of the mcount and msum ladders (Mazuran et al.
    2012), so all four keep one total per key. mcount/count keep each key's
    distinct witnesses, and the total is their number. msum/sum keep only the
    best summand per witness prefix, and the total is the running sum of the
    positive ones: a lower summand for a prefix changes nothing. The kinds
    differ only in what a key releases, every natural up to the total
    (mcount/msum) or the total itself (count/sum), and in when the caller
    releases it.
    """

    __slots__ = ("kind", "witnesses", "best", "sums", "released", "grown", "watch", "fresh")

    def __init__(self, kind: str, watch: Optional[Callable] = None, fresh: Optional[Callable] = None):
        self.kind = kind
        self.watch = watch  # msum/sum: called with (key, summand) per non-positive summand
        self.fresh = fresh  # seminaive mcount/msum: called with each key whose total grew
        self.witnesses: Dict[Tuple, Set[Tuple]] = {}  # mcount/count: key -> witnesses
        self.best: Dict[Tuple, Dict[Tuple, int]] = {}  # msum/sum: key -> witness prefix -> summand
        self.sums: Dict[Tuple, int] = {}  # msum/sum: key -> sum of its positive best summands
        self.released: Dict[Tuple, int] = {}  # key -> total released last
        self.grown: Dict[Tuple, None] = {}  # seminaive count/sum: keys changed since their release

    def totals(self, keys: Optional[Iterable[Tuple]] = None) -> Iterable[Tuple[Tuple, int]]:
        """(key, total) for keys, by default for every key in the order of its first row."""
        if self.kind in ("msum", "sum"):
            return self.sums.items() if keys is None else [(k, self.sums[k]) for k in keys]
        ws = self.witnesses
        return zip(ws, map(len, ws.values())) if keys is None else [(k, len(ws[k])) for k in keys]


# =====================================================================================
# RULE CODE
# =====================================================================================

# Loops nested deeper than this continue in an inner function: CPython refuses
# more than 20 statically nested blocks in one function.
_MAX_LOOPS = 16

_TUPLE_BUDGET = "tuple budget of %s exhausted"

# What generated code calls besides builtins; the error paths call the model's
# own checks, or raise its errors, so that messages stay the same.
_RUNTIME = {
    "_TUPLE_BUDGET": _TUPLE_BUDGET,
    "TypeMismatch": TypeMismatch,
    "check_int": check_int,
    "checked_arith": checked_arith,
    "compare_values": compare_values,
}


def _tuple_text(items: Sequence[str]) -> str:
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


class _Source:
    """The Python source of one generated function, written top to bottom.

    Every goal after a loop sits inside that loop, so lines only ever indent
    further; a failed test moves on to the next binding with `continue`, or
    leaves the function with `return` before its first loop. Datalog variables
    become locals with generated names; values a name cannot carry as a
    literal (predicate names, terms for error messages) live in the namespace.
    A value read from a proven column, one whose every tuple holds an integer
    there, is known to be an integer and needs no isinstance test.

    What the body reads of the context (each store, its tuples, each index
    it probes) is bound once per function, on first use, by a line of the
    prologue, which runs before the body in the order the lines were asked.
    """

    def __init__(self, header: str, namespace: Dict[str, object], proven: _Columns = frozenset()):
        self.prologue = [header]  # and the lines that bind what the body reads
        self.lines: List[str] = []  # the body
        self.namespace = namespace
        self.proven = proven
        self.names: Dict[str, str] = {}  # Datalog variable -> local or literal
        self.stores: Dict[str, Tuple[str, str]] = {}  # predicate -> store and tuples locals
        self.indexes: Dict[Tuple[str, Tuple[int, ...]], str] = {}  # (predicate, positions) -> local
        self.atoms = 0  # body atoms over the running stratum's relations so far
        self.ints: Set[str] = set()  # locals that hold an integer once assigned
        self.indent = 1
        self.loops = 0
        self.calls: List[str] = []  # pending calls of inner functions
        self.count = 0
        self.counters: Tuple[str, ...] = ()  # local ints that inner functions update
        self.stats: Tuple[str, ...] = ()  # local stats counters, in EvalStats field order
        self.tail: List[str] = []  # lines after the last inner call: counter flushes

    def fresh(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def add(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def top(self, line: str) -> None:
        """Add line to the prologue."""
        self.prologue.append("    " + line)

    def store(self, pred: str) -> Tuple[str, str]:
        """The locals that hold pred's store and its tuples."""
        names = self.stores.get(pred)
        if names is None:
            s, tuples = names = self.stores[pred] = (self.fresh("_s"), self.fresh("_t"))
            self.top(f"{s} = ctx.store({self.constant(pred)})")
            self.top(f"{tuples} = {s}.tuples")
        return names

    def index(self, pred: str, positions: Tuple[int, ...]) -> str:
        """The local that holds pred's index on positions."""
        name = self.indexes.get((pred, positions))
        if name is None:
            s = self.store(pred)[0]
            name = self.indexes[pred, positions] = self.fresh("_i")
            self.top(f"{name} = {s}.index({positions!r})")
        return name

    def skip(self) -> str:
        return "continue" if self.loops else "return"

    def stop(self, message: str) -> str:
        """The statement that stops on a budget, given its message as an
        expression: ctx.stop adds the local stats counters to the stats."""
        return f"ctx.stop({', '.join((message,) + self.stats)})"

    def loop(self, header: str) -> None:
        if self.loops == _MAX_LOOPS:
            inner = self.fresh("_more")
            self.add(f"def {inner}():")
            self.calls.append("    " * self.indent + f"{inner}()")
            self.indent += 1
            self.loops = 0
            if self.counters:
                self.add(f"nonlocal {', '.join(self.counters)}")
        self.add(header)
        self.indent += 1
        self.loops += 1

    def text(self) -> str:
        return "\n".join(self.prologue + self.lines + self.calls[::-1] + self.tail) + "\n"

    def constant(self, value: object) -> str:
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def bind(self, name: str) -> str:
        local = self.names[name] = self.fresh("v")
        return local

    def literal(self, value: object) -> str:
        if type(value) not in (int, str):
            raise PremlogError(f"constant {value!r} is neither an integer nor a symbol")
        return repr(value)

    def term(self, t) -> Tuple[str, bool]:
        """Write what evaluating t takes; return its expression and whether
        it is an integer whatever the binding. order_goals's order binds
        every variable before it is read."""
        if isinstance(t, Constant):
            return self.literal(t.value), type(t.value) is int
        if isinstance(t, Variable):
            local = self.names[t.name]
            return local, local in self.ints
        left, left_int = self.term(t.left)
        right, right_int = self.term(t.right)
        out = self.fresh("_x")
        if t.op in ("+", "-", "*"):
            value = f"{left} {t.op} {right}"
            checks = self.int_checks((left, left_int), (right, right_int))
            if checks:
                value += f" if {checks} else checked_arith({t.op!r}, {left}, {right})"
            self.add(f"{out} = {value}")
            self.add(f"if {out} > {INT_MAX} or {out} < {INT_MIN}: check_int({out})")
        else:
            self.add(f"{out} = checked_arith({t.op!r}, {left}, {right})")
        self.ints.add(out)
        return out, True

    def int_checks(self, *operands: Tuple[str, bool]) -> str:
        """The isinstance tests an integer-only operation needs. Its slow path
        raises on anything else, so past it the operands are known integers."""
        checks = []
        for x, known in operands:
            if not known:
                checks.append(f"isinstance({x}, int)")
                if x.isidentifier():
                    self.ints.add(x)
        return " and ".join(checks)

    def tuple_of(self, terms) -> str:
        return _tuple_text([self.term(t)[0] for t in terms])

    def comparison(self, goal: Comparison, assign: bool = True) -> None:
        """eval_interpreted, inlined: an equality whose left side is an unbound
        variable assigns it (when assign is set), anything else is a test."""
        if goal.op == "=" and isinstance(goal.left, Variable) and goal.left.name not in self.names:
            value, _ = self.term(goal.right)
            if assign:  # a local is never reassigned within its scope, so alias it
                self.names[goal.left.name] = value
            return
        left, left_int = self.term(goal.left)
        right, right_int = self.term(goal.right)
        if goal.op == "=":
            self.add(f"if {left} != {right}: {self.skip()}")
        elif goal.op == "!=":
            self.add(f"if {left} == {right}: {self.skip()}")
        elif goal.op in ("<", "<=", ">", ">="):
            test = f"{left} {goal.op} {right}"
            checks = self.int_checks((left, left_int), (right, right_int))
            if checks:
                test = f"({test} if {checks} else compare_values({goal.op!r}, {left}, {right}))"
            self.add(f"if not {test}: {self.skip()}")
        else:
            self.add(f"if not compare_values({goal.op!r}, {left}, {right}): {self.skip()}")


def _generate(
    rule: Rule,
    mutable: FrozenSet[str],
    version: Optional[int],
    gate: Optional[HeadExtremum],
    proven: _Columns,
) -> Tuple[str, Dict]:
    """Source of `rule(ctx, sink)`, plus `release(ctx, totals, released, emit)`
    for a counting aggregate, and the namespace both run in. The body's goals
    come in analysis.order_goals's order, which raises SafetyError for a rule
    that is not safe."""
    goals, post = order_goals(rule)
    namespace: Dict[str, object] = dict(_RUNTIME)
    src = _Source(
        "def rule(ctx, sink, isinstance=isinstance, int=int, list=list, range=range):",
        namespace,
        proven,
    )
    agg = rule.aggregate()
    head = rule.head
    admits = agg is None and head.predicate in mutable
    if admits:
        head_name = _admit_prologue(src, head.predicate, gate)
    elif agg is not None and agg.kind in EXTREMA_KINDS:
        src.add("_seq = 0")
        src.counters = ("_seq",)
    if version is not None:
        src.add("delta = ctx.delta")
    for goal in goals:
        if isinstance(goal, Comparison):
            src.comparison(goal)
        elif isinstance(goal, Negated):
            probe = src.tuple_of(goal.atom.args)
            src.add(f"if {probe} in {src.store(goal.atom.predicate)[1]}: {src.skip()}")
        elif goal.predicate == RANGE_PREDICATE:
            _range(src, goal)
        else:
            _scan(src, goal, mutable, version)

    if agg is None:
        items = [src.term(t) for t in head.args]
        if admits:
            _admit_tuple(src, head_name, gate, items)
        else:
            src.add(f"sink({_tuple_text([x for x, _ in items])})")
        return src.text(), namespace
    key = src.tuple_of(Variable(v) for v in agg.group_by)
    if agg.kind in EXTREMA_KINDS:
        _extremum_row(src, agg, key, head)
        return src.text(), namespace
    _tally_row(src, agg, key, head.predicate in mutable)

    # Each key releases what its total adds to what it released before: every
    # natural up to the total (mcount/msum) or the total itself (count/sum).
    # A counting result binds only the group and the result: post filters see
    # that binding and no other, and an assignment among them binds nothing.
    rel = _Source(
        "def release(ctx, totals, released, emit, isinstance=isinstance, int=int, range=range):",
        namespace,
    )
    rel.loop("for key, total in totals:")
    if agg.kind in ("msum", "sum"):
        rel.add(f"if total > {INT_MAX}: check_int(total)")
    rel.add("have = released.get(key, 0)")
    rel.add("if total <= have: continue")
    rel.add("released[key] = total")
    first = "have + 1" if agg.kind in ("mcount", "msum") else "total"
    rel.add(f"values = range({first}, total + 1)")
    budget = rel.stop("_TUPLE_BUDGET % ctx.max_tuples")  # a counted step stops in emit
    rel.add(f"if ctx.stats is None and len(values) > ctx.max_tuples: {budget}")
    for i, name in enumerate(agg.group_by):
        rel.add(f"{rel.bind(name)} = key[{i}]")
    result = rel.bind(agg.result)
    rel.ints.add(result)
    rel.loop(f"for {result} in values:")
    for goal in post:
        rel.comparison(goal, assign=False)
    rel.add(f"emit({rel.tuple_of(head.args)})")
    return src.text() + rel.text(), namespace


def _tally_row(src: _Source, agg: AggregateGoal, key: str, seminaive: bool) -> None:
    """Record one row of a counting aggregate in the _Tally sink, whose dicts
    are bound once at the top of the function. mcount/count: a witness new
    to its key joins the key's set. msum/sum: the summand (tested to be an
    integer unless it is known to be one, and passed to the watch when not
    positive) raises its prefix's best, and the key's running total by what
    the best's positive part grew. In a seminaive stratum a count/sum key
    that gained a witness or a best joins grown, and a mcount/msum key whose
    total grew is released at once (fresh)."""
    measured = [src.term(Variable(v)) for v in agg.measured]
    src.add(f"_wk = {key}")
    if seminaive:
        src.top("_G = sink.grown" if agg.kind in ("count", "sum") else "_fresh = sink.fresh")
    grown = "_G[_wk] = None" if agg.kind in ("count", "sum") else "_fresh(_wk)"
    if agg.kind in ("mcount", "count"):
        src.top("_W = sink.witnesses")
        src.add(f"_wm = {_tuple_text([x for x, _ in measured])}")
        src.add("_ws = _W.get(_wk)")
        src.add("if _ws is None: _ws = _W[_wk] = set()")
        src.add("if _wm not in _ws:")
        src.add("    _ws.add(_wm)")
        if seminaive:
            src.add(f"    {grown}")
        return
    src.top("_B, _S, _watch = sink.best, sink.sums, sink.watch")
    s, known = measured[-1]
    if not known:
        src.add(
            f"if not isinstance({s}, int): "
            f"raise TypeMismatch('summand %r is not an integer' % ({s},))"
        )
    src.add(f"if {s} < 1 and _watch is not None: _watch(_wk, {s})")
    src.add("_wb = _B.get(_wk)")
    src.add("if _wb is None: _wb = _B[_wk] = {}; _S[_wk] = 0")
    prefix = _tuple_text([x for x, _ in measured[:-1]])
    src.add(f"_wo = _wb.get({prefix})")
    src.add(f"if _wo is None or {s} > _wo:")
    src.add(f"    _wb[{prefix}] = {s}")
    if seminaive and agg.kind == "sum":
        src.add(f"    {grown}")
    src.add(f"    if {s} > 0:")  # the total grew
    src.add(f"        _S[_wk] += {s} - _wo if _wo is not None and _wo > 0 else {s}")
    if seminaive and agg.kind == "msum":
        src.add(f"        {grown}")


def _admit_prologue(src: _Source, pred: str, gate: Optional[HeadExtremum]) -> str:
    """Resolve, once per call, what admitting into pred touches: its store and
    indexes, the next delta, the gate's incumbents and the room left in the
    tuple budget; return the name that holds pred. The counters are local
    ints, added to ctx.stats when the function returns (ctx.stop adds them
    before a budget stops it)."""
    p = src.constant(pred)
    src.add(f"_H = ctx.store({p})")
    src.add("_Ht = _H.tuples")
    src.add("_Hk = _H._keyed")
    src.add(f"_nd = ctx.next_delta.setdefault({p}, set())")
    if gate is not None:
        src.add(f"_best = ctx.gates[{p}]")
    src.add("_stats = ctx.stats")
    src.add("_room = ctx.max_tuples - _stats.derived")
    src.counters = src.stats = ("_derived", "_retained") + (
        ("_deleted",) if gate and not gate.monotonic else ()
    )
    src.add(" = ".join(src.stats) + " = 0")
    src.tail = [f"    _stats.{c[1:]} += {c}" for c in src.stats]
    return p


def _admit_tuple(
    src: _Source, name: str, gate: Optional[HeadExtremum], items: List[Tuple[str, bool]]
) -> None:
    """Admit one head tuple into the predicate held by name, given its items'
    expressions and whether each is known to be an integer.

    A plain head admits what its store lacks. A gated head admits what
    strictly beats its key's incumbent (ties keep the incumbent); min/max then
    displace the incumbent from the store and both deltas, so it fires no
    rule, while mmin/mmax delete nothing. This is the engine's one
    strict-improvement test.
    """
    src.add(f"_h = {_tuple_text([x for x, _ in items])}")
    src.add("_derived += 1")
    src.add(f"if _derived > _room: {src.stop('_TUPLE_BUDGET % ctx.max_tuples')}")
    if gate is None:
        src.add("if _h not in _Ht:")
    else:
        cost = gate.cost
        value, known = items[cost]
        if not known:
            src.add(
                f"if not isinstance({value}, int): "
                f"raise TypeMismatch('extremum over non-integer value %r' % ({value},))"
            )
        key = _tuple_text([x for i, (x, _) in enumerate(items) if i != cost])
        src.add(f"_o = _best.get({key})")
        src.add(f"if _o is None or {value} {'<' if gate.kind == 'min' else '>'} _o[{cost}]:")
        src.add(f"    _best[{key}] = _h")
        if not gate.monotonic:
            src.add("    if _o is not None:")
            src.add(f"        ctx.drop({name}, _o)")
            src.add("        _deleted += 1")
        # The store holds only what the gate admitted, and _h strictly beats
        # everything held for its key, so it is new to the store.
    src.indent += 1
    src.add("if _Hk: _H.add(_h)")  # the store's indexes are built: keep them current
    src.add("else: _Ht.add(_h)")
    src.add("_retained += 1")
    src.add("_nd.add(_h)")
    src.indent -= 1


def _extremum_row(src: _Source, agg: AggregateGoal, key: str, head: Atom) -> None:
    """Record one row of a stratified is_min/is_max rule in the sink, a dict
    key -> [extremal value, {measured: (ordinal, head)}]. A safe head is a
    function of the key and the measured values, so each measured tuple that
    ties the key's extremum has one head; the ordinal of its first row orders
    the winners as the rows arrived."""
    measured = [src.term(Variable(v)) for v in agg.measured]
    row = _tuple_text([x for x, _ in measured])
    first = f"(_seq, {src.tuple_of(head.args)})"
    value, known = measured[0]
    if not known:
        src.add(
            f"if not isinstance({value}, int): "
            f"raise TypeMismatch('extremum over non-integer values')"
        )
    src.add(f"_gk = {key}")
    src.add("_g = sink.get(_gk)")
    src.add("if _g is None:")
    src.add("    _seq += 1")
    src.add(f"    sink[_gk] = [{value}, {{{row}: {first}}}]")
    src.add(f"elif {value} {'<' if agg.kind == 'is_min' else '>'} _g[0]:")
    src.add("    _seq += 1")
    src.add(f"    _g[0] = {value}")
    src.add(f"    _g[1] = {{{row}: {first}}}")
    src.add(f"elif {value} == _g[0] and {row} not in _g[1]:")
    src.add("    _seq += 1")
    src.add(f"    _g[1][{row}] = {first}")


def _scan(src: _Source, atom: Atom, mutable: FrozenSet[str], version: Optional[int]) -> None:
    """Loop over the tuples matching one body atom.

    Each argument is read as the loop reaches the atom: a constant, or a
    variable an earlier goal bound, is part of the index key; any other
    binds, or is tested where it repeats in the atom. Atoms over mutable are
    numbered in goal order (src.atoms): the one numbered version reads the
    current delta, those before it the full store minus the delta.

    Admission happens per binding, so a relation of the running stratum can
    change under the loop: its tuples are snapshot first, and one displaced
    in the meantime is skipped. Relations the stratum cannot change are
    iterated in place, which visits the same tuples in the same order.
    """
    pred = atom.predicate
    tuples = src.store(pred)[1]
    ordinal = None
    if pred in mutable:
        ordinal = src.atoms
        src.atoms += 1
    positions: List[int] = []
    key: List[str] = []
    binds: List[Tuple[int, str]] = []
    for i, a in enumerate(atom.args):
        if isinstance(a, Constant) or a.name in src.names:
            positions.append(i)
            key.append(src.term(a)[0])
        else:
            binds.append((i, a.name))
    row = src.fresh("_r")
    if version is not None and ordinal == version:
        live = src.fresh("_d")
        src.add(f"{live} = delta.get({src.constant(pred)})")
        src.loop(f"for {row} in list({live} or ()):")
        src.add(f"if {row} not in {live}: continue")
        for p, value in zip(positions, key):
            src.add(f"if {row}[{p}] != {value}: continue")
    else:
        exclude = None
        if version is not None and ordinal is not None and ordinal < version:
            # Older versions read the full store minus the current delta.
            exclude = src.fresh("_e")
            src.add(f"{exclude} = delta.get({src.constant(pred)}, ())")
        source = tuples
        if key:
            probe = key[0] if len(key) == 1 else _tuple_text(key)
            source = f"{src.index(pred, tuple(positions))}.get({probe}, ())"
        if ordinal is not None:
            source = f"list({source})"
        src.loop(f"for {row} in {source}:")
        if ordinal is not None:
            src.add(f"if {row} not in {tuples}: continue")
        if exclude is not None:
            src.add(f"if {row} in {exclude}: continue")
    for p, name in binds:
        local = src.names.get(name)
        if local is None:
            local = src.bind(name)
            src.add(f"{local} = {row}[{p}]")
        else:
            src.add(f"if {row}[{p}] != {local}: continue")
        if (pred, p) in src.proven and local.isidentifier():  # equals a proven value
            src.ints.add(local)


def _range(src: _Source, goal: Atom) -> None:
    """int_up2(C, J): test J in 1..C when J is bound, else enumerate it."""
    count, known = src.term(goal.args[0])
    c = src.fresh("_c")
    src.add(f"{c} = {count}")
    if not known:
        src.add(
            f"if not isinstance({c}, int): "
            f"raise TypeMismatch('range over non-integer %r' % ({c},))"
        )
    src.ints.add(c)
    j = goal.args[1]
    if isinstance(j, Constant) or j.name in src.names:
        value, _ = src.term(j)
        src.add(f"if not (isinstance({value}, int) and 1 <= {value} <= {c}): {src.skip()}")
        return
    message = f"'range 1..%s exceeds the tuple budget' % ({c},)"
    src.add(f"if {c} > ctx.max_tuples - (ctx.stats.derived if ctx.stats else 0): {src.stop(message)}")
    local = src.bind(j.name)
    src.ints.add(local)
    src.loop(f"for {local} in range(1, {c} + 1):")


@dataclass(frozen=True)
class _RuleCode:
    rule: Rule
    agg: Optional[AggregateGoal]
    # run(ctx, sink): a plain rule whose head the running stratum changes
    # admits each head tuple itself and ignores sink; any other plain rule
    # calls sink(head) per binding, a counting aggregate writes its rows into
    # the _Tally sink (_tally_row), and is_min/is_max records its rows in the
    # dict sink (_extremum_row).
    run: Callable
    # release(ctx, totals, released, emit): a counting aggregate's heads for
    # the results each (key, total) adds to what released records, updated.
    release: Optional[Callable]


@lru_cache(maxsize=256)
def _rule_code(
    rule: Rule,
    mutable: FrozenSet[str],
    version: Optional[int],
    gate: Optional[HeadExtremum] = None,
    proven: _Columns = frozenset(),
) -> _RuleCode:
    """Generate and compile one rule's nested-loop function.

    mutable names the relations the running stratum changes while the
    function runs (its head predicates; none for ConsequenceStep, which
    collects before it writes). version is the ordinal, among the body
    atoms over mutable relations, of the one that reads the current delta;
    None reads full stores. When the head is mutable, the function admits
    its tuples through gate, the head predicate's HeadExtremum or None; the
    rule alone does not fix it, since an unannotated rule can define a
    gated predicate. proven names the columns the stratum proved
    integer (_proven_columns); a value read from one skips its isinstance
    test, so the same rule over other data is other code, and the proof is
    part of the cache key. The cache, keyed on the rule's value, serves a
    process that re-parses the same text (a test suite, a benchmark pass); it
    is bounded, so a stream of fresh programs does not grow it.
    """
    source, namespace = _generate(rule, mutable, version, gate, proven)
    tag = "full" if version is None else f"v{version}"
    exec(compile(source, f"<premlog rule {rule.id} {tag}>", "exec"), namespace)
    return _RuleCode(rule, rule.aggregate(), namespace["rule"], namespace.get("release"))


@lru_cache(maxsize=256)
def _admit_code(
    pred: str, arity: int, gate: Optional[HeadExtremum], proven: _Columns = frozenset()
) -> Callable:
    """`admit(ctx, t)`: the admission a rule function writes for its head,
    as a function of one tuple, for what arrives from outside a rule
    function: seeds, count/sum releases and is_min/is_max winners. A column
    of pred in proven is an integer in every such tuple."""
    namespace: Dict[str, object] = dict(_RUNTIME)
    src = _Source("def admit(ctx, t, isinstance=isinstance, int=int):", namespace, proven)
    name = _admit_prologue(src, pred, gate)
    items = [src.fresh("v") for _ in range(arity)]
    if items:
        src.add(f"{', '.join(items)}, = t")
    _admit_tuple(src, name, gate, [(x, (pred, i) in proven) for i, x in enumerate(items)])
    exec(compile(src.text(), f"<premlog admit {pred}>", "exec"), namespace)
    return namespace["admit"]


# =====================================================================================
# EXECUTOR
# =====================================================================================


class _Context:
    """Shared state for one fixpoint loop or consequence step: the stores, the
    current and next delta, each gated predicate's incumbents (key -> best
    tuple), the stats and the budget."""

    __slots__ = ("stores", "delta", "next_delta", "gates", "stats", "max_tuples", "collected")

    def __init__(
        self,
        stores: Dict[str, RelationStore],
        max_tuples: int,
        stats: Optional[EvalStats] = None,
        gates: Optional[Dict[str, Dict[Tuple, GroundTuple]]] = None,
    ):
        self.stores = stores
        self.delta: Dict[str, Set[GroundTuple]] = {}
        self.next_delta: Dict[str, Set[GroundTuple]] = {}
        self.gates = gates or {}
        self.stats = stats
        self.max_tuples = max_tuples
        self.collected: Interpretation = {}  # what a full join derived, not stored

    def store(self, pred: str) -> RelationStore:
        s = self.stores.get(pred)
        if s is None:
            s = RelationStore()
            self.stores[pred] = s
        return s

    def drop(self, pred: str, t: GroundTuple) -> None:
        """Displace t from its store and from the current and next delta."""
        self.stores[pred].remove(t)
        for d in (self.delta, self.next_delta):
            s = d.get(pred)
            if s is not None:
                s.discard(t)

    def state(self) -> Interpretation:
        """A copy of the stores as they stand, with what was collected."""
        return _nonempty({**{p: s.tuples for p, s in self.stores.items()}, **self.collected})

    def count(self, keep: Callable[[GroundTuple], None], t: GroundTuple) -> None:
        """A sink: count t against the tuple budget, then keep it."""
        self.stats.derived += 1
        if self.stats.derived > self.max_tuples:
            self.stop(_TUPLE_BUDGET % self.max_tuples)
        keep(t)

    def stop(self, message: str, derived: int = 0, retained: int = 0, deleted: int = 0) -> None:
        """Add a generated function's counters to the stats, then stop on a
        budget with the stats and the state (with no stats, without either)."""
        stats = self.stats
        if stats is None:
            raise BudgetExceeded(message)
        stats.derived += derived
        stats.retained += retained
        stats.deleted += deleted
        raise BudgetExceeded(message, stats=stats, partial=self.state())


# =====================================================================================
# RULE EVALUATION (full join, static aggregates)
# =====================================================================================


def _rule_candidates(
    ctx: _Context,
    code: _RuleCode,
    emit: Callable[[GroundTuple], object],
    watch: Optional[Callable[[str, Tuple, int], None]] = None,
) -> None:
    """Pass every head tuple derivable from the current stores to emit; a
    msum/sum rule passes its id, group key and summand to watch for each
    non-positive summand. A counting rule's code fills a fresh _Tally, and
    then each key, in first-witness order, releases its total (mcount/msum:
    every natural up to it) as read from the tally."""
    agg = code.agg
    if agg is None:
        code.run(ctx, emit)
        return
    if agg.kind in EXTREMA_KINDS:
        rows: Dict[Tuple, list] = {}
        code.run(ctx, rows)
        for _, head in sorted(first for _, firsts in rows.values() for first in firsts.values()):
            emit(head)
        return
    tally = _Tally(agg.kind, None if watch is None else partial(watch, code.rule.id))
    code.run(ctx, tally)
    code.release(ctx, tally.totals(), tally.released, emit)


# =====================================================================================
# GATES
# =====================================================================================


def _build_gates(rules: Sequence[Rule]) -> Dict[str, HeadExtremum]:
    # A count/sum rule carries an implicit max on its result: the predicate is
    # read as the max projection of the monotonic form. Unannotated rules of
    # the same predicate feed the same gate; only two different annotations
    # conflict.
    specs: Dict[str, Set[HeadExtremum]] = {}
    for r in rules:
        entry = specs.setdefault(r.head.predicate, set())
        if r.extremum is not None:
            entry.add(r.extremum)
            continue
        agg = r.aggregate()
        if agg is not None and agg.kind in ("count", "sum"):
            pos = head_var_positions(r.head).get(agg.result)
            if pos is not None:
                entry.add(HeadExtremum("max", False, pos))
    gates: Dict[str, HeadExtremum] = {}
    for pred, entry in specs.items():
        if len(entry) > 1:
            raise PremlogError(f"rules defining {pred} disagree on its working constraint")
        if entry:
            gates[pred] = next(iter(entry))
    return gates


# =====================================================================================
# INTEGER COLUMNS
# =====================================================================================


def _int_term(t, ints: Set[str]) -> bool:
    """Whether term t is an integer in every binding that passes the body,
    given the variables ints that are: an integer literal, arithmetic (whose
    result is an integer, or it raises) or one of ints."""
    if isinstance(t, Variable):
        return t.name in ints
    return isinstance(t, ArithExpr) or type(t.value) is int


def _int_vars(rule: Rule, proven: _Columns) -> Set[str]:
    """The variables of rule that hold an integer once its whole body has
    passed: read by a positive atom from a proven column, bound by int_up2
    or a counting result, or tied by an equality to an integer term (an
    integer equals no symbol). Goal order is ignored, so this serves the
    head, which runs after the body, and not the tests inside the body."""
    ints: Set[str] = set()
    ties = []
    for g in rule.body:
        if isinstance(g, Atom) and g.predicate == RANGE_PREDICATE:
            if isinstance(g.args[1], Variable):
                ints.add(g.args[1].name)
        elif isinstance(g, Atom):
            for i, a in enumerate(g.args):
                if isinstance(a, Variable) and (g.predicate, i) in proven:
                    ints.add(a.name)
        elif isinstance(g, AggregateGoal) and g.kind in COUNTING_KINDS and g.result is not None:
            ints.add(g.result)
        elif isinstance(g, Comparison) and g.op == "=":
            ties += [(g.left, g.right), (g.right, g.left)]
    grew = True
    while grew:
        grew = False
        for a, b in ties:
            if isinstance(a, Variable) and a.name not in ints and _int_term(b, ints):
                ints.add(a.name)
                grew = True
    return ints


def _proven_columns(
    rules: Sequence[Rule], stores: Dict[str, RelationStore], seeds: Dict[str, Set[GroundTuple]]
) -> Tuple[_Columns, _Columns]:
    """The columns a stratum proves to hold only integers, and which of them
    are its heads'. Each column that a positive atom reads into a variable
    from a relation the stratum does not derive is scanned once, the answer
    kept on its store (RelationStore.int_column). A head column is proven by
    the head terms: the greatest set of head columns that the seeds and
    every rule keep integer, given the rest."""
    heads = {r.head.predicate for r in rules}
    read: Set[Tuple[str, int]] = set()
    for g in (g for r in rules for g in r.regular_goals() if g.predicate not in heads):
        store = stores.get(g.predicate)
        for i, a in enumerate(g.args):
            if isinstance(a, Variable) and (store is None or store.int_column(i)):
                read.add((g.predicate, i))
    held = {
        (r.head.predicate, i)
        for r in rules
        for i in range(r.head.arity)
        if all_ints(seeds.get(r.head.predicate, ()), i)
    }
    while True:
        proven = read | held
        lost = set()
        for r in rules:
            ints = _int_vars(r, proven)
            lost.update((r.head.predicate, i) for i, t in enumerate(r.head.args) if not _int_term(t, ints))
        if lost.isdisjoint(held):
            return frozenset(proven), frozenset(held)
        held -= lost


# =====================================================================================
# SEMINAIVE FIXPOINT
# =====================================================================================


def seminaive_fixpoint(
    rules: Sequence[Rule],
    edb: Interpretation,
    options: Optional[EvalOptions] = None,
    monitor: Optional[List[str]] = None,
) -> Tuple[Interpretation, EvalStats]:
    """Evaluate one stratum on copies of edb, which is left as it was; returns
    edb extended with results, and its stats (wall_ms 0: only a run is timed).
    A run keeps its stores resident instead; perfbench's replay and tests call this."""
    stores = {pred: RelationStore(rel) for pred, rel in edb.items()}
    stats = EvalStats()
    _seminaive_stratum(rules, stores, options or EvalOptions(), monitor, stats)
    return _relations(stores), stats


def _seminaive_stratum(
    rules: Sequence[Rule],
    stores: Dict[str, RelationStore],
    options: EvalOptions,
    monitor: Optional[List[str]],
    stats: EvalStats,
) -> None:
    """Evaluate one stratum incrementally in stores, which then hold its
    results, counting into stats. Each head predicate gets a fresh store, its
    facts entering as seeds through the gates; every other store, and the
    indexes built on it, is read as it stands and kept for the next stratum."""
    first = stats.iterations  # the iteration budget is the stratum's
    head_preds = {r.head.predicate for r in rules}
    seeds: Dict[str, Set[GroundTuple]] = {}
    for pred in head_preds:
        facts = stores.get(pred)  # a predicate's rules are all in one stratum
        if facts is not None:
            seeds[pred] = facts.tuples
            stores[pred] = RelationStore()
    gates = _build_gates(rules)
    ctx = _Context(stores, options.max_tuples, stats, {pred: {} for pred in gates})
    mutable = frozenset(head_preds)
    proven, held = _proven_columns(rules, stores, seeds)

    def code_for(r: Rule, version: Optional[int]) -> _RuleCode:
        return _rule_code(r, mutable, version, gates.get(r.head.predicate), proven)

    # One delta version per goal on a head predicate, as _scan numbers them.
    n_scc = {r.id: sum(g.predicate in head_preds for g in r.regular_goals()) for r in rules}
    exit_code = [(r, code_for(r, None)) for r in rules if n_scc[r.id] == 0]
    delta_code = [(r, code_for(r, v)) for r in rules for v in range(n_scc[r.id])]
    code_of = {r.id: code for r, code in exit_code + delta_code}
    arity = {r.head.predicate: r.head.arity for r in rules}
    admit = {
        pred: partial(_admit_code(pred, arity[pred], gates.get(pred), proven), ctx)
        for pred in head_preds
    }

    # One tally per counting rule: mcount/msum release as witnesses arrive
    # (the rule code calls fresh), count/sum only when the loop quiesces.
    def fresh(rule: Rule, key: Tuple) -> None:
        tally = tallies[rule.id]
        release = code_of[rule.id].release
        release(ctx, tally.totals((key,)), tally.released, admit[rule.head.predicate])

    watch = _positivity_watch(options, monitor)
    tallies: Dict[str, _Tally] = {}
    for r in rules:
        agg = r.aggregate()
        if agg is not None and agg.kind in COUNTING_KINDS:
            tallies[r.id] = _Tally(
                agg.kind, None if watch is None else partial(watch, r.id), partial(fresh, r)
            )

    def release_deferred() -> bool:
        retained = stats.retained
        for r in rules:
            tally = tallies.get(r.id)
            if tally is not None and tally.kind in ("count", "sum"):
                grown = tally.totals(list(tally.grown))
                tally.grown.clear()
                code_of[r.id].release(ctx, grown, tally.released, admit[r.head.predicate])
        return stats.retained > retained  # some release was admitted

    def run_rule(rule: Rule, code: _RuleCode) -> None:
        agg = code.agg
        if agg is None:
            code.run(ctx, None)
        elif agg.kind in EXTREMA_KINDS:
            # Stratified filter: body predicates are complete, evaluate statically.
            _rule_candidates(ctx, code, admit[rule.head.predicate])
        else:
            code.run(ctx, tallies[rule.id])

    # Seed: facts for stratum predicates enter through the gates.
    for pred in head_preds:
        for t in seeds.get(pred, ()):
            admit[pred](t)

    # Round 1 fires the exit rules once over the full stores, each later round
    # the delta rules on the delta pick hands out. When that is empty, the
    # deferred count/sum totals are released, and what they admit restarts
    # the loop.
    greedy = delta_code and not tallies and _greedy(rules, gates, head_preds)
    pick = _cost_levels(ctx, gates) if greedy else partial(_admitted, ctx)
    fire = exit_code
    while True:
        stats.iterations += 1
        _check_iterations(stats, options, first, ctx.state)
        for r, code in fire:
            run_rule(r, code)
        fire = delta_code
        ctx.delta = pick()
        if not any(ctx.delta.values()) and release_deferred():
            ctx.delta = pick()
        if not any(ctx.delta.values()):
            break

    for pred, i in held:  # the stratum is done: what its heads proved stays true
        ctx.store(pred).ints[i] = True


def _greedy(rules: Sequence[Rule], gates: Dict[str, HeadExtremum], head_preds: Set[str]) -> bool:
    """Whether a stratum is greedy (see the module docstring). Deflation
    (inflation) makes every order of draining reach the same constrained
    fixpoint. A nondecreasing (nonincreasing) rule derives no head cheaper
    (dearer) than the body it fires from, so the cost order fires only
    tuples that are final."""
    kinds = {g.kind for g in gates.values()}
    if len(gates) != len(head_preds) or len(kinds) != 1:
        return False
    kind = kinds.pop()
    costs = tuple(sorted((pred, g.cost) for pred, g in gates.items()))
    return all(_settles_in_order(r, kind, costs) for r in rules)


@lru_cache(maxsize=256)
def _settles_in_order(rule: Rule, kind: str, costs: Tuple[Tuple[str, int], ...]) -> bool:
    """_greedy's test of one rule, given the gates' kind and cost positions;
    cached like _rule_code, because each lacks call costs tens of µs. A rule
    the analysis cannot read (a definition chain too deep) runs breadth-first."""
    costmap = dict(costs)
    props = ("deflation", "nondecreasing") if kind == "min" else ("inflation", "nonincreasing")
    try:
        return not any(lacks(rule, prop, costmap, set(costmap)) for prop in props)
    except PremlogError:
        return False


def _admitted(ctx: _Context) -> Dict[str, Set[GroundTuple]]:
    """The breadth-first delta: everything the last iteration admitted."""
    delta, ctx.next_delta = ctx.next_delta, {}
    return delta


def _cost_levels(
    ctx: _Context, gates: Dict[str, HeadExtremum]
) -> Callable[[], Dict[str, Set[GroundTuple]]]:
    """The greedy delta picker: what an iteration admits is queued by its
    cost, and each pick takes the cheapest queued level (the dearest under
    max). Each predicate queues a dict cost -> tuples, and one heap holds the
    queued costs, pushed once per new level of a predicate. A queued tuple
    that is no longer its key's incumbent is dropped when its level comes up:
    min/max displaced it from the store, mmin/mmax only from the gate. A
    level with nothing left is skipped, as is the second pop of a cost two
    predicates queued; with nothing queued the pick is empty."""
    sign = 1 if next(iter(gates.values())).kind == "min" else -1
    lanes = []  # per predicate: name, cost position, queue, a level's incumbents
    for pred, gate in gates.items():
        if gate.monotonic:
            live = partial(_incumbents, ctx.gates[pred], gate.cost)
        else:
            live = ctx.store(pred).tuples.intersection
        lanes.append((pred, gate.cost, {}, live))
    levels: List[int] = []

    def pick() -> Dict[str, Set[GroundTuple]]:
        for pred, c, queue, _ in lanes:
            for t in ctx.next_delta.get(pred, ()):
                v = sign * t[c]
                bucket = queue.get(v)
                if bucket is None:
                    queue[v] = [t]
                    heappush(levels, v)
                else:
                    bucket.append(t)
        ctx.next_delta = {}
        delta: Dict[str, Set[GroundTuple]] = {}
        while levels and not delta:
            v = heappop(levels)
            for pred, _, queue, live in lanes:
                bucket = queue.pop(v, None)
                if bucket:
                    held = live(bucket)
                    if held:
                        delta[pred] = held
        return delta

    return pick


def _incumbents(best: Dict[Tuple, GroundTuple], c: int, tuples: List[GroundTuple]) -> Set[GroundTuple]:
    return {t for t in tuples if best[t[:c] + t[c + 1 :]] is t}


def _check_iterations(
    stats: EvalStats, options: EvalOptions, first: int, state: Callable[[], Interpretation]
) -> None:
    """Stop a stratum begun at iteration first once past its iteration budget."""
    if options.max_iterations is not None and stats.iterations - first > options.max_iterations:
        message = f"iteration budget of {options.max_iterations} exhausted"
        raise BudgetExceeded(message, stats=stats, partial=state())


def _positivity_watch(
    options: EvalOptions, monitor: Optional[List[str]]
) -> Optional[Callable[[str, Tuple, int], None]]:
    """Under options.monitor_positivity, what reports a msum/sum rule's first
    non-positive summand to monitor, once per rule; None otherwise."""
    if not options.monitor_positivity or monitor is None:
        return None
    warned: Set[str] = set()

    def watch(rule_id: str, key: Tuple, summand: int) -> None:
        if rule_id not in warned:
            warned.add(rule_id)
            monitor.append(f"rule {rule_id}: non-positive summand {summand} for key {key}")

    return watch


def _nonempty(interp: Dict[str, Iterable[GroundTuple]]) -> Interpretation:
    return {p: set(rel) for p, rel in interp.items() if rel}


def _relations(stores: Dict[str, RelationStore]) -> Interpretation:
    """The stores' sets themselves, the empty ones left out: for a store no
    rule will write to again."""
    return {p: s.tuples for p, s in stores.items() if s.tuples}


# =====================================================================================
# NAIVE FIXPOINT
# =====================================================================================


def naive_fixpoint(
    rules: Sequence[Rule],
    edb: Interpretation,
    options: Optional[EvalOptions] = None,
    monitor: Optional[List[str]] = None,
    stats: Optional[EvalStats] = None,
) -> Tuple[Interpretation, EvalStats]:
    """Iterate I <- gamma(T(I u edb)) until the interpretation repeats.
    iterated_fixpoint and the oracle pass one stats for all their strata, and
    the tuple budget bounds its total; perfbench's replay passes none and gets
    a fresh EvalStats per stratum. wall_ms stays 0: only a run is timed."""
    options = options or EvalOptions()
    stats = EvalStats() if stats is None else stats
    first = stats.iterations  # the iteration budget is the stratum's
    head_preds = {r.head.predicate for r in rules}
    gates = _build_gates(rules)
    fixed = {pred: rel for pred, rel in edb.items() if pred not in head_preds}
    watch = _positivity_watch(options, monitor)
    step = ConsequenceStep(rules, fixed, options.max_tuples, stats, watch)
    seeds = {p: set(edb.get(p, set())) for p in head_preds}
    current: Dict[str, Set[GroundTuple]] = {p: set() for p in head_preds}
    while True:
        stats.iterations += 1
        varying = {p: current[p] | seeds[p] for p in head_preds}
        _check_iterations(stats, options, first, lambda: _nonempty({**fixed, **varying}))
        out = step(varying)

        new: Dict[str, Set[GroundTuple]] = {}
        for pred in head_preds:
            rel = out[pred]
            gate = gates.get(pred)
            if gate is not None:
                # The step is inclusive, so out holds current; a gate key is
                # every position but the cost, so a key's best in out is new
                # exactly when it beats every tuple current holds for the key.
                # mmin/mmax keep those too.
                rel = keep_extremal(rel, gate.kind, gate.cost)
                if gate.monotonic:
                    rel |= current[pred]
            new[pred] = rel
            stats.retained += len(rel - current[pred])
            stats.deleted += len(current[pred] - rel)
        if new == current:
            break
        current = new
    return _nonempty({**edb, **current}), stats


# =====================================================================================
# PURE PRIMITIVES (used by the empirical checker and tests)
# =====================================================================================


class ConsequenceStep:
    """One inclusive consequence step T of some rules, compiled once for a
    fixed part of the interpretation and applied to many varying parts.

    The fixed relations are read, never derived into; their stores, and the
    indexes the rule code builds on them, are kept from call to call. A call
    gets fresh stores for the varying relations only, and returns a copy of
    them plus every derivable head tuple; the fixed relations are not in it.

    max_tuples bounds int_up2 enumeration; given stats, a call counts each
    derived head tuple there and stops past max_tuples, with the stats and the
    relations derived so far. Given watch, a msum/sum rule reports its
    non-positive summands to it. A counting rule's code writes its witnesses
    and running totals into a _Tally of the call's own, whose totals are
    released when its join is done (_rule_candidates).
    """

    __slots__ = ("codes", "stores", "max_tuples", "stats", "watch")

    def __init__(
        self,
        rules: Sequence[Rule],
        fixed: Interpretation,
        max_tuples: int = 10_000_000,
        stats: Optional[EvalStats] = None,
        watch: Optional[Callable[[str, Tuple, int], None]] = None,
    ):
        self.codes = [(r.head.predicate, _rule_code(r, frozenset(), None)) for r in rules]
        if {p for p, _ in self.codes} & fixed.keys():
            raise PremlogError("a fixed relation is the head of a rule; pass it as varying")
        self.stores = {p: RelationStore(rel) for p, rel in fixed.items()}
        self.max_tuples = max_tuples
        self.stats = stats
        self.watch = watch

    def __call__(self, varying: Interpretation) -> Interpretation:
        stores = dict(self.stores)
        stores.update((p, RelationStore(rel)) for p, rel in varying.items())
        ctx = _Context(stores, self.max_tuples, self.stats)
        out = ctx.collected = {p: set(rel) for p, rel in varying.items()}
        for pred, code in self.codes:
            keep = out.setdefault(pred, set()).add
            emit = keep if self.stats is None else partial(ctx.count, keep)
            _rule_candidates(ctx, code, emit, self.watch)
        return {p: rel for p, rel in out.items() if rel or p in varying}


def apply_ico(rules: Sequence[Rule], interp: Interpretation) -> Interpretation:
    """One inclusive consequence step: interp plus every derivable head.

    Head extremum annotations are ignored here; constraints are applied
    separately so the two can be composed in either order.
    """
    return ConsequenceStep(rules, {})(interp)


def apply_constraint(constraint: Constraint, interp: Interpretation) -> Interpretation:
    """Filter one predicate by bounds and extrema.

    The result is a new dict. Each relation a conjunct filters is a new set;
    every other relation is interp's own set, shared, not copied, so a caller
    that changes the result in place changes interp too."""
    out = dict(interp)
    for part in constraint_conjuncts(constraint):
        rel = out.get(part.predicate)
        if not rel:
            continue
        if isinstance(part, Bound):
            rel = {t for t in rel if compare_values(part.op, t[part.cost], part.limit)}
        else:
            rel = keep_extremal(rel, part.kind, part.cost, part.group_by)
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
    """Evaluate a program stratum by stratum, bottom up.

    Fact sets are filled by one set.update per run. In seminaive mode every
    relation is copied into its store once, as seminaive_fixpoint copies its
    input (adopting the set would change the scan order), and the stores stay
    resident: every stratum runs on them, so an index built in one serves the
    next. The result is the stores' sets; only a budget stop copies them.
    A stop names options.max_tuples as given and carries the run's stats."""
    options = options or EvalOptions()
    strata = stratify(program)
    db = runs_to_interp(program.runs)
    stores = None
    if options.mode == "seminaive":
        stores = {pred: RelationStore(rel) for pred, rel in db.items()}
    stats = EvalStats()
    started = time.perf_counter()
    try:
        for stratum in strata:
            if stores is None:
                db, _ = naive_fixpoint(stratum.rules, db, options, monitor, stats)
            else:
                _seminaive_stratum(stratum.rules, stores, options, monitor, stats)
    finally:
        stats.wall_ms += (time.perf_counter() - started) * 1000.0
    return (db if stores is None else _relations(stores)), stats


# =====================================================================================
# PROGRAM PIPELINE
# =====================================================================================


@dataclass
class RunResult:
    program: Program
    executed: Program
    obligations: List[CompileObligation]
    db: Interpretation
    stats: EvalStats
    warnings: List[str]  # the plan's
    positivity: List[str]  # the positivity monitor's lines (monitor_positivity)

    def answers(self, predicate: str) -> List[GroundTuple]:
        rel = self.db.get(predicate, set())
        try:  # at C speed: the natural order is tuple_sort_key's unless an int meets a str
            return sorted(rel)
        except TypeError:
            return sorted(rel, key=tuple_sort_key)


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
    return RunResult(
        planned.program, planned.executed, planned.obligations, db, stats, planned.warnings, monitor
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
