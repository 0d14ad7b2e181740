"""Core data model: terms, goals, rules, programs, constraints, ground data.

Values are 64-bit signed integers or interned symbols (plain Python str).
Arithmetic is checked: leaving the signed 64-bit range raises Overflow
instead of wrapping. Ordering comparisons are defined on integers only;
equality works across types.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from operator import itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .errors import Overflow, PremlogError, TypeMismatch, UnboundVariable

if TYPE_CHECKING:
    from .analysis import DependencyGraph

# =====================================================================================
# VALUES
# =====================================================================================

Value = Union[int, str]

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


def check_int(v: int) -> int:
    if v < INT_MIN or v > INT_MAX:
        raise Overflow(f"integer {v} outside signed 64-bit range")
    return v


def checked_arith(op: str, a: Value, b: Value) -> int:
    if not isinstance(a, int) or not isinstance(b, int):
        raise TypeMismatch(f"arithmetic '{op}' needs integers, got {a!r} and {b!r}")
    if op == "+":
        return check_int(a + b)
    if op == "-":
        return check_int(a - b)
    if op == "*":
        return check_int(a * b)
    raise PremlogError(f"unknown arithmetic operator {op!r}")


def compare_values(op: str, a: Value, b: Value) -> bool:
    if op == "=":
        return a == b
    if op == "!=":
        return a != b
    if not isinstance(a, int) or not isinstance(b, int):
        raise TypeMismatch(f"ordering '{op}' needs integers, got {a!r} and {b!r}")
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise PremlogError(f"unknown comparison operator {op!r}")


def value_sort_key(v: Value) -> Tuple[int, Value]:
    # Deterministic cross-type ordering: integers before symbols.
    return (0, v) if isinstance(v, int) else (1, v)


def tuple_sort_key(t: Tuple[Value, ...]) -> Tuple[Tuple[int, Value], ...]:
    return tuple(value_sort_key(v) for v in t)


def format_value(v: Value) -> str:
    return str(v)


# =====================================================================================
# TERMS
# =====================================================================================


@dataclass(frozen=True)
class Variable:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    value: Value

    def __repr__(self) -> str:
        return format_value(self.value)


@dataclass(frozen=True)
class ArithExpr:
    """Arithmetic over +, - and *; appears only inside interpreted goals."""

    op: str
    left: "Term"
    right: "Term"

    def __repr__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


Term = Union[Variable, Constant, ArithExpr]


def term_variables(term: Term) -> Iterator[str]:
    if isinstance(term, Variable):
        yield term.name
    elif isinstance(term, ArithExpr):
        yield from term_variables(term.left)
        yield from term_variables(term.right)


def map_term(term: Term, f: Callable[[str], Term]) -> Term:
    """term with every variable V replaced by f(V)."""
    if isinstance(term, Variable):
        return f(term.name)
    if isinstance(term, ArithExpr):
        return ArithExpr(term.op, map_term(term.left, f), map_term(term.right, f))
    return term


# =====================================================================================
# GOALS
# =====================================================================================


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: Tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Iterator[str]:
        for a in self.args:
            yield from term_variables(a)

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def as_tuple(self) -> Tuple[Value, ...]:
        if not self.is_ground():
            raise UnboundVariable(f"atom {self!r} is not ground")
        return tuple(a.value for a in self.args)  # type: ignore[union-attr]

    def __repr__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(map(repr, self.args))})"


COMPARISON_OPS = ("<", "<=", ">", ">=", "=", "!=")


@dataclass(frozen=True)
class Comparison:
    op: str
    left: Term
    right: Term

    def variables(self) -> Iterator[str]:
        yield from term_variables(self.left)
        yield from term_variables(self.right)

    def __repr__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Negated:
    atom: Atom

    def variables(self) -> Iterator[str]:
        return self.atom.variables()

    def __repr__(self) -> str:
        return f"not {self.atom!r}"


AGGREGATE_KINDS = ("is_min", "is_max", "mcount", "msum", "count", "sum")
EXTREMA_KINDS = ("is_min", "is_max")
COUNTING_KINDS = ("mcount", "msum", "count", "sum")


@dataclass(frozen=True)
class AggregateGoal:
    """Body aggregate: kind((group_by), (measured) [, result]).

    For msum/sum the last measured variable is the summed quantity.
    is_min/is_max take no result variable; they filter the joined bindings.
    """

    kind: str
    group_by: Tuple[str, ...]
    measured: Tuple[str, ...]
    result: Optional[str] = None

    def variables(self) -> Iterator[str]:
        yield from self.group_by
        yield from self.measured
        if self.result is not None:
            yield self.result

    def __repr__(self) -> str:
        groups = ", ".join(self.group_by)
        measured = ", ".join(self.measured)
        if self.result is None:
            return f"{self.kind}(({groups}), ({measured}))"
        return f"{self.kind}(({groups}), ({measured}), {self.result})"


Goal = Union[Atom, Comparison, Negated, AggregateGoal]


def map_goal(goal: Goal, f: Callable[[str], Term]) -> Optional[Goal]:
    """goal with every variable V replaced by f(V).

    An aggregate names its variables, so it maps only to variables: None
    when f sends one of them to a constant or an expression.
    """
    if isinstance(goal, Atom):
        return Atom(goal.predicate, tuple(map_term(a, f) for a in goal.args))
    if isinstance(goal, Comparison):
        return Comparison(goal.op, map_term(goal.left, f), map_term(goal.right, f))
    if isinstance(goal, Negated):
        return Negated(map_goal(goal.atom, f))
    mapped = [f(v) for v in goal.variables()]
    if not all(isinstance(t, Variable) for t in mapped):
        return None
    names = [t.name for t in mapped]
    n, m = len(goal.group_by), len(goal.measured)
    result = names[n + m] if goal.result is not None else None
    return AggregateGoal(goal.kind, tuple(names[:n]), tuple(names[n : n + m]), result)


def head_var_positions(atom: Atom) -> Dict[str, int]:
    """The first argument position of each variable of atom."""
    out: Dict[str, int] = {}
    for i, a in enumerate(atom.args):
        if isinstance(a, Variable) and a.name not in out:
            out[a.name] = i
    return out


# int_up2(C, J) is an interpreted range generator: with C bound it enumerates
# J = 1 .. C. Rules defining it are kept as non-executed support rules.
RANGE_PREDICATE = "int_up2"


# =====================================================================================
# RULES AND PROGRAMS
# =====================================================================================


@dataclass(frozen=True)
class HeadExtremum:
    """A min/max working-set annotation on a rule head.

    Non-monotonic form (min/max): the evaluator keeps exactly one tuple per
    group key, displacing beaten tuples. Monotonic form (mmin/mmax): every
    improving tuple is kept, non-improving tuples are rejected.
    """

    kind: str  # 'min' | 'max'
    monotonic: bool
    cost: int  # head argument position of the cost value


@dataclass(frozen=True)
class Rule:
    id: str
    head: Atom
    body: Tuple[Goal, ...]
    extremum: Optional[HeadExtremum] = None

    def regular_goals(self) -> List[Atom]:
        """The positive goals that read a relation: every atom but int_up2."""
        return [g for g in self.body if isinstance(g, Atom) and g.predicate != RANGE_PREDICATE]

    def aggregate(self) -> Optional[AggregateGoal]:
        for g in self.body:
            if isinstance(g, AggregateGoal):
                return g
        return None

    def body_variables(self) -> Iterator[str]:
        for g in self.body:
            yield from g.variables()

    def __repr__(self) -> str:
        if not self.body:
            return f"{self.id}: {self.head!r}."
        return f"{self.id}: {self.head!r} :- {', '.join(map(repr, self.body))}."


# =====================================================================================
# CONSTRAINTS
# =====================================================================================


@dataclass(frozen=True)
class Extremum:
    """Keep, per group key, only the tuple with extremal cost."""

    kind: str  # 'min' | 'max'
    predicate: str
    group_by: Tuple[int, ...]  # argument positions, 0-based
    cost: int  # argument position, 0-based

    def __repr__(self) -> str:
        return f"{self.kind}({self.predicate}: group {list(self.group_by)}, cost {self.cost})"


@dataclass(frozen=True)
class Bound:
    """Filter tuples by comparing the cost argument against a constant."""

    kind: str  # 'upper' | 'lower'
    predicate: str
    cost: int
    op: str  # < <= > >=
    limit: Value

    def __repr__(self) -> str:
        return f"{self.kind}({self.predicate}: arg {self.cost} {self.op} {self.limit})"


@dataclass(frozen=True)
class Conjunction:
    """Ordered conjunction of constraints on one predicate; bounds first."""

    parts: Tuple[Union[Bound, Extremum], ...]

    def __repr__(self) -> str:
        return " and ".join(map(repr, self.parts))


Constraint = Union[Extremum, Bound, Conjunction]


def constraint_conjuncts(c: Constraint) -> Tuple[Union[Bound, Extremum], ...]:
    return c.parts if isinstance(c, Conjunction) else (c,)


def constraint_predicate(c: Constraint) -> str:
    return constraint_conjuncts(c)[0].predicate


def make_constraint(parts: Iterable[Union[Bound, Extremum]]) -> Constraint:
    # Bounds are applied before extrema regardless of source order.
    ordered = sorted(parts, key=lambda p: isinstance(p, Extremum))
    if not ordered:
        raise ValueError("constraint needs at least one conjunct")
    if len(ordered) == 1:
        return ordered[0]
    preds = {p.predicate for p in ordered}
    if len(preds) != 1:
        raise PremlogError(f"conjunction constrains several predicates: {sorted(preds)}")
    return Conjunction(tuple(ordered))


def bound_op_kind(op: str) -> str:
    if op in ("<", "<="):
        return "upper"
    if op in (">", ">="):
        return "lower"
    raise PremlogError(f"not a bound operator: {op!r}")


# The ordering operator that holds with its two sides swapped.
FLIP_OP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def goal_conjunct(goal: Goal, atom: Atom) -> Optional[Union[Bound, Extremum]]:
    """The constraint on atom's predicate that a final rule's goal states.

    A comparison of one of atom's variables with a constant is a bound; an
    is_min/is_max over atom's variables is an extremum; anything else None.
    """
    positions = head_var_positions(atom)
    if isinstance(goal, Comparison):
        left, op, right = goal.left, goal.op, goal.right
        if isinstance(left, Constant) and isinstance(right, Variable):
            left, right, op = right, left, FLIP_OP.get(op, op)
        if (
            isinstance(left, Variable)
            and isinstance(right, Constant)
            and op in FLIP_OP
            and left.name in positions
        ):
            return Bound(bound_op_kind(op), atom.predicate, positions[left.name], op, right.value)
    elif isinstance(goal, AggregateGoal) and goal.kind in EXTREMA_KINDS:
        if all(v in positions for v in goal.variables()):
            group = tuple(positions[v] for v in goal.group_by)
            return Extremum(goal.kind[3:], atom.predicate, group, positions[goal.measured[0]])
    return None


# =====================================================================================
# PROGRAM
# =====================================================================================


@dataclass(frozen=True)
class FinalConstraint:
    """A pruning constraint split out of a final rule at parse time."""

    rule_id: str
    constraint: Constraint


class Fact(NamedTuple):
    """A ground fact: the EDB travels as these from loading to the engine's sets."""

    predicate: str
    values: Tuple[Value, ...]

    def as_tuple(self) -> Tuple[Value, ...]:
        return self.values


# Fact((predicate, values)) at C speed, for readers that build Facts in bulk:
# the Python-level Fact.__new__ costs about as much as matching a fact line.
new_fact = partial(tuple.__new__, Fact)


@dataclass(frozen=True)
class Program:
    rules: Tuple[Rule, ...]
    facts: Tuple[Fact, ...] = ()
    final_constraints: Tuple[FinalConstraint, ...] = ()
    # Rules defining int_up2; documentation for the range generator, not executed.
    support_rules: Tuple[Rule, ...] = ()
    # Rule ids whose recursive count/sum passed the push check and may run natively.
    approved_recursive_aggregates: frozenset = frozenset()

    @cached_property
    def graph(self) -> DependencyGraph:
        """The dependency graph of the rules, built on first use. Every
        change to the rules makes a new Program, with a graph of its own."""
        from .analysis import build_dependency_graph

        return build_dependency_graph(self.rules)

    def adopt_graph(self, graph: DependencyGraph) -> "Program":
        """Take graph, built by the caller from these rules, as Program.graph."""
        self.__dict__["graph"] = graph  # where cached_property keeps its value
        return self

    def arities(self) -> Dict[str, int]:
        """Each predicate's arity: its first use in a rule, else its facts'."""
        used: Dict[str, int] = {}
        for r in self.rules + self.support_rules:
            negated = [g.atom for g in r.body if isinstance(g, Negated)]
            for atom in [r.head, *r.regular_goals(), *negated]:
                used.setdefault(atom.predicate, atom.arity)
        return {**fact_arities(self.facts), **used}

    def rules_defining(self, predicate: str) -> List[Rule]:
        return [r for r in self.rules if r.head.predicate == predicate]

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        return replace(self, rules=tuple(rules))

    def with_facts(self, extra: Iterable[Fact]) -> "Program":
        # Facts are not in the graph, so the new program shares it.
        return replace(self, facts=self.facts + tuple(extra)).adopt_graph(self.graph)


def final_rules(rules: Iterable[Rule]) -> List[Rule]:
    """Rules whose head predicate no rule body reads, positively or negated."""
    rules = list(rules)
    read = set()
    for r in rules:
        for g in r.body:
            if isinstance(g, Atom):
                read.add(g.predicate)
            elif isinstance(g, Negated):
                read.add(g.atom.predicate)
    return [r for r in rules if r.head.predicate not in read]


# =====================================================================================
# GROUND DATA
# =====================================================================================

GroundTuple = Tuple[Value, ...]
Relation = set  # set of GroundTuple, one predicate
Interpretation = Dict[str, set]  # predicate -> Relation


def interp_eq(a: Interpretation, b: Interpretation) -> bool:
    preds = set(a) | set(b)
    return all(a.get(p, set()) == b.get(p, set()) for p in preds)


def fact_arities(facts: Sequence[Fact]) -> Dict[str, int]:
    """Each predicate's arity in `facts`, as its last fact has it: one pass at
    C speed, then one len per predicate."""
    last = dict(zip(map(itemgetter(0), facts), facts))
    return {predicate: len(f.values) for predicate, f in last.items()}


def facts_to_interp(facts: Iterable[Fact]) -> Interpretation:
    """The EDB as sets per predicate, each filled in fact order."""
    out: Interpretation = {}
    for predicate, values in facts:
        rel = out.get(predicate)
        if rel is None:
            rel = out[predicate] = set()
        rel.add(values)
    return out


def all_ints(tuples: Iterable[GroundTuple], i: int) -> bool:
    """Whether column i of tuples holds only integers, in one pass at C
    speed: sum adds integers and raises TypeError at the first symbol (a
    float, which no loader makes, would make the total a float)."""
    try:
        return type(sum(map(itemgetter(i), tuples))) is int
    except TypeError:
        return False


def keep_extremal(
    rel: Set[GroundTuple], kind: str, cost: int, group: Optional[Tuple[int, ...]] = None
) -> Set[GroundTuple]:
    """The constraint gamma of one extremum: per group key, the tuples whose
    cost is least ('min') or greatest ('max'), ties all kept.

    group lists the key positions; None keys on every position but the cost.
    The cost column is proven integer once, at C speed (all_ints); a
    non-integer cost raises TypeMismatch naming the first one in rel's
    iteration order. Keys are read with one itemgetter, and the result is
    filled in rel's iteration order.
    """
    if not rel:
        return set()
    if not all_ints(rel, cost):
        bad = next(t[cost] for t in rel if not isinstance(t[cost], int))
        raise TypeMismatch(f"extremum over non-integer value {bad!r}")
    if group is None:
        group = tuple(i for i in range(len(next(iter(rel)))) if i != cost)
    if not group:
        v = (min if kind == "min" else max)(map(itemgetter(cost), rel))
        return {t for t in rel if t[cost] == v}
    key_of = itemgetter(*group)
    best: Dict[object, int] = {}
    if kind == "min":
        for t in rel:
            key = key_of(t)
            c = t[cost]
            held = best.get(key)
            if held is None or c < held:
                best[key] = c
    else:
        for t in rel:
            key = key_of(t)
            c = t[cost]
            held = best.get(key)
            if held is None or c > held:
                best[key] = c
    return {t for t in rel if best[key_of(t)] == t[cost]}
