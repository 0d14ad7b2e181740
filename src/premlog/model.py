"""Core data model: terms, goals, rules, programs, constraints, ground data.

Values are 64-bit signed integers or interned symbols (plain Python str).
Arithmetic is checked: leaving the signed 64-bit range raises Overflow
instead of wrapping. Ordering comparisons are defined on integers only;
equality works across types.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .errors import Overflow, PremlogError, TypeMismatch, UnboundVariable

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


def eval_term(term: Term, binding: Mapping[str, Value]) -> Value:
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, Variable):
        try:
            return binding[term.name]
        except KeyError:
            raise UnboundVariable(f"variable {term.name} is not bound") from None
    return checked_arith(term.op, eval_term(term.left, binding), eval_term(term.right, binding))


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
MONOTONIC_KINDS = ("mcount", "msum")
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
        return [g for g in self.body if isinstance(g, Atom)]

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


# =====================================================================================
# PROGRAM
# =====================================================================================


@dataclass(frozen=True)
class FinalConstraint:
    """A pruning constraint split out of a final rule at parse time."""

    rule_id: str
    constraint: Constraint


@dataclass(frozen=True)
class Program:
    rules: Tuple[Rule, ...]
    facts: Tuple[Atom, ...] = ()
    final_constraints: Tuple[FinalConstraint, ...] = ()
    # Rules defining int_up2; documentation for the range generator, not executed.
    support_rules: Tuple[Rule, ...] = ()
    # Rule ids whose recursive count/sum passed the push check and may run natively.
    approved_recursive_aggregates: frozenset = frozenset()

    def predicates(self) -> List[str]:
        seen: Dict[str, None] = {}
        for f in self.facts:
            seen.setdefault(f.predicate, None)
        for r in self.rules:
            seen.setdefault(r.head.predicate, None)
            for g in r.body:
                if isinstance(g, Atom) and g.predicate != RANGE_PREDICATE:
                    seen.setdefault(g.predicate, None)
                elif isinstance(g, Negated):
                    seen.setdefault(g.atom.predicate, None)
        return list(seen)

    def rules_defining(self, predicate: str) -> List[Rule]:
        return [r for r in self.rules if r.head.predicate == predicate]

    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        return replace(self, rules=tuple(rules))

    def with_facts(self, extra: Iterable[Atom]) -> "Program":
        return replace(self, facts=self.facts + tuple(extra))


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


def interp_copy(i: Interpretation) -> Interpretation:
    return {p: set(r) for p, r in i.items()}


def interp_eq(a: Interpretation, b: Interpretation) -> bool:
    preds = set(a) | set(b)
    return all(a.get(p, set()) == b.get(p, set()) for p in preds)


def interp_add(i: Interpretation, predicate: str, t: GroundTuple) -> bool:
    rel = i.setdefault(predicate, set())
    if t in rel:
        return False
    rel.add(t)
    return True


def facts_to_interp(facts: Iterable[Atom]) -> Interpretation:
    out: Interpretation = {}
    for f in facts:
        interp_add(out, f.predicate, f.as_tuple())
    return out


# =====================================================================================
# SUBSTITUTION AND INTERPRETED GOALS
# =====================================================================================


def substitute(atom: Atom, binding: Mapping[str, Value]) -> Atom:
    """Replace every variable in `atom` using `binding`; result is ground."""
    args: List[Term] = []
    for a in atom.args:
        if isinstance(a, Constant):
            args.append(a)
        elif isinstance(a, Variable):
            try:
                args.append(Constant(binding[a.name]))
            except KeyError:
                raise UnboundVariable(f"variable {a.name} has no binding") from None
        else:
            raise PremlogError(f"arithmetic term {a!r} in predicate argument")
    return Atom(atom.predicate, tuple(args))


def eval_interpreted(goal: Comparison, binding: Mapping[str, Value]):
    """Evaluate a comparison under checked integer arithmetic.

    Returns (truth, binding). An equality whose left side is a single unbound
    variable acts as an assignment: the returned binding is extended with the
    computed value and truth is True.
    """
    if (
        goal.op == "="
        and isinstance(goal.left, Variable)
        and goal.left.name not in binding
    ):
        value = eval_term(goal.right, binding)
        extended = dict(binding)
        extended[goal.left.name] = value
        return True, extended
    left = eval_term(goal.left, binding)
    right = eval_term(goal.right, binding)
    return compare_values(goal.op, left, right), binding
