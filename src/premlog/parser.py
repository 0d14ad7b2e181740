"""Parser for the rule language, a pretty printer, and fact loaders.

Hand-written lexer and recursive-descent parser. Syntax:

    r1: path(Y,Dy) :- arc(a,Y,Dy), Dy>=0.
    r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy.
    r4: spath(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).
    arc(a,b,5).

Rule labels are optional; unlabeled rules get ids r1, r2, ... in source
order. Heads may carry min<V> / max<V> / mmin<V> / mmax<V> annotations.
Comments run from '%' to end of line.

Normalization performed here, after parsing:
  * min/max head annotations and is_min/is_max body goals on predicates
    that are recursive become head extrema on the rule; on non-recursive
    predicates the annotation becomes an is_min/is_max body goal.
  * rules whose head is the interpreted range predicate int_up2 are moved
    aside as support rules (they are not safe as ordinary rules).
  * final rules (head predicate used in no body) have their pruning
    constraints extracted into Program.final_constraints.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import (
    ArityConflict,
    LoadError,
    MalformedAggregate,
    MissingResult,
    ParseError,
    SafetyError,
)
from .model import (
    AGGREGATE_KINDS,
    COMPARISON_OPS,
    COUNTING_KINDS,
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
    HeadExtremum,
    Negated,
    Program,
    Rule,
    Term,
    Variable,
    bound_op_kind,
    final_rules,
    make_constraint,
    term_variables,
)

# =====================================================================================
# LEXER
# =====================================================================================


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'var' | 'int' | 'punct' | 'eof'
    value: str
    line: int
    col: int


_PUNCT_TWO = (":-", "<=", ">=", "!=")
_PUNCT_ONE = "()<>=,.+-*:"


def tokenize(text: str) -> List[Token]:
    toks: List[Token] = []
    i = 0
    n = len(text)
    line = 1
    line_start = 0
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - line_start + 1
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "ident"
            toks.append(Token(kind, word, line, col))
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT_TWO:
            toks.append(Token("punct", two, line, col))
            i += 2
            continue
        if c in _PUNCT_ONE:
            toks.append(Token("punct", c, line, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, n - line_start + 1))
    return toks


# =====================================================================================
# PARSER
# =====================================================================================

_ANNOTATIONS = ("min", "max", "mmin", "mmax")


@dataclass(frozen=True)
class _HeadAnnotation:
    kind: str
    var: str


@dataclass
class _Clause:
    label: Optional[str]
    head: Atom
    annotations: Tuple[Tuple[int, _HeadAnnotation], ...]  # (position, annotation)
    body: Tuple[Goal, ...]
    line: int


class Parser:
    def __init__(self, tokens: Sequence[Token]):
        self.tokens = tokens
        self.pos = 0
        self._anon = 0

    # -- token plumbing ---------------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        k = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[k]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {t.value or t.kind!r}", t.line, t.col)
        return self.next()

    def at_punct(self, value: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == "punct" and t.value == value

    def fail(self, message: str) -> ParseError:
        t = self.peek()
        return ParseError(message, t.line, t.col)

    # -- clauses ----------------------------------------------------------------------

    def parse_clauses(self) -> List[_Clause]:
        out = []
        while self.peek().kind != "eof":
            out.append(self.parse_clause())
        return out

    def parse_clause(self) -> _Clause:
        start = self.peek()
        label = None
        if self.peek().kind == "ident" and self.at_punct(":", 1):
            label = self.next().value
            self.next()
        head, annotations = self.parse_head()
        body: Tuple[Goal, ...] = ()
        if self.at_punct(":-"):
            self.next()
            body = tuple(self.parse_body())
        self.expect("punct", ".")
        return _Clause(label, head, tuple(annotations), body, start.line)

    def parse_head(self):
        name = self.expect("ident").value
        args: List[Term] = []
        annotations: List[Tuple[int, _HeadAnnotation]] = []
        if self.at_punct("("):
            self.next()
            while True:
                t = self.peek()
                if t.kind == "ident" and t.value in _ANNOTATIONS and self.at_punct("<", 1):
                    self.next()
                    self.next()
                    var = self.expect("var").value
                    self.expect("punct", ">")
                    annotations.append((len(args), _HeadAnnotation(t.value, var)))
                    args.append(Variable(var))
                else:
                    args.append(self.parse_simple_term())
                if self.at_punct(","):
                    self.next()
                    continue
                self.expect("punct", ")")
                break
        return Atom(name, tuple(args)), annotations

    # -- goals ------------------------------------------------------------------------

    def parse_body(self) -> List[Goal]:
        goals = [self.parse_goal()]
        while self.at_punct(","):
            self.next()
            goals.append(self.parse_goal())
        return goals

    def parse_goal(self) -> Goal:
        t = self.peek()
        if t.kind == "ident":
            if t.value == "not" and self.peek(1).kind == "ident":
                self.next()
                return Negated(self.parse_atom())
            if t.value in AGGREGATE_KINDS and self.at_punct("(", 1) and self.at_punct("(", 2):
                return self.parse_aggregate()
            if self.at_punct("(", 1):
                return self.parse_atom()
            nxt = self.peek(1)
            if nxt.kind == "punct" and (nxt.value in COMPARISON_OPS or nxt.value in "+-*"):
                return self.parse_comparison()
            # nullary predicate
            self.next()
            return Atom(t.value, ())
        return self.parse_comparison()

    def parse_atom(self) -> Atom:
        name = self.expect("ident").value
        args: List[Term] = []
        if self.at_punct("("):
            self.next()
            while True:
                args.append(self.parse_simple_term())
                if self.at_punct(","):
                    self.next()
                    continue
                self.expect("punct", ")")
                break
        return Atom(name, tuple(args))

    def parse_aggregate(self) -> AggregateGoal:
        t = self.next()
        kind = t.value
        self.expect("punct", "(")
        self.expect("punct", "(")
        group = self.parse_var_list()
        self.expect("punct", ")")
        self.expect("punct", ",")
        self.expect("punct", "(")
        measured = self.parse_var_list()
        self.expect("punct", ")")
        result = None
        if self.at_punct(","):
            self.next()
            result = self.expect("var").value
        self.expect("punct", ")")
        if not measured:
            raise MalformedAggregate(f"{kind} needs at least one measured variable", t.line, t.col)
        if kind in EXTREMA_KINDS:
            if result is not None:
                raise MalformedAggregate(f"{kind} takes no result variable", t.line, t.col)
            if len(measured) != 1:
                raise MalformedAggregate(f"{kind} measures a single variable", t.line, t.col)
        elif result is None:
            raise MissingResult(f"{kind} needs a result variable", t.line, t.col)
        return AggregateGoal(kind, tuple(group), tuple(measured), result)

    def parse_var_list(self) -> List[str]:
        if self.at_punct(")"):
            return []
        out = [self.expect("var").value]
        while self.at_punct(","):
            self.next()
            out.append(self.expect("var").value)
        return out

    def parse_comparison(self) -> Comparison:
        left = self.parse_expr()
        t = self.peek()
        if t.kind != "punct" or t.value not in COMPARISON_OPS:
            raise self.fail("expected a comparison operator")
        self.next()
        right = self.parse_expr()
        return Comparison(t.value, left, right)

    # -- terms ------------------------------------------------------------------------

    def parse_simple_term(self) -> Term:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Constant(int(t.value))
        if t.kind == "punct" and t.value == "-" and self.peek(1).kind == "int":
            self.next()
            return Constant(-int(self.next().value))
        if t.kind == "var":
            self.next()
            if t.value == "_":
                self._anon += 1
                return Variable(f"_A{self._anon}")
            return Variable(t.value)
        if t.kind == "ident":
            self.next()
            return Constant(t.value)
        raise self.fail("expected a term")

    def parse_expr(self) -> Term:
        left = self.parse_mul()
        while self.peek().kind == "punct" and self.peek().value in "+-":
            op = self.next().value
            left = ArithExpr(op, left, self.parse_mul())
        return left

    def parse_mul(self) -> Term:
        left = self.parse_primary()
        while self.at_punct("*"):
            self.next()
            left = ArithExpr("*", left, self.parse_primary())
        return left

    def parse_primary(self) -> Term:
        if self.at_punct("("):
            self.next()
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if self.at_punct("-"):
            self.next()
            inner = self.parse_primary()
            if isinstance(inner, Constant) and isinstance(inner.value, int):
                return Constant(-inner.value)
            return ArithExpr("-", Constant(0), inner)
        return self.parse_simple_term()


# =====================================================================================
# PROGRAM NORMALIZATION
# =====================================================================================


def parse_program(text: str) -> Program:
    clauses = Parser(tokenize(text)).parse_clauses()

    facts: List[Atom] = []
    rule_clauses: List[_Clause] = []
    for c in clauses:
        if not c.body:
            if c.annotations:
                raise ParseError(f"fact {c.head.predicate} carries an annotation", c.line)
            if not c.head.is_ground():
                raise ParseError(f"fact {c.head!r} is not ground", c.line)
            if c.label is not None:
                raise ParseError("facts take no label", c.line)
            facts.append(c.head)
        else:
            rule_clauses.append(c)

    ids = _assign_ids(rule_clauses)
    _check_arities(facts, rule_clauses)
    recursive = _recursive_predicates(rule_clauses)

    rules: List[Rule] = []
    support: List[Rule] = []
    for rid, c in zip(ids, rule_clauses):
        rule = _normalize_rule(rid, c, recursive)
        if rule.head.predicate == RANGE_PREDICATE:
            support.append(rule)
        else:
            _check_safety(rule, c.line)
            rules.append(rule)

    final = _extract_final_constraints(rules)
    return Program(
        rules=tuple(rules),
        facts=tuple(facts),
        final_constraints=tuple(final),
        support_rules=tuple(support),
    )


def _assign_ids(clauses: List[_Clause]) -> List[str]:
    used: Set[str] = set()
    for c in clauses:
        if c.label is not None:
            if c.label in used:
                raise ParseError(f"duplicate rule label {c.label}", c.line)
            used.add(c.label)
    ids = []
    counter = 1
    for c in clauses:
        if c.label is not None:
            ids.append(c.label)
            continue
        while f"r{counter}" in used:
            counter += 1
        ids.append(f"r{counter}")
        used.add(f"r{counter}")
    return ids


def _check_arities(facts: List[Atom], clauses: List[_Clause]) -> None:
    seen: Dict[str, int] = {}

    def check(atom: Atom, line: int) -> None:
        prior = seen.setdefault(atom.predicate, atom.arity)
        if prior != atom.arity:
            raise ArityConflict(
                f"{atom.predicate} used with arity {atom.arity}, earlier {prior}", line
            )

    for f in facts:
        check(f, 0)
    for c in clauses:
        check(c.head, c.line)
        for g in c.body:
            if isinstance(g, Atom):
                check(g, c.line)
            elif isinstance(g, Negated):
                check(g.atom, c.line)
    if seen.get(RANGE_PREDICATE, 2) != 2:
        raise ArityConflict(f"{RANGE_PREDICATE} has arity 2")


def _recursive_predicates(clauses: List[_Clause]) -> Set[str]:
    deps: Dict[str, Set[str]] = {}
    for c in clauses:
        targets = deps.setdefault(c.head.predicate, set())
        for g in c.body:
            if isinstance(g, Atom) and g.predicate != RANGE_PREDICATE:
                targets.add(g.predicate)
            elif isinstance(g, Negated):
                targets.add(g.atom.predicate)
    out: Set[str] = set()
    for p in deps:
        stack = list(deps.get(p, ()))
        seen: Set[str] = set()
        while stack:
            q = stack.pop()
            if q == p:
                out.add(p)
                break
            if q in seen:
                continue
            seen.add(q)
            stack.extend(deps.get(q, ()))
    return out


def _head_var_positions(head: Atom) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for i, a in enumerate(head.args):
        if isinstance(a, Variable) and a.name not in out:
            out[a.name] = i
    return out


def _normalize_rule(rid: str, c: _Clause, recursive: Set[str]) -> Rule:
    head = c.head
    body = list(c.body)
    extremum: Optional[HeadExtremum] = None

    if len(c.annotations) > 1:
        raise ParseError(f"rule {rid} carries several head annotations", c.line)
    for pos, ann in c.annotations:
        if ann.kind in ("mmin", "mmax"):
            extremum = HeadExtremum(ann.kind[1:], True, pos)
        elif head.predicate in recursive:
            extremum = HeadExtremum(ann.kind, False, pos)
        else:
            group = tuple(
                a.name
                for i, a in enumerate(head.args)
                if isinstance(a, Variable) and i != pos
            )
            body.append(AggregateGoal("is_" + ann.kind, group, (ann.var,)))

    if head.predicate in recursive:
        hv = _head_var_positions(head)
        converted = []
        for g in body:
            if isinstance(g, AggregateGoal) and g.kind in EXTREMA_KINDS:
                if extremum is not None:
                    raise ParseError(f"rule {rid} has several extremum constraints", c.line)
                var = g.measured[0]
                if var not in hv:
                    raise MalformedAggregate(
                        f"rule {rid}: measured variable {var} not in head", c.line
                    )
                other = {n for n in hv if n != var}
                if set(g.group_by) != other:
                    raise MalformedAggregate(
                        f"rule {rid}: group {sorted(g.group_by)} must match the other "
                        f"head variables {sorted(other)}",
                        c.line,
                    )
                extremum = HeadExtremum(g.kind[3:], False, hv[var])
                continue
            converted.append(g)
        body = converted

    aggs = [g for g in body if isinstance(g, AggregateGoal)]
    if len(aggs) > 1:
        raise MalformedAggregate(f"rule {rid} has several aggregates", c.line)

    return Rule(rid, head, tuple(body), extremum)


def _check_safety(rule: Rule, line: int) -> None:
    bound: Set[str] = set()
    for g in rule.body:
        if isinstance(g, Atom) and g.predicate != RANGE_PREDICATE:
            bound.update(g.variables())

    # Range goals and equality assignments bind left to right; iterate to a fixpoint.
    changed = True
    while changed:
        changed = False
        for g in rule.body:
            if isinstance(g, Atom) and g.predicate == RANGE_PREDICATE:
                src, dst = g.args
                if all(v in bound for v in _term_var_names(src)):
                    for v in _term_var_names(dst):
                        if v not in bound:
                            bound.add(v)
                            changed = True
            elif isinstance(g, Comparison) and g.op == "=" and isinstance(g.left, Variable):
                if g.left.name not in bound and all(
                    v in bound for v in _term_var_names(g.right)
                ):
                    bound.add(g.left.name)
                    changed = True
    agg = rule.aggregate()
    if agg is not None and agg.result is not None:
        bound.add(agg.result)

    def require(names, where: str) -> None:
        for v in names:
            if v not in bound:
                raise SafetyError(f"rule {rule.id}: variable {v} in {where} is not bound", line)

    require(rule.head.variables(), "head")
    for g in rule.body:
        if isinstance(g, Negated):
            require(g.atom.variables(), "negation")
        elif isinstance(g, Comparison):
            if g.op == "=" and isinstance(g.left, Variable):
                require(_term_var_names(g.right), "comparison")
            else:
                require(g.variables(), "comparison")
        elif isinstance(g, AggregateGoal):
            require(g.group_by, "aggregate group")
            require(g.measured, "aggregate input")

    if agg is not None:
        head_vars = set(rule.head.variables())
        if agg.kind in COUNTING_KINDS:
            allowed = set(agg.group_by) | {agg.result}
        else:
            allowed = set(agg.group_by) | set(agg.measured)
        stray = head_vars - allowed
        if stray:
            raise SafetyError(
                f"rule {rule.id}: head variables {sorted(stray)} not covered by the "
                f"{agg.kind} group",
                line,
            )
    if rule.extremum is not None:
        arg = rule.head.args[rule.extremum.cost]
        if not isinstance(arg, Variable):
            raise SafetyError(f"rule {rule.id}: extremum argument must be a variable", line)


def _term_var_names(t: Term) -> List[str]:
    return list(term_variables(t))


def _extract_final_constraints(rules: Sequence[Rule]) -> List[FinalConstraint]:
    out: List[FinalConstraint] = []
    for r in final_rules(rules):
        if r.extremum is not None:
            continue
        regular = [g for g in r.regular_goals() if g.predicate != RANGE_PREDICATE]
        if len(regular) != 1:
            continue
        atom = regular[0]
        positions = _head_var_positions(atom)
        parts = []
        for g in r.body:
            if isinstance(g, Comparison):
                part = _comparison_bound(g, atom.predicate, positions)
                if part is not None:
                    parts.append(part)
            elif isinstance(g, AggregateGoal) and g.kind in EXTREMA_KINDS:
                var = g.measured[0]
                if var not in positions or any(v not in positions for v in g.group_by):
                    parts = []
                    break
                parts.append(
                    Extremum(
                        g.kind[3:],
                        atom.predicate,
                        tuple(positions[v] for v in g.group_by),
                        positions[var],
                    )
                )
        if parts:
            out.append(FinalConstraint(r.id, make_constraint(parts)))
    return out


def _comparison_bound(g: Comparison, predicate: str, positions: Dict[str, int]):
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
    left, op, right = g.left, g.op, g.right
    if isinstance(left, Constant) and isinstance(right, Variable):
        left, right = right, left
        op = flipped.get(op, op)
    if (
        isinstance(left, Variable)
        and isinstance(right, Constant)
        and op in flipped
        and left.name in positions
    ):
        return Bound(bound_op_kind(op), predicate, positions[left.name], op, right.value)
    return None


def parse_facts(text: str) -> List[Atom]:
    program = parse_program(text)
    if program.rules or program.support_rules:
        raise ParseError("facts input contains rules")
    return list(program.facts)


# =====================================================================================
# PRETTY PRINTER
# =====================================================================================


def format_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Constant):
        return str(t.value)
    left = format_term(t.left)
    right = format_term(t.right)
    if isinstance(t.left, ArithExpr):
        left = f"({left})"
    if isinstance(t.right, ArithExpr):
        right = f"({right})"
    return f"{left}{t.op}{right}"


def format_atom(a: Atom) -> str:
    if not a.args:
        return a.predicate
    return f"{a.predicate}({','.join(format_term(x) for x in a.args)})"


def format_goal(g: Goal) -> str:
    if isinstance(g, Atom):
        return format_atom(g)
    if isinstance(g, Comparison):
        return f"{format_term(g.left)}{g.op}{format_term(g.right)}"
    if isinstance(g, Negated):
        return f"not {format_atom(g.atom)}"
    groups = ",".join(g.group_by)
    measured = ",".join(g.measured)
    if g.result is None:
        return f"{g.kind}(({groups}),({measured}))"
    return f"{g.kind}(({groups}),({measured}),{g.result})"


def format_rule(rule: Rule) -> str:
    head = rule.head
    goals = [format_goal(g) for g in rule.body]
    if rule.extremum is not None:
        ex = rule.extremum
        var = head.args[ex.cost]
        assert isinstance(var, Variable)
        if ex.monotonic:
            parts = [
                f"m{ex.kind}<{format_term(a)}>" if i == ex.cost else format_term(a)
                for i, a in enumerate(head.args)
            ]
            head_text = f"{head.predicate}({','.join(parts)})"
        else:
            head_text = format_atom(head)
            group = ",".join(
                a.name
                for i, a in enumerate(head.args)
                if isinstance(a, Variable) and i != ex.cost
            )
            goals.append(f"is_{ex.kind}(({group}),({var.name}))")
    else:
        head_text = format_atom(head)
    if not goals:
        return f"{rule.id}: {head_text}."
    return f"{rule.id}: {head_text} :- {', '.join(goals)}."


def format_program(p: Program) -> str:
    lines = [format_atom(f) + "." for f in p.facts]
    for r in p.support_rules:
        lines.append(format_rule(r))
    for r in p.rules:
        lines.append(format_rule(r))
    return "\n".join(lines) + ("\n" if lines else "")


# =====================================================================================
# FACT FILE LOADERS
# =====================================================================================


def _node_value(field: str):
    try:
        return int(field)
    except ValueError:
        return field


def load_edge_list(path: str, fmt: Optional[str] = None) -> List[Atom]:
    """Load arc/3 facts from a tsv or csv edge list.

    Lines hold `src dst length` or `src dst` (length defaults to 1).
    Node fields that look like integers are loaded as integers.
    """
    if fmt is None:
        fmt = "csv" if os.path.splitext(path)[1].lower() == ".csv" else "tsv"
    if fmt not in ("tsv", "csv"):
        raise LoadError(f"unknown edge list format {fmt!r}")
    facts: List[Atom] = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = [f.strip() for f in text.split(",")] if fmt == "csv" else text.split()
            if len(fields) == 2:
                fields.append("1")
            if len(fields) != 3:
                raise LoadError(f"expected 2 or 3 fields, found {len(fields)}", lineno)
            try:
                length = int(fields[2])
            except ValueError:
                raise LoadError(f"length {fields[2]!r} is not an integer", lineno) from None
            key = (fields[0], fields[1], length)
            if key in seen:
                continue
            seen.add(key)
            facts.append(
                Atom(
                    "arc",
                    (
                        Constant(_node_value(fields[0])),
                        Constant(_node_value(fields[1])),
                        Constant(length),
                    ),
                )
            )
    return facts


def load_facts_path(path: str) -> List[Atom]:
    """Dispatch on extension: .tsv/.csv edge lists, anything else rule syntax."""
    ext = os.path.splitext(path)[1].lower()
    if ext in (".tsv", ".csv"):
        return load_edge_list(path, ext.lstrip("."))
    with open(path, "r", encoding="utf-8") as fh:
        return parse_facts(fh.read())
