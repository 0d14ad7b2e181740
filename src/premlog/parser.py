"""Parser for the rule language, a pretty printer, and fact loaders.

Hand-written lexer and recursive-descent parser: tokens are plain
(kind, value, line, col) tuples, which the parser reads by index. A plain
fact line, such as `arc(a,b,5).`, that starts at a clause boundary never
reaches the tokenizer: a line reader checks a chunk of such lines of one
arity with one match of a pattern for that arity, splits it into fields at
C speed, converts each distinct argument text once and checks one arity per
chunk. Everything else is tokenized, so every error keeps its message, line
and column. Fact files go through the same parse_program; edge lists are
read whole, each distinct field converted once (.csv on commas, else on
whitespace). Readers return (predicate, rows) runs; Program.facts serves
the API and perfbench. Syntax:

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
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, groupby
from operator import itemgetter
from typing import AbstractSet, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from .analysis import build_dependency_graph, order_goals
from .errors import (
    ArityConflict,
    LoadError,
    MalformedAggregate,
    MissingResult,
    ParseError,
)
from .model import (
    AGGREGATE_KINDS,
    COMPARISON_OPS,
    EXTREMA_KINDS,
    RANGE_PREDICATE,
    AggregateGoal,
    ArithExpr,
    Atom,
    Comparison,
    Constant,
    Fact,
    Goal,
    GroundTuple,
    HeadExtremum,
    Negated,
    Program,
    Rule,
    Run,
    Term,
    Value,
    Variable,
    format_value,
    head_var_positions,
    run_facts,
)

# =====================================================================================
# LEXER
# =====================================================================================


_PUNCT_TWO = (":-", "<=", ">=", "!=")
_PUNCT_ONE = "()<>=,.+-*:"

# A plain fact line holds one fact p(a1,...,an). or p. whose arguments are
# lowercase ASCII identifiers or optionally negative integers, blanks around
# them: the line reader gives it the same row the tokenizer and parser would.
# int() converts 640 digits under any limit Python allows; a longer literal is
# left to the tokenizer, whose parser reports one int() refuses.
_ARG_TEXT = r"[a-z][A-Za-z0-9_']*|-?[0-9]{1,640}"
_ARG = rf"[ \t\r]*(?:{_ARG_TEXT})[ \t\r]*"
_FACT_LINE = re.compile(
    rf"[ \t\r]*([a-z][A-Za-z0-9_']*)[ \t\r]*(?:\(({_ARG}(?:,{_ARG})*)\))?[ \t\r]*\.[ \t\r]*"
)


# Arities read through a pattern of their own; compiling one costs about
# 0.1 ms per argument, so a line of more arguments is read alone.
_PATTERN_ARITIES = 8

# No quantifier of a chunk pattern could match more by giving back, so from
# 3.11 on, whose re has them, all of them are possessive.
_POSSESSIVE = "+" if sys.version_info >= (3, 11) else ""


@lru_cache(maxsize=_PATTERN_ARITIES)
def _fact_lines_of_arity(arity: int) -> "re.Pattern[str]":
    """Consecutive lines that _FACT_LINE takes with `arity` > 0 arguments,
    each ended by a newline; no group, as the matched text is split."""
    line = rf"[ \t\r]*[a-z][A-Za-z0-9_']*[ \t\r]*\({','.join([_ARG] * arity)}\)[ \t\r]*\.[ \t\r]*\n"
    return re.compile(re.sub(r"[*}]", rf"\g<0>{_POSSESSIVE}", rf"(?:{line})*"))


# Punctuation to blanks: the text of matched lines then splits into their
# predicates and arguments, which hold neither.
_FIELD_TEXT = str.maketrans("(),.", "    ")

# A run's first chunk joins _FIRST_CHUNK_LINES lines, and one that matches whole
# is followed by one twice as long, up to _CHUNK_LINES: a short run pays little.
_FIRST_CHUNK_LINES, _CHUNK_LINES = 16, 256


@dataclass
class _FactRun:
    """Consecutive plain fact lines, read without tokens, from line `line` on:
    their rows as (predicate, rows) pieces in line order, each piece of one
    predicate and one arity, so _check_arities reads one arity per piece."""

    line: int
    pieces: List[Tuple[str, List[GroundTuple]]]


class _ArgValues(dict):
    """Argument text -> value, each distinct text converted once."""

    def __missing__(self, text: str) -> Value:
        arg = text.strip(" \t\r")
        value = self[text] = int(arg) if arg[0] in "-0123456789" else arg
        return value


def _read_fact_run(lines: List[str], start: int, m: "re.Match[str]") -> Tuple[_FactRun, int]:
    """The plain fact lines from lines[start] on, and the index of the first
    line that is not one; m is the caller's _FACT_LINE match of lines[start].

    The run is read in chunks of one arity: one match of the arity's pattern
    takes the chunk's joined lines up to the first it does not take, that
    text is split into fields at C speed, each distinct argument text is
    converted once, and the rows are built by column, split where the
    predicate changes. A `p.` line, one of more than _PATTERN_ARITIES
    arguments, or one whose next two lines have another number of commas is
    read alone.
    """
    pieces: List[Tuple[str, List[GroundTuple]]] = []
    match = _FACT_LINE.fullmatch
    value = _ArgValues().__getitem__
    i, n = start, len(lines)
    while True:
        predicate, args = m.groups()
        arity = 0 if args is None else args.count(",") + 1
        # A chunk pays for itself when the next two lines look alike.
        if (
            arity <= _PATTERN_ARITIES
            and i + 2 < n
            and arity - 1 == lines[i + 1].count(",") == lines[i + 2].count(",")
        ):
            size = _FIRST_CHUNK_LINES
            while i < n:
                chunk = "\n".join(lines[i : i + size]) + "\n"
                end = _fact_lines_of_arity(arity).match(chunk).end()
                fields = chunk[:end].translate(_FIELD_TEXT).split()
                predicates = fields[:: arity + 1]
                rows = zip(*[map(value, fields[k :: arity + 1]) for k in range(1, arity + 1)])
                if predicates and predicates.count(predicates[0]) == len(predicates):
                    pieces.append((predicates[0], list(rows)))
                else:  # several predicates, or no line after a whole chunk
                    for p, group in groupby(zip(predicates, rows), itemgetter(0)):
                        pieces.append((p, list(map(itemgetter(1), group))))
                i += len(predicates)
                if end < len(chunk):
                    break
                size = min(2 * size, _CHUNK_LINES)
        else:  # a line read alone
            pieces.append((predicate, [tuple(map(value, args.split(","))) if arity else ()]))
            i += 1
        if i == n or not (m := match(lines[i])):
            break
    return _FactRun(start + 1, pieces), i


def _int_value(token: tuple) -> int:
    _, text, line, col = token
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(_digit_limit(len(text)), line, col) from None


def _digit_limit(digits: int) -> str:
    """What an integer of more digits than int() converts reports."""
    return f"integer literal of {digits} digits exceeds the limit of {sys.get_int_max_str_digits()}"


def tokenize(text: str) -> List[tuple]:
    """The tokens of `text`, line by line: plain (kind, value, line, col)
    tuples. kind is 'ident', 'var', 'int', 'punct', 'facts' or 'eof'; value
    is the text, '' for 'eof' and the _FactRun read in place of a 'facts'.

    Where a line starts at a clause boundary (no token yet, or the last one
    is a 'facts' token or the '.' that ends a clause), the line reader takes
    the run of plain fact lines from there and leaves one 'facts' token in
    its place.
    """
    toks: List[tuple] = []
    lines = text.split("\n")
    n = len(lines)
    i = 0
    while i < n:
        at_boundary = not toks or toks[-1][1] == "." or toks[-1][0] == "facts"
        if at_boundary and (m := _FACT_LINE.fullmatch(lines[i])):
            run, i = _read_fact_run(lines, i, m)
            toks.append(("facts", run, run.line, 1))
        else:
            _tokenize_line(lines[i], i + 1, toks)
            i += 1
    toks.append(("eof", "", n, len(lines[-1]) + 1))
    return toks


def _tokenize_line(text: str, line: int, toks: List[tuple]) -> None:
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r":
            i += 1
            continue
        if c == "%":
            return
        col = i + 1
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", text[i:j], line, col))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            word = text[i:j]
            kind = "var" if (c == "_" or c.isupper()) else "ident"
            toks.append((kind, word, line, col))
            i = j
            continue
        two = text[i : i + 2]
        if two in _PUNCT_TWO:
            toks.append(("punct", two, line, col))
            i += 2
            continue
        if c in _PUNCT_ONE:
            toks.append(("punct", c, line, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)


# =====================================================================================
# PARSER
# =====================================================================================

_ANNOTATIONS = ("min", "max", "mmin", "mmax")


@dataclass
class _Clause:
    label: Optional[str]
    head: Atom
    annotations: Tuple[Tuple[int, str], ...]  # (position, kind) of min<V> and the like
    body: Tuple[Goal, ...]
    line: int


class Parser:
    """Recursive descent over tokenize's tokens. The hot paths read
    self.tokens[self.pos] and advance self.pos themselves; expect and fail
    build the errors. A value alone tells punctuation: no other token carries
    a punctuation text, and only 'eof' carries ''."""

    def __init__(self, tokens: Sequence[tuple]):
        # Two more copies of the eof token let a lookahead read two tokens past it.
        self.tokens = [*tokens, tokens[-1], tokens[-1]]
        self.pos = 0
        self._anon = 0

    # -- token plumbing ---------------------------------------------------------------

    def expect(self, kind: str, value: Optional[str] = None) -> tuple:
        t = self.tokens[self.pos]
        if t[0] != kind or (value is not None and t[1] != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, found {t[1] or t[0]!r}", t[2], t[3])
        self.pos += 1
        return t

    def fail(self, message: str) -> ParseError:
        _, _, line, col = self.tokens[self.pos]
        return ParseError(message, line, col)

    # -- clauses ----------------------------------------------------------------------

    def parse_clauses(self) -> List[Union[_Clause, _FactRun]]:
        """Clauses and runs of plain fact lines, in source order."""
        out: List[Union[_Clause, _FactRun]] = []
        tokens = self.tokens
        while True:
            kind, value, _, _ = tokens[self.pos]
            if kind == "facts":
                out.append(value)
                self.pos += 1
            elif kind == "eof":
                return out
            else:
                out.append(self.parse_clause())

    def parse_clause(self) -> _Clause:
        tokens = self.tokens
        kind, label, line, _ = tokens[self.pos]
        if kind == "ident" and tokens[self.pos + 1][1] == ":":
            self.pos += 2
        else:
            label = None
        annotations: List[Tuple[int, str]] = []
        head = self.parse_atom(annotations)
        body: Tuple[Goal, ...] = ()
        if tokens[self.pos][1] == ":-":
            self.pos += 1
            body = tuple(self.parse_body())
        self.expect("punct", ".")
        return _Clause(label, head, tuple(annotations), body, line)

    # -- goals ------------------------------------------------------------------------

    def parse_body(self) -> List[Goal]:
        goals = [self.parse_goal()]
        tokens = self.tokens
        while tokens[self.pos][1] == ",":
            self.pos += 1
            goals.append(self.parse_goal())
        return goals

    def parse_goal(self) -> Goal:
        tokens, pos = self.tokens, self.pos
        kind, value, _, _ = tokens[pos]
        if kind == "ident":
            next_kind, next_value, _, _ = tokens[pos + 1]
            if value == "not" and next_kind == "ident":
                self.pos += 1
                return Negated(self.parse_atom())
            if next_value == "(":
                if value in AGGREGATE_KINDS and tokens[pos + 2][1] == "(":
                    return self.parse_aggregate()
                return self.parse_atom()
            # "" in "+-*": the kind test keeps eof out
            if next_kind == "punct" and (next_value in COMPARISON_OPS or next_value in "+-*"):
                return self.parse_comparison()
            # nullary predicate
            self.pos += 1
            return Atom(value, ())
        return self.parse_comparison()

    def parse_atom(self, annotations: Optional[List[Tuple[int, str]]] = None) -> Atom:
        """An atom; given a list, a head's min<V> (or max, mmin, mmax) adds (position, kind)."""
        tokens = self.tokens
        kind, name, _, _ = tokens[self.pos]
        if kind != "ident":
            self.expect("ident")
        self.pos += 1
        args: List[Term] = []
        if tokens[self.pos][1] == "(":
            while True:
                self.pos += 1
                value = tokens[self.pos][1]
                if annotations is not None and value in _ANNOTATIONS and tokens[self.pos + 1][1] == "<":
                    self.pos += 2
                    var = self.expect("var")[1]
                    self.expect("punct", ">")
                    annotations.append((len(args), value))
                    args.append(Variable(var))
                else:
                    args.append(self.parse_simple_term())
                if tokens[self.pos][1] != ",":
                    break
            if tokens[self.pos][1] != ")":
                self.expect("punct", ")")
            self.pos += 1
        return Atom(name, tuple(args))

    def parse_aggregate(self) -> AggregateGoal:
        _, kind, line, col = self.tokens[self.pos]
        self.pos += 1
        self.expect("punct", "(")
        self.expect("punct", "(")
        group = self.parse_var_list()
        self.expect("punct", ")")
        self.expect("punct", ",")
        self.expect("punct", "(")
        measured = self.parse_var_list()
        self.expect("punct", ")")
        result = None
        if self.tokens[self.pos][1] == ",":
            self.pos += 1
            result = self.expect("var")[1]
        self.expect("punct", ")")
        if not measured:
            raise MalformedAggregate(f"{kind} needs at least one measured variable", line, col)
        if kind in EXTREMA_KINDS:
            if result is not None:
                raise MalformedAggregate(f"{kind} takes no result variable", line, col)
            if len(measured) != 1:
                raise MalformedAggregate(f"{kind} measures a single variable", line, col)
        elif result is None:
            raise MissingResult(f"{kind} needs a result variable", line, col)
        return AggregateGoal(kind, tuple(group), tuple(measured), result)

    def parse_var_list(self) -> List[str]:
        tokens = self.tokens
        if tokens[self.pos][1] == ")":
            return []
        out = [self.expect("var")[1]]
        while tokens[self.pos][1] == ",":
            self.pos += 1
            out.append(self.expect("var")[1])
        return out

    def parse_comparison(self) -> Comparison:
        left = self.parse_expr()
        op = self.tokens[self.pos][1]
        if op not in COMPARISON_OPS:
            raise self.fail("expected a comparison operator")
        self.pos += 1
        return Comparison(op, left, self.parse_expr())

    # -- terms ------------------------------------------------------------------------

    def parse_simple_term(self) -> Term:
        t = self.tokens[self.pos]
        kind, value, _, _ = t
        if kind == "var":
            self.pos += 1
            if value == "_":
                self._anon += 1
                return Variable(f"_A{self._anon}")
            return Variable(value)
        if kind == "ident":
            self.pos += 1
            return Constant(value)
        if kind == "int":
            self.pos += 1
            return Constant(_int_value(t))
        if value == "-" and self.tokens[self.pos + 1][0] == "int":
            self.pos += 2
            return Constant(-_int_value(self.tokens[self.pos - 1]))
        raise self.fail("expected a term")

    def parse_expr(self) -> Term:
        left = self.parse_mul()
        tokens = self.tokens
        # "" in "+-": the kind test keeps eof out
        while tokens[self.pos][0] == "punct" and tokens[self.pos][1] in "+-":
            op = tokens[self.pos][1]
            self.pos += 1
            left = ArithExpr(op, left, self.parse_mul())
        return left

    def parse_mul(self) -> Term:
        left = self.parse_primary()
        tokens = self.tokens
        while tokens[self.pos][1] == "*":
            self.pos += 1
            left = ArithExpr("*", left, self.parse_primary())
        return left

    def parse_primary(self) -> Term:
        value = self.tokens[self.pos][1]
        if value == "(":
            self.pos += 1
            inner = self.parse_expr()
            self.expect("punct", ")")
            return inner
        if value == "-":
            self.pos += 1
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

    pieces: List[Tuple[str, Sequence[GroundTuple]]] = []
    rule_clauses: List[_Clause] = []
    for c in clauses:
        if isinstance(c, _FactRun):
            pieces.extend(c.pieces)
        elif not c.body:
            if c.annotations:
                raise ParseError(f"fact {c.head.predicate} carries an annotation", c.line)
            if not c.head.is_ground():
                raise ParseError(f"fact {c.head!r} is not ground", c.line)
            if c.label is not None:
                raise ParseError("facts take no label", c.line)
            pieces.append((c.head.predicate, (c.head.as_tuple(),)))
        else:
            rule_clauses.append(c)

    ids = _assign_ids(rule_clauses)
    _check_arities(clauses)
    # Normalizing annotations, which reads the recursive set, moves aggregates
    # and never an atom: the clauses as written give the program's graph.
    written = [Rule(rid, c.head, c.body) for rid, c in zip(ids, rule_clauses)]
    graph = build_dependency_graph([r for r in written if r.head.predicate != RANGE_PREDICATE])

    rules: List[Rule] = []
    support: List[Rule] = []
    for rid, c in zip(ids, rule_clauses):
        rule = _normalize_rule(rid, c, graph.recursive)
        if rule.head.predicate == RANGE_PREDICATE:
            support.append(rule)
        else:
            order_goals(rule, c.line)
            rules.append(rule)

    program = Program(rules=tuple(rules), support_rules=tuple(support))
    return program.adopt_graph(graph).with_runs(pieces)


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


def _check_arities(clauses: List[Union[_Clause, _FactRun]]) -> None:
    """Each predicate keeps the arity of its first use: facts and rules are
    checked in source order, each atom at its clause's line."""
    seen: Dict[str, int] = {}
    for c in clauses:
        if isinstance(c, _FactRun):
            line = c.line
            for p, rows in c.pieces:
                n = len(rows[0])
                if seen.setdefault(p, n) != n:
                    raise ArityConflict(f"{p} used with arity {n}, earlier {seen[p]}", line)
                line += len(rows)
            continue
        for g in (c.head,) + c.body:
            if isinstance(g, Negated):
                g = g.atom
            if isinstance(g, Atom):
                prior = seen.setdefault(g.predicate, g.arity)
                if prior != g.arity:
                    raise ArityConflict(
                        f"{g.predicate} used with arity {g.arity}, earlier {prior}", c.line
                    )
    if seen.get(RANGE_PREDICATE, 2) != 2:
        raise ArityConflict(f"{RANGE_PREDICATE} has arity 2")


def _normalize_rule(rid: str, c: _Clause, recursive: AbstractSet[str]) -> Rule:
    head = c.head
    body = list(c.body)
    extremum: Optional[HeadExtremum] = None

    if len(c.annotations) > 1:
        raise ParseError(f"rule {rid} carries several head annotations", c.line)
    for pos, kind in c.annotations:
        if kind in ("mmin", "mmax"):
            extremum = HeadExtremum(kind[1:], True, pos)
        elif head.predicate in recursive:
            extremum = HeadExtremum(kind, False, pos)
        else:
            body.append(_extremum_goal(head, kind, pos))

    if head.predicate in recursive:
        hv = head_var_positions(head)
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


def _extremum_goal(head: Atom, kind: str, cost: int) -> AggregateGoal:
    """is_min/is_max over the head argument at `cost`, grouped by the other
    head variables: the body form of a min/max head annotation."""
    group = tuple(
        a.name for i, a in enumerate(head.args) if isinstance(a, Variable) and i != cost
    )
    return AggregateGoal("is_" + kind, group, (head.args[cost].name,))


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
    ex = rule.extremum
    if ex is not None and not isinstance(head.args[ex.cost], Variable):
        # An annotation names a variable: a pushed extremum over a constant
        # cost (an exit rule `p(Y,1) :- ...`) prints through a fresh one.
        taken = set(rule.body_variables()) | set(head.variables())
        name = next(f"C{i}" for i in range(len(taken) + 1) if f"C{i}" not in taken)
        goals.append(f"{name}={format_term(head.args[ex.cost])}")
        args = head.args[: ex.cost] + (Variable(name),) + head.args[ex.cost + 1 :]
        head = Atom(head.predicate, args)
    head_text = format_atom(head)
    if ex is not None and ex.monotonic:
        parts = [
            f"m{ex.kind}<{format_term(a)}>" if i == ex.cost else format_term(a)
            for i, a in enumerate(head.args)
        ]
        head_text = f"{head.predicate}({','.join(parts)})"
    elif ex is not None:
        goals.append(format_goal(_extremum_goal(head, ex.kind, ex.cost)))
    if not goals:
        return f"{rule.id}: {head_text}."
    return f"{rule.id}: {head_text} :- {', '.join(goals)}."


def _reads_back(symbol: str) -> bool:
    """Whether _tokenize_line reads symbol back as that one identifier."""
    head = symbol[:1]
    return head.isalpha() and not head.isupper() and symbol.replace("_", "a").replace("'", "a").isalnum()


def format_program(p: Program) -> str:
    """Facts, then rules, as text: what `optimize` (and perfbench's replay)
    prints. A fact symbol the parser would not read back as itself, such as
    an edge-list node `x-y`, is a LoadError; each distinct value is checked
    once."""
    values: Set[object] = set()
    for _, rows in p.runs:
        values.update(chain.from_iterable(rows))
    bad = {v for v in values if type(v) is str and not _reads_back(v)}
    if bad:
        predicate, value = next((q, v) for q, rows in p.runs for row in rows for v in row if v in bad)
        raise LoadError(f"{predicate} value {value!r} is not a constant the parser reads back")
    lines = [
        f"{predicate}({','.join(map(format_value, row))})." if row else f"{predicate}."
        for predicate, rows in p.runs
        for row in rows
    ]
    for r in p.support_rules:
        lines.append(format_rule(r))
    for r in p.rules:
        lines.append(format_rule(r))
    return "\n".join(lines) + ("\n" if lines else "")


# =====================================================================================
# FACT FILE LOADERS
# =====================================================================================


def _parse_facts(text: str) -> Tuple[Run, ...]:
    """The runs of a fact file's text, which holds no rule."""
    program = parse_program(text)
    if program.rules or program.support_rules:
        raise ParseError("facts input contains rules")
    return program.runs


# What int() accepts in a field without spaces: 3, -3, +4, 007, 1_000, ٣.
_INTEGER_FIELD = re.compile(r"[+-]?\d+(?:_\d+)*")


def _int_field(field: str) -> Optional[int]:
    """field as int() reads it, or None where int() does not accept it. An
    integer of more digits than int() converts is a LoadError: int() raises
    the same ValueError for it as for a long field that is no integer."""
    try:
        return int(field)
    except ValueError:
        if _INTEGER_FIELD.fullmatch(field):
            raise LoadError(_digit_limit(sum(c.isdecimal() for c in field))) from None
        return None


def _length_value(field: str) -> int:
    value = _int_field(field)
    if value is None:
        raise LoadError(f"length {field!r} is not an integer")
    return value


def _node_value(field: str) -> Value:
    # Only a sign or a decimal digit can start what int() accepts.
    head = field[:1]
    if head.isdecimal() or head in ("+", "-"):
        value = _int_field(field)
        if value is not None:
            return value
    return field


def _csv_fields(line: str) -> List[str]:
    text = line.strip()
    return [f.strip() for f in text.split(",")] if text else []


def read_edge_list(path: str) -> Tuple[GroundTuple, ...]:
    """The arc/3 rows of an edge list, in file order.

    Lines hold `src dst length` or `src dst` (length defaults to 1), split on
    commas in a .csv file and on whitespace in any other; blank lines and
    lines starting with '#' are skipped, and a repeated line is loaded once. Node fields that int() accepts are loaded as integers; an
    integer field of more digits than int() converts is a LoadError.

    The file is read whole: each distinct field text is converted once, and
    the lines are deduplicated and turned into rows in bulk. A bad line is
    then looked for line by line, so the first one is reported.
    """
    split = _csv_fields if os.path.splitext(path)[1].lower() == ".csv" else str.split
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    lines = text.split("\n")
    rows = list(filter(None, map(split, lines)))  # the lines that are not blank
    if "#" in text:
        rows = [fields for fields in rows if fields[0][:1] != "#"]
    del text
    if not rows:
        return ()
    try:
        counts = set(map(len, rows))
        if not counts <= {2, 3}:
            raise LoadError("expected 2 or 3 fields")  # _first_bad_line names the line
        if 2 in counts:
            for fields in rows:
                if len(fields) == 2:
                    fields.append("1")
        sources, targets, lengths = zip(*rows)
        del rows
        length_values = {field: _length_value(field) for field in set(lengths)}
        # The first line of each (source, target, length) key, in file order,
        # with one str per distinct node field, shared by every fact.
        keys = dict.fromkeys(
            zip(
                map(sys.intern, sources),
                map(sys.intern, targets),
                map(length_values.__getitem__, lengths),
            )
        )
        nodes = {field: _node_value(field) for field in set(sources).union(targets)}
        if any(value is not field for field, value in nodes.items()):  # some node is an integer
            sources, targets, lengths = zip(*keys)
            keys = zip(map(nodes.__getitem__, sources), map(nodes.__getitem__, targets), lengths)
        return tuple(keys)
    except LoadError as exc:
        raise _first_bad_line(lines, split) or exc from None


def _first_bad_line(lines: List[str], split: Callable[[str], List[str]]) -> Optional[LoadError]:
    """The error of the first line that is no edge, with its line number."""
    for lineno, fields in enumerate(map(split, lines), start=1):
        if not fields or fields[0][:1] == "#":
            continue
        try:
            if len(fields) not in (2, 3):
                raise LoadError(f"expected 2 or 3 fields, found {len(fields)}")
            _length_value(fields[2] if len(fields) == 3 else "1")
            _node_value(fields[0])
            _node_value(fields[1])
        except LoadError as exc:
            return LoadError(str(exc), lineno)
    return None


def load_facts_path(path: str) -> List[Fact]:
    """read_facts_path's runs as Facts, for perfbench's replay; the CLI keeps runs."""
    return list(run_facts(read_facts_path(path)))


def read_facts_path(path: str) -> Tuple[Run, ...]:
    """The facts of a file as canonical runs, by extension: a .tsv or .csv
    edge list's arc/3 rows, else a fact file's."""
    if os.path.splitext(path)[1].lower() in (".tsv", ".csv"):
        rows = read_edge_list(path)
        return (("arc", rows),) if rows else ()
    with open(path, "r", encoding="utf-8-sig") as fh:
        return _parse_facts(fh.read())
