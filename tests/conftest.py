"""Shared fixture programs for the test suite.

Every expected value asserted elsewhere was computed by an independent
oracle first (dijkstra_reference, brute-force least fixpoints, pen and
paper on the tiny graphs) and then frozen here.
"""
from __future__ import annotations

import importlib.util
import os
import random
import re
import sys
from operator import itemgetter
from pathlib import Path

import premlog as P
from premlog.engine import ConsequenceStep
from premlog.errors import LoadError, Overflow, TypeMismatch
from premlog.model import (
    AggregateGoal,
    Atom,
    Bound,
    Variable,
    compare_values,
    constraint_conjuncts,
    constraint_predicate,
)
from premlog.parser import _digit_limit
from premlog.verify import PremCheckReport, _sample_space


def bench_corpus():
    """perfbench/corpus.py, the benchmark's program generator, read as a module."""
    name = "premlog_bench_corpus"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look themselves up there
    return sys.modules[name]


def interp_eq(a, b) -> bool:
    """Whether two interpretations agree, an absent relation equal to an empty one."""
    preds = set(a) | set(b)
    return all(a.get(p, set()) == b.get(p, set()) for p in preds)


# ===== shortest-path family ==================================================

# Bounded-path program: the Dy>=0 guards make every rule ascending in the
# cost, so the final upper bound is pushable.
BOUNDED_PATH = """
r1: path(Y,Dy) :- arc(a,Y,Dy), Dy>=0.
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dxy>=0, Dy=Dx+Dxy.
r3: llpath(Y,Dy) :- path(Y,Dy), Dy<143.
"""

# What pushing the bound into BOUNDED_PATH must print, byte for byte.
BOUNDED_PATH_PUSHED = """\
r1': path(Y,Dy) :- arc(a,Y,Dy), Dy>=0, Dy<143.
r2': path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dxy>=0, Dy=Dx+Dxy, Dy<143.
r3': llpath(Y,Dy) :- path(Y,Dy).
"""

# Shortest path with a final min; Dy>Dx keeps the recursion finite on
# cyclic graphs once the min is pushed.
SHORTEST_PATH = """
r1: path(Y,Dy) :- arc(a,Y,Dy).
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
r3: spath(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).
arc(a,b,1). arc(b,c,1). arc(a,c,5).
"""
SHORTEST_PATH_SPATH = {("b", 1), ("c", 2)}

# Three spellings of the same query: stratified, pre-constrained, and
# monotonic-annotated.
SPATH_STRATIFIED = """
r1: path(Y,Dy) :- arc(a,Y,Dy).
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
r3: spath(Y,min<Dy>) :- path(Y,Dy).
arc(a,b,1). arc(b,c,4). arc(b,a,2).
"""
SPATH_PRECONSTRAINED = """
r1: path(Y,min<Dy>) :- arc(a,Y,Dy).
r2: path(Y,min<Dy>) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
r3: spath_prem(Y,Dy) :- path(Y,Dy).
arc(a,b,1). arc(b,c,4). arc(b,a,2).
"""
SPATH_MONOTONIC = """
r1: path(Y,mmin<Dy>) :- arc(a,Y,Dy).
r2: path(Y,mmin<Dy>) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy.
r3: spath_mmin(Y,min<Dy>) :- path(Y,Dy).
arc(a,b,1). arc(b,c,4). arc(b,a,2).
"""
# a->b 1, b->c 4, b->a 2: shortest from a are b:1, c:5 (a itself via the
# cycle costs 3 and stays because the exit rule never seeds it cheaper).
SPATH_EXPECTED = {("b", 1), ("c", 5), ("a", 3)}

# A min<>-annotated recursion under a final bound: the recursion already
# keeps its own working extremum, so the bound stays in the final rule.
SPATH_PRECONSTRAINED_BOUNDED = SPATH_PRECONSTRAINED.replace(
    "spath_prem(Y,Dy) :- path(Y,Dy).", "spath_prem(Y,Dy) :- path(Y,Dy), Dy<4."
)

# Two final rules read one recursion. Pushing r3's min into path would also
# drop path(c,5), which r4 still needs.
SHARED_RECURSION = """
r1: path(Y,Dy) :- arc(a,Y,Dy).
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
r3: spath(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).
r4: lpath(Y,Dy) :- path(Y,Dy), Dy<10.
arc(a,b,1). arc(b,c,1). arc(a,c,5).
"""
SHARED_RECURSION_LPATH = {("b", 1), ("c", 2), ("c", 5)}

# ===== party programs ========================================================

# max over mcount; approving the push needs one unfolding of cntfriends
# through attend.
PARTY_GATED = """
r1: attend(X) :- organizer(X).
r2: attend(X) :- cntfriends(X,Nfx), Nfx>=3.
r3: cntfriends(Y,N) :- attend(X), friend(Y,X), mcount((Y),(X),N).
r4: fcount(Y,N) :- cntfriends(Y,N), is_max((Y),(N)).
"""

# One organizer, a 3-clique, and x also viewing o as a friend.
CLIQUE_FACTS = """
organizer(o).
friend(x,o). friend(x,y). friend(x,z).
friend(y,x). friend(y,z).
friend(z,x). friend(z,y).
"""
PARTY_GATED_CLIQUE_ATTEND = {("o",)}

# Same clique, but attendance propagates from any counted friend, so the
# clique bootstraps itself and only f_attend applies the threshold.
PARTY_UNGATED = """
r1: attend(X) :- organizer(X).
r2: attend(Y) :- cntfriends(Y,N).
r3: cntfriends(Y,N) :- attend(X), friend(Y,X), mcount((Y),(X),N).
r4: f_attend(X) :- cntfriends(X,Nfx), Nfx>=3.
"""
PARTY_UNGATED_CLIQUE_ATTEND = {("o",), ("x",), ("y",), ("z",)}
PARTY_UNGATED_CLIQUE_F_ATTEND = {("x",)}

# count written directly in the recursion; the compiler must prove the
# max-over-mcount shadow before running it natively.
PARTY_COUNT = """
r1: attend(X) :- organizer(X).
r2: attend(X) :- cntfriends(X,Nfx), Nfx>=3.
r3: cntfriends(Y,N) :- attend(X), friend(Y,X), count((Y),(X),N).
r4: fcount(Y,N) :- cntfriends(Y,N).
"""
# Cascade: x needs all three organizers, y needs x plus two organizers,
# z never reaches three.
CASCADE_FACTS = """
organizer(o1). organizer(o2). organizer(o3).
friend(x,o1). friend(x,o2). friend(x,o3).
friend(y,x). friend(y,o1). friend(y,o2).
friend(z,y).
"""
CASCADE_ATTEND = {("o1",), ("o2",), ("o3",), ("x",), ("y",)}
CASCADE_FCOUNT = {("x", 3), ("y", 3), ("z", 1)}

# ===== part explosion ========================================================

PART_EXPLOSION = """
r1: cost(Part,Cost) :- basic(Part,Cost).
r2: cost(Part,Ncost) :- assb(Part,SP,Qty), cost(SP,Cost), CQ=Cost*Qty, CQ>0, sum((Part),(SP,CQ),Ncost).
r3: finalcost(Part,Cost) :- cost(Part,Cost).
basic(wheel,10). basic(frame,50). basic(seat,5).
assb(bike,wheel,2). assb(bike,frame,1). assb(bike,seat,1).
assb(cart,wheel,4). assb(cart,frame,1).
assb(fleet,bike,3). assb(fleet,cart,2).
"""
PART_EXPLOSION_FINALCOST = {
    ("wheel", 10), ("frame", 50), ("seat", 5),
    ("bike", 75), ("cart", 90), ("fleet", 405),
}
PART_EXPLOSION_NOGUARD = PART_EXPLOSION.replace(" CQ>0,", "")

# ===== counterexamples =======================================================

# The J<=10 guard caps J from above, so pushing the final max is unsound:
# the pushed program gets stuck at p(5) while the true answer is 12.
CAPPED_MAX = """
p(2). p(5).
r1: p(J1) :- p(J), J<=10, J!=5, J1=J+2.
r2: topp(J1) :- p(J1), is_max((),(J1)).
"""
CAPPED_MAX_STRATIFIED_P = {(2,), (4,), (5,), (6,), (8,), (10,), (12,)}
CAPPED_MAX_STRATIFIED_TOPP = {(12,)}
CAPPED_MAX_FORCED_TOPP = {(5,)}

# Mutual recursion through mcount stays monotonic, so this has a clean
# least fixpoint even though count itself would not stratify.
MUTUAL_COUNT = """
p(b). q(b).
r1: cq(C) :- q(X), mcount((),(X),C).
r2: p(a) :- cq(C), C=1.
r3: cp(C) :- p(X), mcount((),(X),C).
r4: q(a) :- cp(C), C=1.
"""
MUTUAL_COUNT_EXPECTED = {
    "p": {("a",), ("b",)},
    "q": {("a",), ("b",)},
    "cp": {(1,), (2,)},
    "cq": {(1,), (2,)},
}

# ===== helpers ===============================================================


def run_text(text, mode="seminaive", **kw):
    options = P.EvalOptions(mode=mode)
    return P.run_program(P.parse_program(text), options, **kw)


def answers(text, predicate, **kw):
    return set(run_text(text, **kw).answers(predicate))


def eval_aggregate(kind, rows):
    """The static meaning of an aggregate over (group key, measured) rows,
    the reference the engine's counting and extrema gates are held to.

    mcount: key -> {1..k} for k distinct witnesses; count: key -> k.
    msum:   key -> {1..S}; sum: key -> S, where S totals the maximal
            positive summand per witness prefix.
    is_min/is_max: key -> extremal measured value.
    """
    groups = {}
    for key, measured in rows:
        groups.setdefault(key, set()).add(measured)
    if kind in ("is_min", "is_max"):
        pick = min if kind == "is_min" else max
        out = {}
        for key, witnesses in groups.items():
            values = [m[0] for m in witnesses]
            if any(not isinstance(v, int) for v in values):
                raise TypeMismatch("extremum over non-integer values")
            out[key] = pick(values)
        return out
    totals = {}
    for key, witnesses in groups.items():
        if kind in ("mcount", "count"):
            totals[key] = len(witnesses)
            continue
        best = {}
        for *prefix, summand in witnesses:
            if not isinstance(summand, int):
                raise TypeMismatch(f"summand {summand!r} is not an integer")
            best[tuple(prefix)] = max(summand, best.get(tuple(prefix), summand))
        totals[key] = sum(max(s, 0) for s in best.values())
    if kind in ("mcount", "msum"):
        return {key: set(range(1, total + 1)) for key, total in totals.items()}
    return {key: total for key, total in totals.items() if total > 0}


def facts_to_interp(facts):
    """The EDB as sets per predicate, each filled fact by fact in fact
    order: the reference for the engine's one set.update per run."""
    out = {}
    for predicate, values in facts:
        rel = out.get(predicate)
        if rel is None:
            rel = out[predicate] = set()
        rel.add(values)
    return out


def fact_arities(facts):
    """Each predicate's arity in `facts`, as its last fact has it: the
    reference for the arities read one per run."""
    last = dict(zip(map(itemgetter(0), facts), facts))
    return {predicate: len(f.values) for predicate, f in last.items()}


def load_edge_list_by_line(path):
    """The edge-list reader line by line, as premlog read edge lists before
    it read them in bulk: the reference parser.read_edge_list is held to."""

    def int_field(field, line):
        try:
            return int(field)
        except ValueError:
            if re.fullmatch(r"[+-]?\d+(?:_\d+)*", field):
                raise LoadError(_digit_limit(sum(c.isdecimal() for c in field)), line) from None
            return None

    def node_value(field, line):
        if field[:1].isdecimal() or field[:1] in ("+", "-"):
            value = int_field(field, line)
            if value is not None:
                return value
        return field

    csv = os.path.splitext(path)[1].lower() == ".csv"
    rows = []
    seen = set()
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = [f.strip() for f in text.split(",")] if csv else text.split()
            if len(fields) == 2:
                fields.append("1")
            if len(fields) != 3:
                raise LoadError(f"expected 2 or 3 fields, found {len(fields)}", lineno)
            length = int_field(fields[2], lineno)
            if length is None:
                raise LoadError(f"length {fields[2]!r} is not an integer", lineno)
            key = (fields[0], fields[1], length)
            if key in seen:
                continue
            seen.add(key)
            source, target = node_value(fields[0], lineno), node_value(fields[1], lineno)
            rows.append((source, target, length))
    return rows


def keep_extremal_by_tuple(rel, kind, cost, group=None):
    """gamma of one extremum tuple by tuple, as premlog computed it before
    it read the costs and the keys at C speed: the reference
    model.keep_extremal is held to, TypeMismatch text included."""
    if group is None:
        key_of = lambda t: t[:cost] + t[cost + 1 :]
    elif group:
        key_of = lambda t: tuple(t[p] for p in group)
    else:
        key_of = lambda t: ()
    best = {}
    for t in rel:
        v = t[cost]
        if not isinstance(v, int):
            raise TypeMismatch(f"extremum over non-integer value {v!r}")
        key = key_of(t)
        held = best.get(key)
        if held is None or (v < held if kind == "min" else v > held):
            best[key] = v
    return {t for t in rel if best[key_of(t)] == t[cost]}


def apply_constraint_by_copy(constraint, interp):
    """engine.apply_constraint as it was when it copied every relation."""
    out = {p: set(rel) for p, rel in interp.items()}
    for part in constraint_conjuncts(constraint):
        rel = out.get(part.predicate)
        if not rel:
            continue
        if isinstance(part, Bound):
            rel = {t for t in rel if compare_values(part.op, t[part.cost], part.limit)}
        else:
            rel = keep_extremal_by_tuple(rel, part.kind, part.cost, part.group_by)
        out[part.predicate] = rel
    return out


def check_prem_empirical_by_draw(program, constraint, samples=1000, seed=0, procedure=None):
    """The falsifier's sample loop as premlog ran it before it inlined the
    draws and skipped the second side of a sample that gamma leaves as it
    is: randint and randrange per draw, both sides of every sample. The
    reference verify.check_prem_empirical is held to."""
    rules, sampled_preds, pools = _sample_space(program, constraint, procedure)
    touched = set(sampled_preds) | {constraint_predicate(constraint)}
    fixed = facts_to_interp(program.facts)
    rest = {p: rel for p, rel in fixed.items() if p not in touched}
    step = ConsequenceStep(rules, rest)
    rng = random.Random(seed)
    for n in range(1, samples + 1):
        interp = {p: set(rel) for p, rel in fixed.items() if p in touched}
        for _ in range(rng.randint(0, 12)):
            pred = sampled_preds[rng.randrange(len(sampled_preds))]
            t = tuple(pool[rng.randrange(len(pool))] for pool in pools[pred])
            interp.setdefault(pred, set()).add(t)
        try:
            lhs = apply_constraint_by_copy(constraint, step(interp))
            rhs = apply_constraint_by_copy(constraint, step(apply_constraint_by_copy(constraint, interp)))
        except (TypeMismatch, Overflow):
            continue
        if not interp_eq(lhs, rhs):
            return PremCheckReport(n, "falsified", ({**rest, **interp}, {**rest, **lhs}, {**rest, **rhs}))
    return PremCheckReport(samples, "passed", None)


def random_positive_program(seed: int) -> str:
    """Small terminating positive program whose fixpoint is evaluation-order
    independent: plain recursion, min/max only in constraint-preserving
    shapes (min with a strict-progress guard, max on a DAG), or mcount."""
    rng = random.Random(seed)
    consts = ["a", "b", "c", "d"][: rng.randint(2, 4)]
    shape = rng.randrange(3)
    lines = []
    edges = set()
    for _ in range(rng.randint(1, 8)):
        x, y = rng.choice(consts), rng.choice(consts)
        edges.add((x, y, rng.randint(0, 6)))
    src = rng.choice(consts)
    if shape == 0:
        lines.append(f"r1: p(Y,D) :- e({src},Y,D).")
        lines.append("r2: p(Y,D) :- p(X,Dx), e(X,Y,Dxy), D=Dx+Dxy, D<20.")
        lines.append("r3: q(Y,D) :- p(Y,D).")
    elif shape == 1:
        if rng.random() < 0.5:
            lines.append(f"r1: p(Y,min<D>) :- e({src},Y,D).")
            lines.append("r2: p(Y,min<D>) :- p(X,Dx), e(X,Y,Dxy), D=Dx+Dxy, D>Dx.")
        else:
            edges = {(x, y, w) for x, y, w in edges if x < y}  # keep it acyclic
            lines.append(f"r1: p(Y,max<D>) :- e({src},Y,D).")
            lines.append("r2: p(Y,max<D>) :- p(X,Dx), e(X,Y,Dxy), D=Dx+Dxy.")
        lines.append("r3: q(Y,D) :- p(Y,D).")
    else:
        lines.append(f"r1: reach(Y) :- e({src},Y,W).")
        lines.append("r2: reach(Y) :- reach(X), e(X,Y,W).")
        lines.append("r3: deg(Y,N) :- reach(X), e(X,Y,W), mcount((Y),(X,W),N).")
    if not edges:
        edges.add(("a", "b", 1))
    lines.extend(f"e({x},{y},{w})." for x, y, w in sorted(edges))
    return "\n".join(lines)


def expand_msum(goal, rule=None):
    """The goals that compute msum/sum as a unit range join plus mcount/count.

    sum((),(Pno,C),T)  ->  int_up2(C,Int), count((),(Pno,Int),T)

    The summand's place in the witness goes to Int, so a witness prefix Pno
    with summands C contributes max(C) distinct witnesses: counting them sums
    the best summand per prefix, as msum/sum do, and a non-positive summand
    contributes none. The reference the native aggregates are held to; Int
    is renamed to stay clear of the variables of goal and rule.
    """
    used = set(goal.variables())
    if rule is not None:
        used |= set(rule.head.variables()) | set(rule.body_variables())
    fresh = "Int"
    n = 1
    while fresh in used:
        n += 1
        fresh = f"Int{n}"
    range_goal = Atom(P.model.RANGE_PREDICATE, (Variable(goal.measured[-1]), Variable(fresh)))
    counter = AggregateGoal(
        "mcount" if goal.kind == "msum" else "count",
        goal.group_by,
        goal.measured[:-1] + (fresh,),
        goal.result,
    )
    return range_goal, counter
