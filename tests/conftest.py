"""Shared fixture programs for the test suite.

Every expected value asserted elsewhere was computed by an independent
oracle first (dijkstra_reference, brute-force least fixpoints, pen and
paper on the tiny graphs) and then frozen here.
"""
from __future__ import annotations

import random

import premlog as P

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
