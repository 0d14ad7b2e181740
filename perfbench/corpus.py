"""Programs and fact generators the workloads feed to premlog.

The fixture programs are copies of the ones in the test suite, kept here so
the benchmark's inputs do not move when the tests change. Each fixture
carries the outcome the test suite or the README already freezes for it.
Generated programs cover the shapes the classifier reasons about: linear
cost heads, guards in both directions, conjunctions of bounds and extrema,
two-predicate mutual recursion, and count/sum inside recursion with positive
and non-positive summands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

# ===== fixtures (copied from the test suite) ==================================

BOUNDED_PATH = """
r1: path(Y,Dy) :- arc(a,Y,Dy), Dy>=0.
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dxy>=0, Dy=Dx+Dxy.
r3: llpath(Y,Dy) :- path(Y,Dy), Dy<143.
"""

BOUNDED_PATH_PUSHED = """\
r1': path(Y,Dy) :- arc(a,Y,Dy), Dy>=0, Dy<143.
r2': path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dxy>=0, Dy=Dx+Dxy, Dy<143.
r3': llpath(Y,Dy) :- path(Y,Dy).
"""

SHORTEST_PATH_RULES = """
r1: path(Y,Dy) :- arc({src},Y,Dy).
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
r3: spath(Y,Dy) :- path(Y,Dy), is_min((Y),(Dy)).
"""

SHORTEST_PATH = SHORTEST_PATH_RULES.format(src="a") + "arc(a,b,1). arc(b,c,1). arc(a,c,5).\n"

# The shortest-path program over symbolic arc weights: every sampled
# interpretation makes Dx+Dxy raise, so no sample can test the transfer.
SYMBOLIC_PATH = SHORTEST_PATH_RULES.format(src="a") + "arc(a,b,x). arc(b,c,y). arc(a,c,z).\n"

SPATH_STRATIFIED = """
r1: path(Y,Dy) :- arc(a,Y,Dy).
r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
r3: spath(Y,min<Dy>) :- path(Y,Dy).
arc(a,b,1). arc(b,c,4). arc(b,a,2).
"""

PARTY_GATED = """
r1: attend(X) :- organizer(X).
r2: attend(X) :- cntfriends(X,Nfx), Nfx>=3.
r3: cntfriends(Y,N) :- attend(X), friend(Y,X), mcount((Y),(X),N).
r4: fcount(Y,N) :- cntfriends(Y,N), is_max((Y),(N)).
"""

CLIQUE_FACTS = """
organizer(o).
friend(x,o). friend(x,y). friend(x,z).
friend(y,x). friend(y,z).
friend(z,x). friend(z,y).
"""

PARTY_COUNT = """
r1: attend(X) :- organizer(X).
r2: attend(X) :- cntfriends(X,Nfx), Nfx>=3.
r3: cntfriends(Y,N) :- attend(X), friend(Y,X), count((Y),(X),N).
r4: fcount(Y,N) :- cntfriends(Y,N).
"""

CASCADE_FACTS = """
organizer(o1). organizer(o2). organizer(o3).
friend(x,o1). friend(x,o2). friend(x,o3).
friend(y,x). friend(y,o1). friend(y,o2).
friend(z,y).
"""

PART_EXPLOSION_RULES = """
r1: cost(Part,Cost) :- basic(Part,Cost).
r2: cost(Part,Ncost) :- assb(Part,SP,Qty), cost(SP,Cost), CQ=Cost*Qty, CQ>0, sum((Part),(SP,CQ),Ncost).
r3: finalcost(Part,Cost) :- cost(Part,Cost).
"""

PART_EXPLOSION = PART_EXPLOSION_RULES + """
basic(wheel,10). basic(frame,50). basic(seat,5).
assb(bike,wheel,2). assb(bike,frame,1). assb(bike,seat,1).
assb(cart,wheel,4). assb(cart,frame,1).
assb(fleet,bike,3). assb(fleet,cart,2).
"""

PART_EXPLOSION_NOGUARD_RULES = PART_EXPLOSION_RULES.replace(" CQ>0,", "")
PART_EXPLOSION_NOGUARD = PART_EXPLOSION.replace(" CQ>0,", "")

CAPPED_MAX = """
p(2). p(5).
r1: p(J1) :- p(J), J<=10, J!=5, J1=J+2.
r2: topp(J1) :- p(J1), is_max((),(J1)).
"""

PLAIN = "r1: p(X) :- q(X).\nq(a).\n"


@dataclass(frozen=True)
class Frozen:
    """An outcome frozen by the test suite or the README."""

    exit_code: int
    contains: Tuple[str, ...] = ()
    stdout: Optional[str] = None


# (name, program text, argv after the program path, frozen outcome)
VERDICT_FIXTURES: Tuple[Tuple[str, str, Tuple[str, ...], Frozen], ...] = (
    ("bounded_path", BOUNDED_PATH, ("check",), Frozen(0, ("APPROVED",))),
    ("bounded_path", BOUNDED_PATH, ("optimize",), Frozen(0, stdout=BOUNDED_PATH_PUSHED)),
    (
        "shortest_path",
        SHORTEST_PATH,
        ("check",),
        Frozen(0, ("APPROVED: min-deflation (deflation-safe: r1, r2)",)),
    ),
    ("capped_max", CAPPED_MAX, ("check",), Frozen(3, ("REJECTED", "caps"))),
    ("capped_max", CAPPED_MAX, ("optimize",), Frozen(3)),
    ("capped_max", CAPPED_MAX, ("optimize", "--force-push"), Frozen(0, ("is_max",))),
    ("plain", PLAIN, ("check",), Frozen(0, ("no pushable constraints",))),
    ("part_explosion", PART_EXPLOSION, ("check",), Frozen(0, ("APPROVED: rule r2 sum",))),
    ("part_explosion_noguard", PART_EXPLOSION_NOGUARD, ("check",), Frozen(3, ("REJECTED",))),
    ("party_gated", PARTY_GATED + CLIQUE_FACTS, ("check",), Frozen(0, ("APPROVED",))),
    ("party_count", PARTY_COUNT + CASCADE_FACTS, ("check",), Frozen(0, ("APPROVED: rule r3 count",))),
)

# Fixtures whose push the classifier approves (acceptance criterion 12 samples
# each at 1000 samples and finds no counterexample), plus the capped max that
# the falsifier must refute.
VERIFY_FIXTURES: Tuple[Tuple[str, str, Frozen], ...] = (
    ("shortest_path", SHORTEST_PATH, Frozen(0, ("PASSED", "in 1000 samples"))),
    ("bounded_path", BOUNDED_PATH + "arc(a,b,40). arc(b,c,70). arc(c,d,60).\n",
     Frozen(0, ("PASSED", "in 1000 samples"))),
    ("spath_stratified", SPATH_STRATIFIED, Frozen(0, ("PASSED", "in 1000 samples"))),
    ("party_gated", PARTY_GATED + CLIQUE_FACTS, Frozen(0, ("PASSED", "in 1000 samples"))),
    ("capped_max", CAPPED_MAX, Frozen(3, ("FALSIFIED",))),
)

# Known defect (falsifier counts samples that raised as passed): the correct
# outcome is anything but PASSED. It stays in the audit workload so that the
# fix shows up as a change in the benchmark's output.
KNOWN_DEFECTS = {
    "verify:symbolic_path": "check_prem_empirical skips samples that raise and still "
    "reports PASSED with the full sample count",
}

# ===== generated facts ========================================================


def cyclic_graph(rng: random.Random, n: int, p: float) -> List[Tuple[str, str, int]]:
    """Directed graph over n nodes, each with round(p*(n-1)) random successors.

    The arc count is that of a G(n, p) graph on average, but fixed, so the
    facts to load and the work to do barely move with the seed.
    """
    k = round(p * (n - 1))
    return [
        (f"n{i}", f"n{j}", rng.randint(1, 100))
        for i in range(n)
        for j in sorted(rng.sample([j for j in range(n) if j != i], k))
    ]


def layered_dag(
    rng: random.Random, layers: int, width: int, fan: int, max_length: int
) -> List[Tuple[str, str, int]]:
    """Each node links to `fan` random nodes of the next layer.

    A fixed out-degree keeps the number of paths close to the same for every
    seed; the length range bounds how many distinct path lengths, and so how
    many tuples of the stratified variant, each node can collect.
    """
    return [
        (f"v{layer}_{i}", f"v{layer + 1}_{j}", rng.randint(1, max_length))
        for layer in range(layers - 1)
        for i in range(width)
        for j in sorted(rng.sample(range(width), fan))
    ]


def bill_of_materials(rng: random.Random, levels: int, width: int, fan: int):
    """Basic parts at level 0; each assembly uses `fan` parts of the level below."""
    basic = {f"b{i}": rng.randint(1, 20) for i in range(width)}
    assb: List[Tuple[str, str, int]] = []
    below = sorted(basic)
    for level in range(1, levels):
        layer = [f"a{level}_{i}" for i in range(width)]
        for part in layer:
            for sub in sorted(rng.sample(below, fan)):
                assb.append((part, sub, rng.randint(1, 3)))
        below = layer
    return basic, assb


def party_graph(rng: random.Random, organizers: int, joiners: int, outsiders: int):
    """Friend lists built so the attendance cascade has a fixed shape.

    Each joiner has three friends among the organizers and earlier joiners
    and one outsider; each outsider has two friends who attend and two other
    outsiders, one short of the threshold of three. The seed picks who.
    """
    orgs = [f"o{i}" for i in range(organizers)]
    outs = [f"x{i}" for i in range(outsiders)]
    friends: List[Tuple[str, str]] = []
    attending = list(orgs)
    for i in range(joiners):
        who = f"j{i}"
        friends += [(who, f) for f in sorted(rng.sample(attending, 3))]
        friends.append((who, rng.choice(outs)))
        attending.append(who)
    for who in outs:
        friends += [(who, f) for f in sorted(rng.sample(attending, 2))]
        friends += [(who, f) for f in sorted(rng.sample([o for o in outs if o != who], 2))]
    return orgs, friends


# ===== independent references =================================================


def dijkstra(arcs, source) -> Dict[str, int]:
    """Least length over one or more arcs from `source` (no zero entry for it)."""
    import heapq

    adj: Dict[str, List[Tuple[int, str]]] = {}
    for u, v, w in arcs:
        adj.setdefault(u, []).append((w, v))
    heap = list(adj.get(source, ()))
    heapq.heapify(heap)
    dist: Dict[str, int] = {}
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for w, nxt in adj.get(node, ()):
            if nxt not in dist:
                heapq.heappush(heap, (d + w, nxt))
    return dist


def rollup(basic: Dict[str, int], assb) -> Dict[str, int]:
    """Bill-of-materials cost: a basic part's own cost, else sum of qty * sub-cost."""
    uses: Dict[str, List[Tuple[str, int]]] = {}
    for part, sub, qty in assb:
        uses.setdefault(part, []).append((sub, qty))
    cost = dict(basic)

    def of(part: str) -> int:
        if part not in cost:
            cost[part] = sum(qty * of(sub) for sub, qty in uses[part])
        return cost[part]

    for part in uses:
        of(part)
    return cost


def attending_friend_counts(organizers, friends, threshold: int) -> Dict[str, int]:
    """Cascade attendance; returns, per person with an attending friend, how many attend."""
    attend = set(organizers)
    changed = True
    while changed:
        changed = False
        counts: Dict[str, int] = {}
        for who, other in friends:
            if other in attend:
                counts[who] = counts.get(who, 0) + 1
        for who, n in counts.items():
            if n >= threshold and who not in attend:
                attend.add(who)
                changed = True
    return counts


# ===== generated programs for the verdicts workload ===========================
#
# The i-th program's shape and operators are fixed by i, so every seed gets
# the same mix of verdicts; the seed draws the facts.

_NODES = ("a", "b", "c", "d", "e", "f", "g")
_PAIRS = tuple((x, y) for i, x in enumerate(_NODES) for y in _NODES[i + 1:])

_INITS = ("D=W", "D=W+1", "D=W*2")
_STEPS = ("D=Dx+W", "D=Dx+W+1", "D=Dx*2+W", "D=Dx-W", "D=Dx+1", "D=W-Dx", "D=Dx*3")
_GUARDS = ("", ", D>Dx", ", D<Dx", ", Dx<30", ", Dx>2", ", W>=1", ", D<40")
_FINALS = (
    "is_min((Y),(D))", "is_max((Y),(D))", "D<25", "D>3",
    "D<25, is_min((Y),(D))", "D>3, is_max((Y),(D))",
)


def _dag_edges(rng: random.Random, pred: str, lo: int, hi: int) -> List[str]:
    pairs = sorted(rng.sample(_PAIRS, 9))
    return [f"{pred}({x},{y},{rng.randint(lo, hi)})." for x, y in pairs]


def _linear(rng: random.Random, i: int) -> str:
    return "\n".join([
        f"r1: p(Y,D) :- e(a,Y,W), {_INITS[i % 3]}.",
        f"r2: p(Y,D) :- p(X,Dx), e(X,Y,W), {_STEPS[i % 7]}{_GUARDS[i // 7 % 7]}.",
        f"r3: q(Y,D) :- p(Y,D), {_FINALS[i % 6]}.",
        *_dag_edges(rng, "e", 0, 9),
    ])


def _mutual(rng: random.Random, i: int) -> str:
    return "\n".join([
        "r1: p(Y,D) :- e(a,Y,D).",
        f"r2: p(Y,D) :- q(X,Dx), e(X,Y,W), D=Dx+W{('', ', D>Dx', ', Dx<30')[i % 3]}.",
        f"r3: q(Y,D) :- p(Y,D){('', ', D>=0', ', D<50')[i // 3 % 3]}.",
        f"r4: s(Y,D) :- p(Y,D), {('is_min((Y),(D))', 'is_max((Y),(D))', 'D<30')[i // 9 % 3]}.",
        *_dag_edges(rng, "e", 1, 9),
    ])


def _summing(rng: random.Random, i: int) -> str:
    guard = ("", " CQ>0,")[i % 2]
    low = (1, -1, 0)[i // 2 % 3]  # quantity written where the draw is 1
    basic, assb = bill_of_materials(rng, 3, 3, 2)
    return "\n".join([
        "r1: cost(P,C) :- basic(P,C).",
        f"r2: cost(P,N) :- assb(P,S,Q), cost(S,C), CQ=C*Q,{guard} sum((P),(S,CQ),N).",
        "r3: total(P,C) :- cost(P,C).",
        *(f"basic({p},{c})." for p, c in sorted(basic.items())),
        *(f"assb({p},{s},{q if q > 1 else low})." for p, s, q in assb),
    ])


def _counting(rng: random.Random, i: int) -> str:
    organizers, friends = party_graph(rng, 3, 3, 3)
    return "\n".join([
        "r1: attend(X) :- organizer(X).",
        f"r2: attend(X) :- cnt(X,N), N{('>=', '>=', '<=')[i % 3]}{1 + i // 3 % 3}.",
        "r3: cnt(Y,N) :- attend(X), friend(Y,X), count((Y),(X),N).",
        "r4: fc(Y,N) :- cnt(Y,N).",
        *(f"organizer({o})." for o in organizers),
        *(f"friend({a},{b})." for a, b in friends),
    ])


SHAPES = (_linear, _linear, _linear, _mutual, _summing, _counting)


def generated_programs(rng: random.Random, count: int) -> List[str]:
    """Programs cycling through SHAPES; each shape numbers its own programs."""
    made: Dict[object, int] = {}
    out = []
    for i in range(count):
        shape = SHAPES[i % len(SHAPES)]
        out.append(shape(rng, made.get(shape, 0)) + "\n")
        made[shape] = made.get(shape, 0) + 1
    return out
