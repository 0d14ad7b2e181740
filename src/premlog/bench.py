"""Shortest-path benchmark harness.

Three variants of the same reachability program, differing only in where the
minimization sits: `spath` filters after the fixpoint, `spath_prem` carries
a min working set inside the recursion, and `spath_mmin` uses the monotonic
gate that admits improving tuples without deleting older ones. Generated
graphs are deterministic in the seed: the pair loop always draws exactly one
coin per candidate arc and one length per accepted arc.
"""

from __future__ import annotations

import csv
import heapq
import random
import time
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .engine import EvalOptions, EvalStats, run_program
from .errors import BudgetExceeded, NegativeLength, PremlogError
from .model import Fact, Program, Value, new_fact
from .parser import parse_program

Arc = Tuple[Value, Value, int]

# =====================================================================================
# GRAPH GENERATION
# =====================================================================================


@dataclass(frozen=True)
class GraphSpec:
    kind: str  # 'dag' | 'cyclic'
    n: int
    p: float
    length_range: Tuple[int, int] = (1, 100)
    seed: int = 0


def gen_graph(spec: GraphSpec) -> List[Arc]:
    if spec.kind not in ("dag", "cyclic"):
        raise ValueError(f"unknown graph kind {spec.kind!r}")
    rng = random.Random(spec.seed)
    lo, hi = spec.length_range
    arcs: List[Arc] = []
    for i in range(spec.n):
        if spec.kind == "dag":
            targets = range(i + 1, spec.n)
        else:
            targets = (j for j in range(spec.n) if j != i)
        for j in targets:
            if rng.random() < spec.p:
                arcs.append((f"n{i}", f"n{j}", rng.randint(lo, hi)))
    return arcs


def check_lengths(arcs: Iterable[Arc]) -> None:
    for u, v, w in arcs:
        if w < 0:
            raise NegativeLength(f"arc {u}->{v} has negative length {w}")


def arc_facts(arcs: Iterable[Arc]) -> Tuple[Fact, ...]:
    """arcs as arc/3 Facts, for perfbench's replay (Program.with_facts)."""
    return tuple(map(new_fact, zip(repeat("arc"), map(tuple, arcs))))


# =====================================================================================
# REFERENCE SHORTEST PATHS
# =====================================================================================


def dijkstra_reference(arcs: Iterable[Arc], source: Value) -> Dict[Value, int]:
    """Least path length over one or more arcs; the source gets no zero entry."""
    arcs = list(arcs)
    check_lengths(arcs)
    adj: Dict[Value, List[Tuple[int, Value]]] = {}
    for u, v, w in arcs:
        adj.setdefault(u, []).append((w, v))
    heap: List[Tuple[int, Value]] = [(w, v) for u, v, w in arcs if u == source]
    heapq.heapify(heap)
    dist: Dict[Value, int] = {}
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        dist[node] = d
        for w, nxt in adj.get(node, ()):
            if nxt not in dist:
                heapq.heappush(heap, (d + w, nxt))
    return dist


# =====================================================================================
# PROGRAM VARIANTS
# =====================================================================================

SPATH_TEMPLATE = """
path(Y,Dy) :- arc({src},Y,Dy).
path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
spath(Y,min<Dy>) :- path(Y,Dy).
"""

SPATH_PREM_TEMPLATE = """
path(Y,min<Dy>) :- arc({src},Y,Dy).
path(Y,min<Dy>) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
spath_prem(Y,Dy) :- path(Y,Dy).
"""

SPATH_MMIN_TEMPLATE = """
path(Y,mmin<Dy>) :- arc({src},Y,Dy).
path(Y,mmin<Dy>) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy, Dy>Dx.
spath_mmin(Y,min<Dy>) :- path(Y,Dy).
"""

VARIANTS: Dict[str, Tuple[str, str]] = {
    "spath": (SPATH_TEMPLATE, "spath"),
    "spath_prem": (SPATH_PREM_TEMPLATE, "spath_prem"),
    "spath_mmin": (SPATH_MMIN_TEMPLATE, "spath_mmin"),
}


def variant_program(variant: str, arcs: Iterable[Arc], source: Value) -> Tuple[Program, str]:
    if variant not in VARIANTS:
        raise PremlogError(f"unknown variant {variant!r}; pick from {', '.join(VARIANTS)}")
    template, query = VARIANTS[variant]
    src = source if isinstance(source, str) else str(source)
    program = parse_program(template.format(src=src))
    return program.with_runs([("arc", map(tuple, arcs))]), query


def shortest_paths(
    variant: str,
    arcs: Iterable[Arc],
    source: Value,
    options: Optional[EvalOptions] = None,
) -> Tuple[Dict[Value, int], EvalStats]:
    """Run one variant and return {node: least length} plus the run stats."""
    program, query = variant_program(variant, arcs, source)
    result = run_program(program, options, push=False)
    return {t[0]: t[1] for t in result.db.get(query, set())}, result.stats


# =====================================================================================
# BENCHMARK RUNNER
# =====================================================================================


@dataclass(frozen=True)
class BenchCell:
    variant: str
    source: str
    run: int
    iterations: int
    derived: int
    retained: int
    wall_ms: float
    status: str  # 'ok' | 'non-terminating'


@dataclass
class BenchReport:
    arcs: int
    cells: List[BenchCell]

    def summary(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for variant in sorted({c.variant for c in self.cells}):
            cells = [c for c in self.cells if c.variant == variant]
            times = [c.wall_ms for c in cells]
            rows.append(
                {
                    "variant": variant,
                    "runs": len(cells),
                    "min_ms": min(times),
                    "avg_ms": sum(times) / len(times),
                    "max_ms": max(times),
                    "avg_derived": sum(c.derived for c in cells) / len(cells),
                    "non_terminating": sum(
                        1 for c in cells if c.status == "non-terminating"
                    ),
                }
            )
        return rows

    def format_text(self) -> str:
        header = f"{'variant':<12} {'runs':>4} {'min ms':>10} {'avg ms':>10} {'max ms':>10} {'avg derived':>12} {'timeouts':>8}"
        lines = [header, "-" * len(header)]
        for row in self.summary():
            lines.append(
                f"{row['variant']:<12} {row['runs']:>4} {row['min_ms']:>10.2f} "
                f"{row['avg_ms']:>10.2f} {row['max_ms']:>10.2f} "
                f"{row['avg_derived']:>12.1f} {row['non_terminating']:>8}"
            )
        return "\n".join(lines)

    def write_csv(self, fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "source", "run", "iterations", "derived", "retained", "wall_ms", "status"]
        )
        for c in self.cells:
            writer.writerow(
                [c.variant, c.source, c.run, c.iterations, c.derived, c.retained, f"{c.wall_ms:.3f}", c.status]
            )


def run_benchmark(
    arcs: Sequence[Arc],
    variants: Sequence[str] = ("spath", "spath_prem", "spath_mmin"),
    sources: Optional[Sequence[Value]] = None,
    runs: int = 5,
    options: Optional[EvalOptions] = None,
) -> BenchReport:
    """Time each variant from several sources; budget overruns are recorded,
    not raised, so a diverging variant shows up as 'non-terminating'."""
    check_lengths(arcs)
    if sources is None:
        nodes = sorted({u for u, _, _ in arcs} | {v for _, v, _ in arcs}, key=str)
        sources = nodes[:5]
    cells: List[BenchCell] = []
    for variant in variants:
        for source in sources:
            program, _query = variant_program(variant, arcs, source)
            for run in range(1, runs + 1):
                started = time.perf_counter()
                status = "ok"
                try:
                    result = run_program(program, options, push=False)
                    stats = result.stats
                except BudgetExceeded as exc:
                    status = "non-terminating"
                    stats = exc.stats
                wall = (time.perf_counter() - started) * 1000.0
                cells.append(
                    BenchCell(
                        variant,
                        str(source),
                        run,
                        stats.iterations,
                        stats.derived,
                        stats.retained,
                        wall,
                        status,
                    )
                )
    return BenchReport(len(arcs), cells)
