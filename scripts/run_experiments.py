#!/usr/bin/env python3
"""Benchmark the shortest-path variants over generated graph families.

Sweeps graph sizes for a family, runs every variant from the same arc
set, and reports wall times plus derived-tuple counts. The stratified
variant is expected to blow up (or time out on cyclic graphs); the
constrained variants should stay flat. Identical seeds give identical
tables.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from premlog import EvalOptions, GraphSpec
from premlog.bench import VARIANTS, gen_graph, run_benchmark


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=("dag", "cyclic"), default="dag")
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200])
    ap.add_argument("--p", type=float, default=0.1, help="arc probability")
    ap.add_argument("--min-length", type=int, default=1)
    ap.add_argument("--max-length", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--runs", type=int, default=3, help="repetitions per cell")
    ap.add_argument("--sources", type=int, default=3, help="sources per graph")
    ap.add_argument(
        "--variants", nargs="+", default=sorted(VARIANTS), choices=sorted(VARIANTS)
    )
    ap.add_argument(
        "--max-tuples", type=int, default=200_000,
        help="tuple budget before a run counts as non-terminating",
    )
    ap.add_argument("--csv", type=Path, help="append per-cell rows to this file")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    options = EvalOptions(max_tuples=args.max_tuples)
    for n in args.sizes:
        spec = GraphSpec(
            kind=args.kind,
            n=n,
            p=args.p,
            length_range=(args.min_length, args.max_length),
            seed=args.seed,
        )
        arcs = gen_graph(spec)
        # only tails make interesting sources; isolated nodes answer nothing
        tails = sorted({u for u, _, _ in arcs}, key=str)
        report = run_benchmark(
            arcs,
            variants=args.variants,
            sources=tails[: args.sources],
            runs=args.runs,
            options=options,
        )
        print(f"== {args.kind} n={n} p={args.p} seed={args.seed} ({len(arcs)} arcs)")
        print(report.format_text())
        rows = {r["variant"]: r for r in report.summary()}
        if "spath" in rows and "spath_prem" in rows:
            prem = rows["spath_prem"]["avg_derived"] or 1
            print(f"derived blowup spath/spath_prem: {rows['spath']['avg_derived'] / prem:.1f}x")
        print()
        if args.csv:
            new = not args.csv.exists()
            with args.csv.open("a") as fh:
                if not new:
                    fh.write("\n")
                report.write_csv(fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
