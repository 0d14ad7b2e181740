"""premlog benchmark: four seeded workloads, end-to-end metrics, a traced run.

One workload, one seed (what BENCHMARK.json's command runs):

    python3 perfbench/run.py --workload spath-load --seed 1 --seconds 25 --trace 0

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. Every workload, each in a fresh child process, with
a result file for later comparison:

    python3 perfbench/run.py --all --seeds 1,2,3 --out .perfbench/base.json
    python3 perfbench/run.py --compare .perfbench/base.json .perfbench/new.json

Load shape: one closed-loop client per workload, in one process with no
threads; the next op starts when the previous one returns. premlog is
imported from the checkout's `src/`; nothing else is used. Every reported
time is corrected for the host's speed around it (clock.py); the raw wall
times are in the detail line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9
# Runs in a fresh interpreter: what every `premlog` invocation pays before
# it does any work (imports, building the argument parser, a trivial check).
PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import premlog, premlog.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = premlog.cli.main(["check", sys.argv[2]])
print(repr(time.perf_counter() - start))
sys.exit(code)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_premlog():
    if not os.path.isfile(os.path.join(SRC, "premlog", "__init__.py")):
        fail(f"no premlog sources under {SRC}")
    sys.path.insert(0, SRC)
    import premlog

    if os.path.dirname(os.path.dirname(os.path.abspath(premlog.__file__))) != SRC:
        fail(f"premlog was imported from {premlog.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ===== one run =================================================================


def setup_seconds(tmpdir: str):
    """Median corrected and median wall time of SETUP_PROBES fresh interpreters."""
    trivial = os.path.join(tmpdir, "trivial.dl")
    with open(trivial, "w", encoding="utf-8") as fh:
        fh.write("r1: p(X) :- q(X).\nq(a).\n")
    timer = clock.Clock()
    for _ in range(SETUP_PROBES):
        mark = timer.before_op()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, SRC, trivial],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        timer.record(mark, float(proc.stdout.strip()))
    timer.finish()
    return statistics.median(timer.corrected()), statistics.median(timer.raw())


class Tally:
    """Attempted, failed and known-defect ops, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.known_defects: Dict[str, int] = {}
        self.problems: List[str] = []

    def record(self, op, problem: Optional[str]) -> None:
        if problem is not None and op.known_defect is not None:
            self.attempted += 1
            self.known_defects[op.key] = self.known_defects.get(op.key, 0) + 1
        elif problem is not None:
            self.fail(op.key, problem)
        else:
            self.attempted += 1

    def fail(self, key: str, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(f"{key}: {problem}")


def checked(op, tally: Tally):
    try:
        outcome = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        tally.fail(op.key, f"raised {type(exc).__name__}: {exc}")
        return None
    return outcome


def untraced(workload, seconds: float, tally: Tally):
    """Whole passes of the op sequence until `seconds` have gone by."""
    timer = clock.Clock()
    pass_derived: List[int] = []
    start = time.perf_counter()
    while not pass_derived or time.perf_counter() - start < seconds:
        derived = 0
        for op in workload.ops:
            mark = timer.before_op()
            t0 = time.perf_counter()
            outcome = checked(op, tally)
            timer.record(mark, time.perf_counter() - t0)
            if outcome is not None:
                tally.record(op, op.check(outcome))
                derived += op.derived(outcome)
        pass_derived.append(derived)
    timer.finish()
    return timer, pass_derived


def percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_medians(durations: List[float], ops_per_pass: int) -> List[float]:
    """Median time of each op of the pass, over the whole passes of a run."""
    return [statistics.median(durations[i::ops_per_pass]) for i in range(ops_per_pass)]


def end_to_end(workload, seconds: float, tally: Tally, setup):
    setup_s, setup_wall_s = setup
    timer, pass_derived = untraced(workload, seconds, tally)
    durations = timer.corrected()
    raw = timer.raw()
    # Each op's time is its median over the run's passes, which filters the
    # host's jitter out of single samples; the percentiles are over those.
    per_op = op_medians(durations, len(workload.ops))
    if len(set(pass_derived)) != 1:
        tally.fail("passes", f"derived tuples differ between passes: {pass_derived}")
    derived = workload.derived_per_pass if workload.derived_per_pass is not None else pass_derived[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_s_p50": (statistics.median(per_op), "s"),
        "op_s_p90": (percentile(per_op, 90), "s"),
        "derived_tuples": (derived, "count"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "ops": len(durations),
        "passes": len(pass_derived),
        "p90_samples": len(durations),
        "op_kinds": len(per_op),
        "pooled_op_s_p50": statistics.median(durations),
        "pooled_op_s_p90": percentile(durations, 90),
        "calibrations": len(timer.kernel_s),
        "speed_factor_p50": timer.median_factor(),
        "wall_ops_per_s": len(raw) / sum(raw),
        "wall_op_s_p50": statistics.median(raw),
        "wall_op_s_p90": percentile(raw, 90),
        "wall_setup_s": setup_wall_s,
    }
    return metrics, detail


def traced_run(workload, seconds: float, tally: Tally):
    """Each op untraced, then replayed layer by layer through pipeline.py."""
    import pipeline

    timer = clock.Clock()
    # (mark, untraced op seconds, replay seconds, seconds per layer) per op
    timed: List[tuple] = []
    pass_counts: List[Dict[str, int]] = []
    start = time.perf_counter()
    while not pass_counts or time.perf_counter() - start < seconds:
        counts: Dict[str, int] = {}
        for op in workload.ops:
            mark = timer.before_op()
            t0 = time.perf_counter()
            outcome = checked(op, tally)
            op_s = time.perf_counter() - t0
            if outcome is None:
                continue
            problem = op.check(outcome)
            spans = pipeline.Spans()
            t0 = time.perf_counter()
            try:
                replayed = op.replay(spans)
                replay_s = time.perf_counter() - t0
                expected = op.normal(outcome)
                mismatch = None if replayed == expected else f"{replayed!r:.200} vs {expected!r:.200}"
            except Exception as exc:  # recorded as a failed op below
                replay_s = time.perf_counter() - t0
                mismatch = f"raised {type(exc).__name__}: {exc}"
            if mismatch is None:
                tally.record(op, problem)
            else:
                tally.fail(op.key, f"traced pipeline differs: {mismatch}")
            timed.append((mark, op_s, replay_s, spans.seconds()))
            for key, n in spans.counts.items():
                counts[key] = counts.get(key, 0) + n
        pass_counts.append(counts)
    timer.finish()
    # Every time below is corrected for the host's speed around its op.
    layer_s: Dict[str, float] = {}
    ops = len(timed)
    untraced_s = residual_s = overhead_s = 0.0
    for mark, op_s, replay_s, seconds_by_layer in timed:
        f = timer.factor(mark)
        in_layers = 0.0
        for layer, s in seconds_by_layer.items():
            layer_s[layer] = layer_s.get(layer, 0.0) + s * f
            in_layers += s * f
        untraced_s += op_s * f
        residual_s += op_s * f - in_layers
        overhead_s += replay_s * f - in_layers
    if any(c != pass_counts[0] for c in pass_counts):
        tally.fail("passes", "layer counts differ between passes")
    c = pass_counts[0]

    def per_op(layer: str) -> float:
        return layer_s.get(layer, 0.0) / ops

    eval_s = layer_s.get("engine.eval", 0.0)
    load_s = layer_s.get("parser.load_facts", 0.0)
    passes = len(pass_counts)
    metrics = {
        "parser.parse_program_s": (per_op("parser.parse_program"), "s"),
        "parser.load_facts_s": (per_op("parser.load_facts"), "s"),
        "parser.facts_per_s": (c.get("parser.facts", 0) * passes / load_s if load_s else 0.0, "1/s"),
        "analysis.classify_s": (per_op("analysis.classify"), "s"),
        "analysis.stratify_s": (per_op("analysis.stratify"), "s"),
        "analysis.approved": (c.get("analysis.approved", 0), "count"),
        "analysis.rejected": (c.get("analysis.rejected", 0), "count"),
        "rewrite.compile_s": (per_op("rewrite.compile"), "s"),
        "rewrite.push_s": (per_op("rewrite.push"), "s"),
        "rewrite.pushes": (c.get("rewrite.pushes", 0), "count"),
        "engine.eval_s": (per_op("engine.eval"), "s"),
        "engine.strata": (c.get("engine.strata", 0), "count"),
        "engine.iterations": (c.get("engine.iterations", 0), "count"),
        "engine.derived": (c.get("engine.derived", 0), "count"),
        "engine.retained": (c.get("engine.retained", 0), "count"),
        "engine.deleted": (c.get("engine.deleted", 0), "count"),
        "engine.retained_per_derived": (
            c.get("engine.retained", 0) / c["engine.derived"] if c.get("engine.derived") else 0.0,
            "fraction",
        ),
        "engine.us_per_derived": (
            eval_s * 1e6 / (c["engine.derived"] * passes) if c.get("engine.derived") else 0.0,
            "us",
        ),
        "verify.check_s": (per_op("verify.check"), "s"),
        "verify.samples": (c.get("verify.samples", 0), "count"),
        "verify.oracle_s": (per_op("verify.oracle"), "s"),
        "verify.audit_s": (per_op("verify.audit"), "s"),
        "cli.residual_s": (residual_s / ops, "s"),
        "trace.overhead_frac": (overhead_s / untraced_s, "fraction"),
    }
    detail = {"ops": ops, "passes": passes, "untraced_op_s_mean": untraced_s / ops,
              "calibrations": len(timer.kernel_s)}
    return metrics, detail


def run_one(args) -> int:
    import workloads

    spec = load_spec()
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    os.makedirs(SCRATCH, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH)
    try:
        setup_s = None if args.trace else setup_seconds(tmpdir)
        workload = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        tally = Tally()
        checked(workload.ops[0], Tally())  # untimed warm-up: .pyc files, lazily built indexes
        t0 = time.perf_counter()
        if args.trace:
            metrics, detail = traced_run(workload, args.seconds, tally)
        else:
            metrics, detail = end_to_end(workload, args.seconds, tally, setup_s)
        detail.update(
            workload=args.workload,
            seed=args.seed,
            trace=args.trace,
            measured_s=time.perf_counter() - t0,
            sizes=workload.sizes,
            inputs=workload.inputs,
            known_defects=tally.known_defects,
            problems=tally.problems,
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    missing = set(wanted) - set(metrics)
    if missing:
        fail(f"BENCHMARK.json names metrics this run does not measure: {sorted(missing)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{detail['ops']} ops in {detail['passes']} passes, {detail['measured_s']:.1f} s")
    for name in wanted:
        value, unit = metrics[name]
        print(f"  {name:<28} {value:>14.6g} {unit}")
    if detail.get("p90_samples", 100) < 100:
        print(f"  op_s_p90 rests on {detail['p90_samples']} ops, fewer than 100")
    for key, n in tally.known_defects.items():
        print(f"  known defect {key}: wrong outcome {n}x ({workloads.corpus.KNOWN_DEFECTS[key]})")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }
    print(json.dumps(result))
    return 0


# ===== all workloads, and comparing result files ================================


def run_all(args) -> int:
    spec = load_spec()
    seeds = [int(s) for s in args.seeds.split(",")]
    runs = []
    for w in spec["workloads"]:
        for seed in seeds:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                sys.stdout.write("\n".join(x for x in lines if not x.startswith(("detail ", "{"))) + "\n")
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return proc.returncode
                detail = next(json.loads(x[7:]) for x in lines if x.startswith("detail "))
                runs.append({"workload": w["name"], "seed": seed, "trace": trace,
                             "result": json.loads(lines[-1]), "detail": detail})
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": args.seconds, "seeds": seeds, "runs": runs}, fh, indent=1)
        print(f"wrote {args.out}")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


def _quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(args) -> int:
    spec = load_spec()
    files = []
    for path in args.compare:
        with open(path, encoding="utf-8") as fh:
            files.append(json.load(fh))
    exact = {"derived_tuples"} | {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    worse = 0
    print(f"{'workload':<13} {'metric':<28} {'old q1 / median / q3':>32} {'new q1 / median / q3':>32} {'delta':>8}  verdict")
    for w in spec["workloads"]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for m in metrics:
                name = m["name"]
                sides = []
                for data in files:
                    vals = {r["seed"]: r["result"]["metrics"][name]["value"] for r in data["runs"]
                            if r["workload"] == w["name"] and r["trace"] == trace}
                    sides.append(vals)
                if not sides[0] or not sides[1]:
                    continue
                (a1, a, a3), (b1, b, b3) = (_quartiles(list(s.values())) for s in sides)
                delta = (b - a) / a if a else 0.0
                if name in exact:
                    same = all(sides[1].get(k) == v for k, v in sides[0].items() if k in sides[1])
                    verdict = "same" if same else "COUNT CHANGED"
                elif "bound" in m:
                    change = delta if m["better"] == "lower" else -delta
                    verdict = "within bound" if change <= m["bound"] else f"WORSE than bound {m['bound']}"
                    worse += change > m["bound"]
                else:
                    verdict = ""
                print(f"{w['name']:<13} {name:<28} {a1:>10.4g} {a:>10.4g} {a3:>10.4g} "
                      f"{b1:>10.4g} {b:>10.4g} {b3:>10.4g} {delta:>+8.1%}  {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, traced and untraced")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds for --all")
    parser.add_argument("--out", help="result file written by --all")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()

    if args.compare:
        return compare(args)
    if not args.all and os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order decides how many tuples the min/max working
        # sets displace, so derived counts repeat only under a fixed hash seed.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)
    import_premlog()
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.all:
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; pick from {', '.join(workloads.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
