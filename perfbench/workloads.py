"""The four workloads: seeded inputs, the op sequence, and each op's expectation.

An op is what one closed-loop client does before it issues the next one: a
`premlog` command run in-process through `premlog.cli.main(argv)`, or one
source of the shortest-path table through `bench.shortest_paths`. A pass is
the workload's fixed op sequence; a run repeats whole passes.

Expectations come from references that share no code with the program under
test (Dijkstra, a bill-of-materials rollup and a party cascade written here,
outcomes the test suite freezes), or, for generated programs, from
`brute_force_oracle`. They are computed before timing starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import premlog as P
import premlog.cli

import corpus
import pipeline

_STATS = re.compile(r"^# iterations=(\d+) derived=(\d+) retained=(\d+) deleted=(\d+) ", re.M)
_VERIFY = re.compile(r"^(PASSED|FALSIFIED): .*?(?:in|after) (\d+) samples$", re.M)


@dataclass
class CliOutcome:
    code: int
    out: str
    err: str

    def stats(self) -> Optional[Tuple[int, int, int, int]]:
        m = _STATS.search(self.err)
        return tuple(int(x) for x in m.groups()) if m else None

    def derived(self) -> int:
        s = self.stats()
        return s[1] if s else 0


def cli_main(argv: List[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = premlog.cli.main(argv)
    return CliOutcome(code, out.getvalue(), err.getvalue())


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    # Returns None when the outcome is right, else what is wrong with it.
    check: Callable[[object], Optional[str]]
    # Replays the op layer by layer through pipeline.py. The replay must
    # equal `normal(outcome)` of the untraced op.
    replay: Callable[[pipeline.Spans], object]
    normal: Callable[[object], object]
    derived: Callable[[object], int]
    known_defect: Optional[str] = None


@dataclass
class Workload:
    name: str
    ops: List[Op]
    inputs: Dict[str, str] = field(default_factory=dict)  # name -> sha256
    sizes: Dict[str, int] = field(default_factory=dict)
    # Derived tuples per pass when the timed ops evaluate nothing themselves.
    derived_per_pass: Optional[int] = None


class _Files:
    """Writes generated inputs and records their hashes."""

    def __init__(self, tmpdir: str, workload: Workload):
        self.tmpdir = tmpdir
        self.workload = workload

    def write(self, name: str, text: str) -> str:
        data = text.encode("utf-8")
        self.workload.inputs[name] = hashlib.sha256(data).hexdigest()
        path = os.path.join(self.tmpdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        return path


# ===== outcome checks ===========================================================


def _expect_exact(code: int, stdout: str) -> Callable[[object], Optional[str]]:
    def check(o: CliOutcome) -> Optional[str]:
        if o.code != code:
            return f"exit {o.code}, expected {code}: {o.err.strip()[:200]}"
        if o.out != stdout:
            return "stdout differs from the reference"
        return None

    return check


def _expect_frozen(frozen: corpus.Frozen) -> Callable[[object], Optional[str]]:
    def check(o: CliOutcome) -> Optional[str]:
        if o.code != frozen.exit_code:
            return f"exit {o.code}, expected {frozen.exit_code}"
        missing = [s for s in frozen.contains if s not in o.out]
        if missing:
            return f"stdout lacks {missing}"
        if frozen.stdout is not None and o.out != frozen.stdout:
            return "stdout differs from the frozen text"
        return None

    return check


def _answers(o: CliOutcome):
    """Exit code, answer lines and EvalStats of a `premlog run --stats`."""
    return o.code, sorted(o.out.splitlines()), o.stats()


def _lines(text: str) -> str:
    return "".join(line + "\n" for line in text)


# ===== spath-load ===============================================================

# Op counts are odd multiples of five, so the median and the 90th percentile
# of a pass fall inside one op's samples rather than between two ops.
SPATH_LOAD = dict(ops=15, n_first=180, n_step=20, p=0.05)


def spath_load(seed: int, tmpdir: str) -> Workload:
    """Op i runs graph i // 2 from its own source, facts from .dl for even i, .tsv for odd."""
    rng = random.Random(seed)
    w = Workload("spath-load", [], sizes=dict(SPATH_LOAD, arcs=0))
    files = _Files(tmpdir, w)
    for i in range(SPATH_LOAD["ops"]):
        g = i // 2
        if i % 2 == 0:
            arcs = corpus.cyclic_graph(rng, SPATH_LOAD["n_first"] + g * SPATH_LOAD["n_step"], SPATH_LOAD["p"])
            w.sizes["arcs"] += len(arcs)
            dl = files.write(f"graph{g}.dl", _lines(f"arc({u},{v},{d})." for u, v, d in arcs))
            tsv = files.write(f"graph{g}.tsv", _lines(f"{u}\t{v}\t{d}" for u, v, d in arcs))
        src = rng.choice(sorted({u for u, _, _ in arcs}))
        prog = files.write(f"spath{i}.dl", corpus.SHORTEST_PATH_RULES.format(src=src))
        facts = dl if i % 2 == 0 else tsv
        dist = corpus.dijkstra(arcs, src)
        expected = _lines(f"spath({v},{d})." for v, d in sorted(dist.items()))
        argv = ["run", prog, "--facts", facts, "--stats"]
        w.ops.append(Op(
            key=f"run:{os.path.basename(facts)}:{src}",
            run=lambda argv=argv: cli_main(argv),
            check=_expect_exact(0, expected),
            replay=lambda spans, prog=prog, facts=facts: pipeline.run(spans, prog, [facts]),
            normal=_answers,
            derived=CliOutcome.derived,
        ))
    return w


# ===== spath-blowup =============================================================

# Op i's DAG draws arc lengths from 1..10*(i+1), so the stratified work per
# op spreads over a factor of about four instead of bunching at one size.
SPATH_BLOWUP = dict(ops=15, layers=9, width=15, fan=3, length_step=10)
VARIANTS = ("spath", "spath_prem", "spath_mmin")


def _table_row(arcs, src):
    return [(v, *P.shortest_paths(v, arcs, src)) for v in VARIANTS]


def _replay_row(spans, arcs, src):
    return [pipeline.shortest_paths(spans, v, arcs, src) for v in VARIANTS]


def _matches(expected):
    def check(rows) -> Optional[str]:
        bad = [v for v, answers, _ in rows if answers != expected]
        return f"{bad} differ from Dijkstra" if bad else None

    return check


def spath_blowup(seed: int, tmpdir: str) -> Workload:
    rng = random.Random(seed)
    w = Workload("spath-blowup", [], sizes=dict(SPATH_BLOWUP, arcs=0))
    files = _Files(tmpdir, w)
    for i in range(SPATH_BLOWUP["ops"]):
        arcs = corpus.layered_dag(rng, SPATH_BLOWUP["layers"], SPATH_BLOWUP["width"],
                                  SPATH_BLOWUP["fan"], SPATH_BLOWUP["length_step"] * (i + 1))
        src = f"v0_{rng.randrange(SPATH_BLOWUP['width'])}"
        w.sizes["arcs"] += len(arcs)
        files.write(f"dag{i}.tsv", _lines(f"{u}\t{v}\t{d}" for u, v, d in arcs))
        w.ops.append(Op(
            key=f"table:dag{i}:{src}",
            run=lambda arcs=arcs, src=src: _table_row(arcs, src),
            check=_matches(corpus.dijkstra(arcs, src)),
            replay=lambda spans, arcs=arcs, src=src: _replay_row(spans, arcs, src),
            normal=lambda rows: [(answers, pipeline.stats_tuple(s)) for _, answers, s in rows],
            derived=lambda rows: sum(stats.derived for _, _, stats in rows),
        ))
    return w


# ===== verdicts =================================================================

VERDICTS = dict(generated=96)


def _sound(text: str) -> Tuple[bool, int]:
    """Pushed answers on every final predicate against the oracle, and derived tuples."""
    program = P.parse_program(text)
    try:
        result = P.run_program(program, P.EvalOptions(max_tuples=200_000), push=True)
    except P.PremlogError:
        return False, 0
    oracle = P.brute_force_oracle(program, P.EvalOptions(mode="naive", max_tuples=200_000))
    used = {g.predicate for r in program.rules for g in r.body if isinstance(g, P.Atom)}
    finals = {r.head.predicate for r in program.rules} - used
    same = all(result.db.get(p, set()) == oracle.get(p, set()) for p in finals)
    return same, result.stats.derived


def _expect_sound_if_approved(sound: bool, cmd: str):
    def check(o: CliOutcome) -> Optional[str]:
        if o.code not in (0, 3):
            return f"exit {o.code}: {o.err.strip()[:200]}"
        if cmd == "check" and (o.code == 0) == ("REJECTED" in o.out):
            return "exit code disagrees with the verdict lines"
        if o.code == 0 and not sound:
            return "approved, but the pushed program disagrees with brute_force_oracle"
        return None

    return check


def _verdict_lines(o: CliOutcome):
    """Exit code and the number of APPROVED and REJECTED lines of a `premlog check`."""
    lines = o.out.splitlines()
    return (o.code, sum(x.startswith("APPROVED") for x in lines),
            sum(x.startswith("REJECTED") for x in lines))


def _printed(o: CliOutcome):
    return o.code, o.out


def verdicts(seed: int, tmpdir: str) -> Workload:
    rng = random.Random(seed)
    w = Workload("verdicts", [])
    files = _Files(tmpdir, w)
    cases = []
    for i, (name, text, argv, frozen) in enumerate(corpus.VERDICT_FIXTURES):
        cases.append((f"{argv[0]}:{name}", files.write(f"fixture{i}_{name}.dl", text), argv,
                      _expect_frozen(frozen)))
    derived = 0
    generated = corpus.generated_programs(rng, VERDICTS["generated"])
    for i, text in enumerate(generated):
        path = files.write(f"gen{i}.dl", text)
        sound, d = _sound(text)
        derived += d
        # optimize on every third program keeps the median inside the check ops
        for cmd in ("check", "optimize") if i % 3 == 0 else ("check",):
            cases.append((f"{cmd}:gen{i}", path, (cmd,), _expect_sound_if_approved(sound, cmd)))
    for key, path, argv, check in cases:
        full = [argv[0], path, *argv[1:]]
        w.ops.append(Op(
            key=key,
            run=lambda full=full: cli_main(full),
            check=check,
            replay=(lambda spans, path=path: pipeline.check(spans, path)) if argv[0] == "check"
            else (lambda spans, path=path, force="--force-push" in argv:
                  pipeline.optimize(spans, path, force)),
            normal=_verdict_lines if argv[0] == "check" else _printed,
            derived=lambda o: 0,
        ))
    w.sizes = dict(fixture_ops=len(corpus.VERDICT_FIXTURES), generated=len(generated), ops=len(w.ops))
    w.derived_per_pass = derived
    return w


# ===== audit ====================================================================

# BOM i has 2+i//2 parts per level and party i 10+25*i joiners, so op sizes
# spread out rather than bunching; with five BOMs the median and the 90th
# percentile both fall among the verify and BOM ops.
AUDIT = dict(samples=1000, boms=5, bom_levels=3, bom_fan=2, parties=4, organizers=6)


def _verify_outcome(o: CliOutcome):
    """Exit code and (passed, samples) per line of a `premlog verify`."""
    return o.code, [(kind == "PASSED", int(n)) for kind, n in _VERIFY.findall(o.out)]


def _not_passed(o: CliOutcome) -> Optional[str]:
    return "PASSED although no sample could be evaluated" if "PASSED" in o.out else None


def audit(seed: int, tmpdir: str) -> Workload:
    rng = random.Random(seed)
    w = Workload("audit", [], sizes=dict(AUDIT))
    files = _Files(tmpdir, w)
    verify_cases = [(name, text, _expect_frozen(frozen), None)
                    for name, text, frozen in corpus.VERIFY_FIXTURES]
    verify_cases.append(("symbolic_path", corpus.SYMBOLIC_PATH, _not_passed,
                         corpus.KNOWN_DEFECTS["verify:symbolic_path"]))
    for name, text, check, defect in verify_cases:
        path = files.write(f"verify_{name}.dl", text)
        s = rng.randrange(1 << 30)
        argv = ["verify", path, "--samples", str(AUDIT["samples"]), "--seed", str(s)]
        w.ops.append(Op(
            key=f"verify:{name}",
            run=lambda argv=argv: cli_main(argv),
            check=check,
            replay=lambda spans, path=path, s=s: pipeline.verify(spans, path, AUDIT["samples"], s),
            normal=_verify_outcome,
            derived=lambda o: 0,
            known_defect=defect,
        ))

    bom_rules = files.write("bom_rules.dl", corpus.PART_EXPLOSION_NOGUARD_RULES)
    party_rules = files.write("party_rules.dl", corpus.PARTY_COUNT)
    for i in range(AUDIT["boms"]):
        basic, assb = corpus.bill_of_materials(rng, AUDIT["bom_levels"], 2 + i // 2, AUDIT["bom_fan"])
        facts = files.write(f"bom{i}.dl", _lines(
            [f"basic({p},{c})." for p, c in sorted(basic.items())]
            + [f"assb({p},{s},{q})." for p, s, q in assb]))
        cost = corpus.rollup(basic, assb)
        expected = _lines(f"finalcost({p},{c})." for p, c in sorted(cost.items()))
        w.ops.append(_tbv_op(f"tbv:bom{i}", bom_rules, facts, rng.randrange(1 << 30), expected))
    for i in range(AUDIT["parties"]):
        joiners = 10 + 25 * i
        organizers, friends = corpus.party_graph(rng, AUDIT["organizers"], joiners, joiners * 3 // 4)
        facts = files.write(f"party{i}.dl", _lines(
            [f"organizer({o})." for o in organizers] + [f"friend({a},{b})." for a, b in friends]))
        counts = corpus.attending_friend_counts(organizers, friends, 3)
        expected = _lines(f"fcount({p},{n})." for p, n in sorted(counts.items()))
        w.ops.append(_tbv_op(f"tbv:party{i}", party_rules, facts, rng.randrange(1 << 30), expected))
    return w


def _tbv_op(key: str, prog: str, facts: str, seed: int, expected: str) -> Op:
    argv = ["run", prog, "--facts", facts, "--trust-but-verify", "--stats", "--seed", str(seed)]
    return Op(
        key=key,
        run=lambda: cli_main(argv),
        check=_expect_exact(0, expected),
        replay=lambda spans: pipeline.trust_but_verify(spans, prog, [facts], seed),
        normal=_answers,
        derived=CliOutcome.derived,
    )


WORKLOADS = {
    "spath-load": spath_load,
    "spath-blowup": spath_blowup,
    "verdicts": verdicts,
    "audit": audit,
}
