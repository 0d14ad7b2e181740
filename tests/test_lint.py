"""Import hygiene of the package, checked with the standard library's ast.

Every name a module imports must be used in it (or listed in its __all__),
and no module imports a _private name from a sibling module: a helper two
modules share is public. A program's dependency graph is built in one place,
Program.graph, besides the parser's graph of the clauses it reads. The
executor's _Context is built in two: the consequence step T, which the naive
loop and the falsifier run, and the seminaive stratum, which
seminaive_fixpoint and the resident run of iterated_fixpoint share. A
run's EvalStats and its clock have one owner, iterated_fixpoint: besides it,
only the fixpoints a caller runs alone and the oracle build an EvalStats, and
no other engine function reads the clock. A rule's safety and goal order
are decided in one place, analysis.order_goals, which the parser, the
executor's plans and the oracle all call: it alone raises SafetyError, and
the generated rule code raises no UnboundVariable.
Every name the package exports has a caller outside the tests: some module uses
it as code (its defining module too, its definition aside), or a script or
the benchmark does. The layers check and optimize run (model, errors,
analysis, parser, rewrite) import no later layer (engine, verify, bench), and
the CLI imports those only inside the commands that run them.
A counting rule's tally (engine._Tally) holds state only, read per key: the
generated rule code writes its witnesses, best summands and running sums,
and _tally_row, the helper that emits that code, is the one function that
writes them, besides the tally's __init__. A program's final constraints are
read off its rules in one place, Program.final_constraints: it alone builds
a FinalConstraint. Each fixpoint loop has one iteration counter: only the
seminaive stratum and the naive loop advance stats.iterations. The cyclic
garbage collector is paused and restored in one place, cli.main, around a
command: the library leaves it to its caller.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "premlog"
MODULES = sorted(SRC.glob("*.py"))
# The reference primitives the tests hold the engine to; nothing else calls them.
REFERENCE_EXPORTS = {"apply_ico", "dijkstra_reference"}


def _imports(tree: ast.Module):
    """(bound name, imported name, relative level, line) per imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name, 0, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.level, node.lineno


def _used_names(tree: ast.Module):
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # Strings count only as __all__ entries and as quoted annotations.
    quoted = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            quoted.append(node.value)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            quoted.append(node.returns)
    for root in quoted:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(node.value.translate(str.maketrans("[],", "   ")).split())
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = _used_names(tree)
    return [f"line {line}: {name}" for name, _, _, line in _imports(tree) if name not in used]


def private_sibling_imports(source: str):
    tree = ast.parse(source)
    return [
        f"line {line}: {imported}"
        for _, imported, level, line in _imports(tree)
        if level > 0 and imported.startswith("_")
    ]


# (module, function) pairs that may call build_dependency_graph (Program.graph
# and the parser's body of parse_program), and _Context
# (ConsequenceStep.__call__, the only __call__ in engine.py, and seminaive).
GRAPH_BUILDERS = {("model.py", "graph"), ("parser.py", "parse_program")}
CONTEXT_BUILDERS = {("engine.py", "__call__"), ("engine.py", "_seminaive_stratum")}
# (module, function) pairs that may build an EvalStats: a run, one fixpoint
# called alone, and the oracle's stratified run.
STATS_BUILDERS = {
    ("engine.py", "iterated_fixpoint"),
    ("engine.py", "seminaive_fixpoint"),
    ("engine.py", "naive_fixpoint"),
    ("verify.py", "brute_force_oracle"),
}

# (module, function) pairs that may raise SafetyError: the one home of a
# rule's safety.
SAFETY_RAISERS = {("analysis.py", "order_goals")}
# The one home of a program's final constraints, and the engine functions
# that count iterations: one loop each.
FINAL_CONSTRAINT_BUILDERS = {("model.py", "final_constraints")}
ITERATION_COUNTERS = {"_seminaive_stratum", "naive_fixpoint"}
# The one home of the collector's pause; no other enable() or disable() is
# called in the package, so the method name alone finds every call.
COLLECTOR_SWITCHES = {("cli.py", "main")}

# The methods of engine._Tally, none of them per row; the fields only the
# rule code _tally_row emits writes; the calls that change a dict or set.
TALLY_METHODS = {"__init__", "totals"}
TALLY_FIELDS = ("witnesses", "best", "sums")
TALLY_WRITERS = {"__init__", "_tally_row"}
MUTATORS = {"add", "clear", "discard", "pop", "popitem", "remove", "setdefault", "update"}


# The layers `premlog check` and `optimize` run, and the ones they must not load.
EARLY_LAYERS = ("model.py", "errors.py", "analysis.py", "parser.py", "rewrite.py")
LATE_LAYERS = {"engine", "verify", "bench"}


def late_imports(source: str):
    """(line, late layer, inside a function) per import of a late layer."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            inside = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            names = set()
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.startswith("premlog."):
                        names.update(alias.name.split("."))
            elif isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if child.level or module.startswith("premlog"):
                    names = set(module.split(".")) | {alias.name for alias in child.names}
            found.extend((child.lineno, layer, inside) for layer in sorted(names & LATE_LAYERS))
            visit(child, inside)

    visit(ast.parse(source), False)
    return found


def calls(callee: str, source: str, module: str):
    """(module, function, line) per call of callee."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == callee:
                    found.append((module, function, child.lineno))
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def callers(callee: str):
    return {
        (module, function)
        for path in MODULES
        for module, function, _ in calls(callee, path.read_text(encoding="utf-8"), path.name)
    }


def assigners(target: str, source: str):
    """The functions of source that assign or augment target, a dotted name."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                if any(ast.unparse(t) == target for t in targets):
                    found.add(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def tally_writers(source: str):
    """The functions of source that write a tally field (TALLY_FIELDS): by
    assignment or deletion, by a mutating call on it, or in the text of the
    code they generate (a string naming it as an attribute, docstrings aside)."""
    found = set()

    def writes(node) -> bool:
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            node = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr not in MUTATORS:
                return False
            node = node.func.value
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            return any(f".{field}" in node.value for field in TALLY_FIELDS)
        elif not isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
            return False
        return isinstance(node, ast.Attribute) and node.attr in TALLY_FIELDS

    def visit(node, function):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            skip = node.body[0]
        else:
            skip = None
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if child is skip:
                continue
            if writes(child):
                found.add(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def code_names(source: str):
    """The names source reads as code: names and attribute names loaded,
    not strings, not a def, class or assignment of the name."""
    nodes = [n for n in ast.walk(ast.parse(source)) if isinstance(getattr(n, "ctx", None), ast.Load)]
    return {n.id if isinstance(n, ast.Name) else n.attr for n in nodes if isinstance(n, (ast.Name, ast.Attribute))}


def exports_without_a_caller():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    [homes] = [
        ast.literal_eval(node.value)
        for node in init.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets)
    ]
    exported = [name for names in homes.values() for name in names]
    callers = [path for path in MODULES if path.name != "__init__.py"]
    callers += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set().union(*(code_names(path.read_text(encoding="utf-8")) for path in callers))
    return [name for name in exported if name not in used | REFERENCE_EXPORTS]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_from_siblings(path):
    assert private_sibling_imports(path.read_text(encoding="utf-8")) == []


def test_dependency_graph_built_only_by_program_graph():
    assert callers("build_dependency_graph") <= GRAPH_BUILDERS


def test_every_export_has_a_caller():
    assert exports_without_a_caller() == []


def test_context_built_only_by_the_consequence_step_and_seminaive():
    # naive_fixpoint sweeps with a ConsequenceStep; it builds no context of its own.
    assert callers("_Context") == CONTEXT_BUILDERS


def test_a_run_has_one_stats_and_one_clock():
    assert callers("EvalStats") == STATS_BUILDERS
    assert {function for module, function in callers("perf_counter") if module == "engine.py"} == {
        "iterated_fixpoint"
    }


def test_rule_safety_is_decided_in_one_place():
    assert callers("SafetyError") == SAFETY_RAISERS
    # Every variable a plan reads is bound where it is read.
    assert "UnboundVariable" not in (SRC / "engine.py").read_text(encoding="utf-8")


def test_final_constraints_are_read_off_the_rules_in_one_place():
    assert callers("FinalConstraint") == FINAL_CONSTRAINT_BUILDERS


def test_a_seminaive_stratum_counts_its_iterations_in_one_loop():
    source = (SRC / "engine.py").read_text(encoding="utf-8")
    assert assigners("stats.iterations", source) == ITERATION_COUNTERS


def test_the_collector_is_paused_only_around_a_cli_command():
    assert callers("disable") | callers("enable") == COLLECTOR_SWITCHES


def test_the_tally_is_written_by_the_rule_code_alone():
    source = (SRC / "engine.py").read_text(encoding="utf-8")
    [tally] = [n for n in ast.parse(source).body if getattr(n, "name", None) == "_Tally"]
    assert {f.name for f in tally.body if isinstance(f, ast.FunctionDef)} <= TALLY_METHODS
    assert tally_writers(source) == TALLY_WRITERS


@pytest.mark.parametrize("name", EARLY_LAYERS)
def test_the_early_layers_import_no_late_layer(name):
    assert late_imports((SRC / name).read_text(encoding="utf-8")) == []


def test_the_cli_imports_a_late_layer_only_in_a_command():
    found = late_imports((SRC / "cli.py").read_text(encoding="utf-8"))
    assert {layer for _, layer, _ in found} == LATE_LAYERS
    assert [(line, layer) for line, layer, inside in found if not inside] == []


def test_the_checks_see_what_they_look_for():
    source = "\n".join(
        [
            "from __future__ import annotations",
            "import os",
            "from .model import Atom, Rule, _hidden",
            "from pathlib import Path",
            "import re",
            "x: 'Atom' = _hidden",
            "def f() -> 'Dict[str, Rule]': 're is named here, in a docstring'",
            "__all__ = ['Path']",
        ]
    )
    assert unused_imports(source) == ["line 2: os", "line 5: re"]
    assert private_sibling_imports(source) == ["line 3: _hidden"]
    builds = "\n".join(
        [
            "from . import analysis",
            "g = build_dependency_graph(rules)",
            "def plan(p):",
            "    def inner():",
            "        return analysis.build_dependency_graph(p.rules)",
            "    return p.graph",
        ]
    )
    assert calls("build_dependency_graph", builds, "m.py") == [("m.py", None, 2), ("m.py", "inner", 5)]
    uses = "\n".join(
        [
            "from .parser import parse_program",
            "def unused(): 'format_program, in a docstring'",
            "CONSTANT = P.load_facts_path(path)",
            "run(parse_program)",
        ]
    )
    assert code_names(uses) == {"P", "load_facts_path", "path", "run", "parse_program"}
    layers = "\n".join(
        [
            "from .engine import plan",
            "import premlog.verify",
            "from . import bench, model",
            "from .enginex import run",
            "import engine",
            "def cmd():",
            "    from premlog.engine import execute",
            "    if x:",
            "        from .bench import run_benchmark",
        ]
    )
    tallies = "\n".join(
        [
            "class T:",
            "    def __init__(self): self.sums = {}",
            "    def add(self, k, m): self.witnesses.setdefault(k, set()).add(m)",
            "    def total(self, k): return self.sums[k] + len(self.witnesses.get(k, ()))",
            "def row(src):",
            "    src.add('_B = sink.best')",
            "def doc(t):",
            "    'Reads t.best, in a docstring.'",
            "    return t.best",
            "def bump(t, k): t.best[k] += 1",
            "def drop(t, k): del t.sums[k]",
        ]
    )
    assert tally_writers(tallies) == {"__init__", "add", "row", "bump", "drop"}
    counters = "\n".join(
        [
            "def loop(stats):",
            "    stats.iterations += 1",
            "    def inner(): stats.iterations = 0",
            "def merge(self, stats): self.iterations += stats.iterations",
            "def drain(ctx): ctx.stats.iterations += 1",
        ]
    )
    assert assigners("stats.iterations", counters) == {"loop", "inner"}
    assert late_imports(layers) == [
        (1, "engine", False),
        (2, "verify", False),
        (3, "bench", False),
        (7, "engine", True),
        (9, "bench", True),
    ]
