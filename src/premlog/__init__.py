"""Datalog with extrema and counting aggregates inside recursion.

The package decides when a final min/max/bound constraint can be applied
at every step of the fixpoint instead of after it, performs that rewrite,
evaluates the result with constrained naive or seminaive iteration, and can
probe the transfer equation empirically when the static argument fails.

Every exported name, and every submodule, is imported from its home module
on first access (PEP 562's module __getattr__), so `import premlog` loads
none of them, and `premlog check` never loads the executor.
"""

from importlib import import_module

# The home module of each exported name; __all__ lists them all.
_EXPORTS = {
    "analysis": (
        "DependencyGraph", "PremVerdict", "Rejection", "Stratum", "build_dependency_graph",
        "classify_premability", "compose_procedure", "constraint_from_annotations",
        "find_cost_arguments", "lacks", "stratify",
    ),
    "bench": (
        "BenchReport", "GraphSpec", "dijkstra_reference", "gen_graph", "run_benchmark",
        "shortest_paths",
    ),
    "engine": (
        "EvalOptions", "EvalStats", "RunResult", "apply_constraint", "apply_ico",
        "default_query", "iterated_fixpoint", "naive_fixpoint", "run_program",
        "seminaive_fixpoint",
    ),
    "errors": (
        "AmbiguousCost", "ArityConflict", "BudgetExceeded", "LoadError", "MalformedAggregate",
        "MissingResult", "NegativeLength", "NoCost", "Overflow", "ParseError", "PlanMismatch",
        "PremlogError", "SafetyError", "StratificationError", "TypeMismatch", "UnboundVariable",
    ),
    "model": (
        "Atom", "Bound", "Comparison", "Constant", "Conjunction", "Extremum", "Fact",
        "FinalConstraint", "Program", "Rule", "Variable", "make_constraint",
    ),
    "parser": ("format_program", "format_rule", "load_facts_path", "parse_program"),
    "rewrite": (
        "CompileObligation", "RewriteTrace", "compile_count_in_recursion", "desugar_extremum",
        "materialize_monotonic", "push_constraint",
    ),
    "verify": (
        "PremCheckReport", "TrustReport", "brute_force_oracle", "check_prem_empirical",
        "trust_but_verify_run",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
