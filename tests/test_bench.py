"""Graph generation, reference shortest paths, benchmark harness."""
from __future__ import annotations

import io

import pytest

import premlog as P
from premlog.bench import (
    GraphSpec,
    VARIANTS,
    arc_facts,
    check_lengths,
    dijkstra_reference,
    gen_graph,
    run_benchmark,
    shortest_paths,
    variant_program,
)
from premlog.errors import NegativeLength


# ===== graph generation ======================================================


def test_gen_graph_is_deterministic():
    spec = GraphSpec("dag", 30, 0.2, seed=11)
    assert gen_graph(spec) == gen_graph(spec)
    other = GraphSpec("dag", 30, 0.2, seed=12)
    assert gen_graph(spec) != gen_graph(other)


def test_dense_dag_has_all_forward_arcs():
    arcs = gen_graph(GraphSpec("dag", 5, 1.0, seed=0))
    assert len(arcs) == 10  # n*(n-1)/2
    assert all(src < dst for src, dst, _ in arcs)


def test_cyclic_graph_allows_back_arcs():
    arcs = gen_graph(GraphSpec("cyclic", 5, 1.0, seed=0))
    assert len(arcs) == 20  # all ordered pairs
    assert any(src > dst for src, dst, _ in arcs)


def test_lengths_respect_range():
    arcs = gen_graph(GraphSpec("dag", 40, 0.3, length_range=(5, 9), seed=2))
    assert arcs and all(5 <= w <= 9 for _, _, w in arcs)


def test_edge_count_close_to_expectation():
    # binomial(n*(n-1)/2, p): mean 495, sigma ~21 for n=100, p=0.1
    arcs = gen_graph(GraphSpec("dag", 100, 0.1, seed=3))
    mean = 4950 * 0.1
    sigma = (4950 * 0.1 * 0.9) ** 0.5
    assert abs(len(arcs) - mean) < 3 * sigma


def test_check_lengths_rejects_negative():
    with pytest.raises(NegativeLength):
        check_lengths([(0, 1, -4)])
    check_lengths([(0, 1, 4)])  # fine


# ===== reference shortest paths ==============================================


def test_dijkstra_reference_small():
    arcs = [("a", "b", 1), ("b", "c", 1), ("a", "c", 5)]
    assert dijkstra_reference(arcs, "a") == {"b": 1, "c": 2}


def test_dijkstra_source_needs_a_cycle_to_reach_itself():
    assert dijkstra_reference([("a", "b", 2), ("b", "a", 3)], "a") == {"b": 2, "a": 5}


def test_dijkstra_ignores_unreachable():
    assert dijkstra_reference([("a", "b", 1), ("c", "d", 1)], "a") == {"b": 1}


# ===== variants ==============================================================


def test_variant_programs_parse_and_agree():
    arcs = gen_graph(GraphSpec("dag", 12, 0.4, seed=5))
    ref = dijkstra_reference(arcs, 0)
    for variant in VARIANTS:
        prog, query = variant_program(variant, arcs, 0)
        dist, _ = shortest_paths(variant, arcs, 0)
        assert dist == ref, variant


def test_arc_facts_shape():
    facts = arc_facts([("a", "b", 1)])
    assert facts[0].predicate == "arc" and facts[0].as_tuple() == ("a", "b", 1)


def test_arc_facts_are_the_facts_of_each_arc_in_order():
    arcs = gen_graph(GraphSpec("dag", 40, 0.2, seed=3)) + [("n1", "n2", 7), ("n1", "n2", 7), (1, 2, 3)]
    facts = arc_facts(arcs)
    assert facts == tuple(P.Fact("arc", (u, v, w)) for u, v, w in arcs)
    assert all(type(f) is P.Fact for f in facts)
    assert arc_facts([]) == ()


def test_unknown_variant_rejected():
    with pytest.raises(P.PremlogError):
        variant_program("fastest", [("a", "b", 1)], "a")


# ===== harness ===============================================================


def test_run_benchmark_smoke(tmp_path):
    arcs = gen_graph(GraphSpec("dag", 10, 0.5, seed=1))
    report = run_benchmark(arcs, runs=2, sources=[0, 1])
    assert report.arcs == len(arcs)
    assert {c.variant for c in report.cells} == set(VARIANTS)
    assert all(c.status == "ok" for c in report.cells)
    rows = report.summary()
    assert len(rows) == len(VARIANTS)
    text = report.format_text()
    assert "variant" in text and "spath_prem" in text
    buf = io.StringIO()
    report.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].startswith("variant,source,run")
    assert len(lines) == 1 + len(report.cells)


def test_run_benchmark_marks_nontermination():
    arcs = [("a", "b", 1), ("b", "a", 1)]
    report = run_benchmark(
        arcs, variants=("spath",), sources=["a"], runs=1,
        options=P.EvalOptions(max_tuples=300),
    )
    assert all(c.status == "non-terminating" for c in report.cells)
