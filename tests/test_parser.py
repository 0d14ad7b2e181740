"""Grammar, normalization, safety checks, fact loaders."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premlog as P
from premlog.errors import ArityConflict, MalformedAggregate, ParseError, SafetyError
from premlog.model import AggregateGoal, Bound, Conjunction, Extremum, Fact, HeadExtremum
from premlog.parser import _read_fact_lines, load_edge_list

from conftest import CAPPED_MAX, BOUNDED_PATH, PARTY_GATED, PART_EXPLOSION


def test_labels_and_facts():
    prog = P.parse_program(BOUNDED_PATH + "arc(a,b,1).")
    assert [r.id for r in prog.rules] == ["r1", "r2", "r3"]
    assert prog.facts[0].as_tuple() == ("a", "b", 1)


def test_unlabelled_rules_get_sequential_ids():
    prog = P.parse_program("p(X) :- q(X).\np(X) :- r(X).\nq(a). r(b).")
    assert [r.id for r in prog.rules] == ["r1", "r2"]


def test_primed_labels_parse():
    prog = P.parse_program("r2': path(Y) :- path(X), arc(X,Y).\npath(a). arc(a,b).")
    assert prog.rules[0].id == "r2'"


def test_comments_and_whitespace():
    prog = P.parse_program("% shortest paths\np(X) :- q(X).  % tail comment\nq(a).")
    assert len(prog.rules) == 1


def test_negative_int_constants():
    facts = P.parse_facts("w(a,-3).")
    assert facts[0].as_tuple() == ("a", -3)


def test_arity_conflict():
    with pytest.raises(ArityConflict):
        P.parse_program("p(X) :- q(X).\nq(a). q(a,b).")


def test_unsafe_head_variable():
    with pytest.raises(SafetyError):
        P.parse_program("p(X,Y) :- q(X).\nq(a).")


def test_unsafe_comparison_variable():
    with pytest.raises(SafetyError):
        P.parse_program("p(X) :- q(X), Z>3.\nq(a).")


def test_negation_needs_bound_variables():
    with pytest.raises(SafetyError):
        P.parse_program("p(X) :- q(X), not r(Y).\nq(a). r(b).")


def test_negation_parses_when_bound():
    prog = P.parse_program("p(X) :- q(X), not r(X).\nq(a). r(b).")
    from premlog.model import Negated

    assert isinstance(prog.rules[0].body[1], Negated)


def test_malformed_aggregate():
    with pytest.raises(MalformedAggregate):
        P.parse_program("p(X) :- q(X,D), is_min((X),(D),N).\nq(a,1).")
    with pytest.raises(MalformedAggregate):
        P.parse_program("p(X) :- q(X,D), is_min((X),(D,X)).\nq(a,1).")


def test_missing_result_variable():
    from premlog.errors import MissingResult

    with pytest.raises(MissingResult):
        P.parse_program("p(X) :- q(X), mcount((X),(X)).\nq(a).")


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        P.parse_program("p(X) :- q(X.\nq(a).")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "text, col",
    [("p(\u00b2).", 3), ("q(X) :- p(X), X > \u00b2.", 19)],
    ids=["fact", "comparison"],
)
def test_superscript_digit_is_an_unexpected_character(text, col):
    # str.isdigit accepts it but int() does not: the lexer reads decimals only
    with pytest.raises(ParseError) as err:
        P.parse_program(text)
    assert str(err.value) == f"line 1, col {col}: unexpected character '\u00b2'"


# ===== normalization ==========================================================


def test_min_annotation_on_recursive_pred_becomes_head_extremum():
    prog = P.parse_program(
        "r1: p(Y,min<D>) :- e(a,Y,D).\n"
        "r2: p(Y,min<D>) :- p(X,Dx), e(X,Y,D1), D=Dx+D1.\n"
        "e(a,b,1)."
    )
    for r in prog.rules:
        assert r.extremum == HeadExtremum("min", monotonic=False, cost=1)
    assert prog.final_constraints == ()


def test_min_annotation_on_flat_rule_becomes_final_constraint():
    prog = P.parse_program("r1: best(Y,min<D>) :- e(X,Y,D).\ne(a,b,1).")
    (rule,) = prog.rules
    assert rule.extremum is None
    assert isinstance(rule.body[-1], AggregateGoal)
    (fc,) = prog.final_constraints
    assert isinstance(fc.constraint, Extremum)
    assert fc.constraint.predicate == "e"


def test_mmin_is_always_monotonic_head_extremum():
    prog = P.parse_program("r1: p(Y,mmax<D>) :- e(Y,D).\ne(a,1).")
    assert prog.rules[0].extremum == HeadExtremum("max", monotonic=True, cost=1)


def test_mixed_annotations_on_one_predicate_rejected_at_run():
    prog = P.parse_program(
        "r1: p(Y,min<D>) :- e(Y,D).\n"
        "r2: p(Y,max<D>) :- p(Y,Dx), e(Y,D), D=Dx+1.\n"
        "e(a,1)."
    )
    with pytest.raises(P.PremlogError):
        P.run_program(prog, push=False)


def test_int_up2_rules_move_to_support():
    prog = P.parse_program(
        "int_up2(0,K) :- K>=0.\n"
        "int_up2(J1,K) :- int_up2(J,K), J<K, J1=J+1.\n"
        "r1: p(X) :- q(X).\nq(a)."
    )
    assert [r.id for r in prog.rules] == ["r1"]
    assert [r.head.predicate for r in prog.support_rules] == ["int_up2", "int_up2"]


def test_final_constraint_extraction_bound():
    prog = P.parse_program(BOUNDED_PATH)
    (fc,) = prog.final_constraints
    assert fc.rule_id == "r3"
    assert fc.constraint == Bound("upper", "path", 1, "<", 143)


def test_final_constraint_extraction_extremum_groups():
    prog = P.parse_program(PARTY_GATED)
    (fc,) = prog.final_constraints
    assert fc.constraint == Extremum("max", "cntfriends", (0,), 1)


def test_final_constraint_bound_then_extremum_conjunction():
    prog = P.parse_program(
        "r1: path(Y,Dy) :- arc(a,Y,Dy).\n"
        "r2: path(Y,Dy) :- path(X,Dx), arc(X,Y,Dxy), Dy=Dx+Dxy.\n"
        "r3: spath(Y,Dy) :- path(Y,Dy), Dy<143, is_min((Y),(Dy)).\n"
        "arc(a,b,1)."
    )
    (fc,) = prog.final_constraints
    assert isinstance(fc.constraint, Conjunction)
    kinds = [type(c).__name__ for c in fc.constraint.parts]
    assert kinds == ["Bound", "Extremum"]


def test_c1_final_constraint_has_empty_group():
    prog = P.parse_program(CAPPED_MAX)
    (fc,) = prog.final_constraints
    assert fc.constraint == Extremum("max", "p", (), 0)


def test_every_fixture_parses():
    from conftest import SPATH_STRATIFIED, SPATH_PRECONSTRAINED, SPATH_MONOTONIC, PARTY_UNGATED, MUTUAL_COUNT, SHORTEST_PATH, PARTY_COUNT, PART_EXPLOSION_NOGUARD

    for text in (BOUNDED_PATH, SHORTEST_PATH, SPATH_STRATIFIED, SPATH_PRECONSTRAINED, SPATH_MONOTONIC, PARTY_GATED, PARTY_COUNT, PART_EXPLOSION,
                 PART_EXPLOSION_NOGUARD, CAPPED_MAX, PARTY_UNGATED, MUTUAL_COUNT):
        P.parse_program(text)


# ===== formatting =============================================================


def test_format_parse_round_trip_is_stable():
    for text in (BOUNDED_PATH, PARTY_GATED, PART_EXPLOSION, CAPPED_MAX):
        p1 = P.parse_program(text)
        f1 = P.format_program(p1)
        p2 = P.parse_program(f1)
        assert P.format_program(p2) == f1
        assert p2.rules == p1.rules


# ===== fact loaders ===========================================================


def test_load_edge_list_tsv(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("# src\tdst\tlen\na\tb\t3\nb\tc\t4\n")
    arcs = load_edge_list(str(f))
    assert [a.as_tuple() for a in arcs] == [("a", "b", 3), ("b", "c", 4)]
    assert all(a.predicate == "arc" for a in arcs)


def test_load_edge_list_csv(tmp_path):
    f = tmp_path / "g.csv"
    f.write_text("# src,dst,length\n1,2,9\n3,4\n")
    arcs = load_edge_list(str(f))
    assert [a.as_tuple() for a in arcs] == [(1, 2, 9), (3, 4, 1)]


def test_load_edge_list_rejects_bad_row(tmp_path):
    from premlog.errors import LoadError

    f = tmp_path / "g.tsv"
    f.write_text("a\tb\tlots\n")
    with pytest.raises(LoadError):
        load_edge_list(str(f))


def test_load_facts_path_dispatches_on_extension(tmp_path):
    from premlog.parser import load_facts_path

    f = tmp_path / "g.dl"
    f.write_text("arc(a,b,1). arc(b,c,2).")
    assert len(load_facts_path(str(f))) == 2
    g = tmp_path / "g.tsv"
    g.write_text("a\tb\t1\n")
    assert load_facts_path(str(g))[0].predicate == "arc"


def test_load_edge_list_integer_fields_are_what_int_accepts(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("-3\t+4\t5\n007\t1_000\t2\nn17\tn18\n1x\t-\t3\n+a\t_1\t4\n")
    assert [a.as_tuple() for a in load_edge_list(str(f))] == [
        (-3, 4, 5),
        (7, 1000, 2),
        ("n17", "n18", 1),
        ("1x", "-", 3),
        ("+a", "_1", 4),
    ]


def test_load_edge_list_csv_with_spaces(tmp_path):
    f = tmp_path / "g.csv"
    f.write_text("a , b , 3\n 1,2 , 4\n\n n17 ,-3\n")
    assert [a.as_tuple() for a in load_edge_list(str(f))] == [
        ("a", "b", 3),
        (1, 2, 4),
        ("n17", -3, 1),
    ]


# ===== the line fact reader ===================================================


def _facts_or_error(parse, text):
    try:
        return list(parse(text))
    except Exception as exc:  # the two readers must fail alike, whatever the error
        return (type(exc), str(exc))


def _program_facts(text):
    return P.parse_program(text).facts


def test_fact_lines_read_plain_facts():
    text = "arc(a,b,-3).\n  arc( n1 , 007 ,5) . \r\n\n\tq.\nw(x'y,aB_1,-0).\n"
    facts = _read_fact_lines(text)
    assert facts == [
        Fact("arc", ("a", "b", -3)),
        Fact("arc", ("n1", 7, 5)),
        Fact("q", ()),
        Fact("w", ("x'y", "aB_1", 0)),
    ]
    assert facts == list(_program_facts(text))
    assert P.parse_facts(text) == facts


@pytest.mark.parametrize(
    "text",
    [
        "% arcs\narc(a,b,1).",  # a comment
        "arc(a,b,1). arc(b,c,2).",  # two facts on one line
        "arc(a,b,1).\narc(b,c,2). % tail",
        "r1: arc(a,b,1).",  # a label
        "arc(X,b,1).",  # a variable
        "arc(_,b,1).",
        "arc(a,b,- 5).",  # a sign apart from its digits
        "arc(a,b,+5).",
        "arc(é,b,1).",  # non-ASCII text
        "arc(a,b,\u0663).",
        "arc(a,b,1).\x0c",
        "arc(a,b,1).\narc(a,b).",  # two arities
        "int_up2(1,2,3).",
        "p().",
        "arc(a,b,1)",
        "arc(a,\nb,1).",
    ],
)
def test_fact_lines_fall_back_to_the_program_parser(text):
    assert _read_fact_lines(text) is None
    assert _facts_or_error(P.parse_facts, text) == _facts_or_error(_program_facts, text)


def test_fact_lines_keep_error_positions():
    with pytest.raises(ArityConflict, match="arc used with arity 2, earlier 3"):
        P.parse_facts("arc(a,b,1).\narc(a,b).\n")
    with pytest.raises(ParseError, match="line 2, col 9: expected a term"):
        P.parse_facts("arc(a,b,1).\narc(a,b,,1).\n")
    with pytest.raises(ParseError, match="line 3, col 1: unexpected character"):
        P.parse_facts("arc(a,b,1).\n\n\x0c\n")
    with pytest.raises(ParseError, match="facts input contains rules"):
        P.parse_facts("p(X) :- q(X).\nq(a).\n")


_NAMES = ["p", "arc", "aB", "q'", "int_up2", "P", "_x", "\u00e9t", "not", "min"]
_ARGS = ["a", "n17", "b'", "0", "-3", "- 5", "007", "+4", "1_000", "X", "_", "\u00e4", "\u0663", "12ab", "-"]
_JUNK = ["%", "% c", "\r", "\x0c", " ", "\t", "r1: ", ",", ".", "(", ")", "-", "'"]


@st.composite
def _fact_text(draw):
    # Half the picks come from the first, plain entries, so whole texts of
    # plain facts (the fast path) are common.
    name = draw(st.one_of(st.sampled_from(_NAMES[:4]), st.sampled_from(_NAMES)))
    args = draw(st.lists(st.one_of(st.sampled_from(_ARGS[:6]), st.sampled_from(_ARGS)), max_size=3))
    pad = draw(st.sampled_from(["", " ", "\t", "\r"]))
    body = f"({pad}{(',' + pad).join(args)})" if args else ""
    return f"{name}{body}{pad}."


_LINE = st.one_of(
    _fact_text(),
    _fact_text(),
    st.lists(st.one_of(_fact_text(), st.sampled_from(_JUNK)), max_size=3).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LINE, max_size=6).map("\n".join))
def test_fact_reader_agrees_with_the_program_parser(text):
    assert _facts_or_error(P.parse_facts, text) == _facts_or_error(_program_facts, text)


def test_format_program_prints_facts_as_parsed():
    text = "q.\narc(a,-3,007).\nr1: p(X) :- q, arc(X,Y,Z).\n"
    program = P.parse_program(text)
    assert P.format_program(program) == "q.\narc(a,-3,7).\nr1: p(X) :- q, arc(X,Y,Z).\n"
    assert P.format_program(program.with_facts(P.parse_facts("q.\nw(b,-1).\n"))).startswith(
        "q.\narc(a,-3,7).\nq.\nw(b,-1).\n"
    )
