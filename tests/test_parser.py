"""Grammar, normalization, safety checks, fact loaders."""
from __future__ import annotations

import re
import sys
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import premlog as P
from premlog.errors import ArityConflict, MalformedAggregate, MissingResult, ParseError, SafetyError
from premlog.model import (
    AggregateGoal, ArithExpr, Bound, Comparison, Conjunction, Constant, Extremum, Fact, HeadExtremum, Variable
)
from premlog import parser
from premlog.parser import read_edge_list

from conftest import (
    CAPPED_MAX, BOUNDED_PATH, PARTY_GATED, PART_EXPLOSION, fact_arities, load_edge_list_by_line
)


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
    assert P.parse_program("w(a,-3).").runs == (("w", (("a", -3),)),)


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


@pytest.mark.parametrize(
    "rule, message",
    [
        ("p(X,Y) :- q(X).", "variable Y in head is not bound"),
        ("p(X) :- q(X), Z>3.", "variable Z in comparison is not bound"),
        ("p(X) :- q(X), not r(Y).", "variable Y in negation is not bound"),
        ("p(X) :- q(X), Y = Z + 1, Y > 2.", "variable Z in comparison is not bound"),
        ("p(G,C) :- q(G), count((G,H),(G),C).", "variable H in aggregate group is not bound"),
        ("p(G,C) :- q(G), count((G),(Y),C).", "variable Y in aggregate input is not bound"),
        ("p(G,Y,C) :- q(G,Y), count((G),(Y),C), Y > C.", "head variables ['Y'] not covered by the count group"),
        ("p(G,Z) :- q(G,D,Z), is_min((G),(D)).", "head variables ['Z'] not covered by the is_min group"),
        ("p(G,C) :- q(G,Y), count((G),(Y),C), Y > C, X < 2.", "variable X in comparison is not bound"),
        # Parsed once, then refused by the engine: a goal that can never run.
        ("p(X) :- q(X), int_up2(K,J).", "variable K in int_up2 is not bound"),
        ("p(G,C) :- q(G,Y), count((G),(Y),C), D = C + 1.", "variable D in comparison is not bound"),
        (
            "p(G,C) :- q(G,Y), count((G),(Y),C), int_up2(C,J).",
            "variable C in int_up2 is not bound: only a comparison may read the count result",
        ),
    ],
)
def test_safety_errors_name_the_rule_and_the_variable(rule, message):
    with pytest.raises(SafetyError) as err:
        P.parse_program("r1: " + rule)
    assert str(err.value) == f"line 1: rule r1: {message}"


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


_AGG = "p(X,N) :- q(X,D), "


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("r1:", ParseError, "line 1, col 4: expected 'ident', found 'eof'"),
        ("p(a).\np(X) :- q(X)", ParseError, "line 2, col 13: expected '.', found 'eof'"),
        ("p(X,min<3>) :- q(X).", ParseError, "line 1, col 9: expected 'var', found '3'"),
        ("p(X,min<X) :- q(X).", ParseError, "line 1, col 10: expected '>', found ')'"),
        ("p(a b).", ParseError, "line 1, col 5: expected ')', found 'b'"),
        (_AGG + "is_min((a),(D)).", ParseError, "line 1, col 27: expected 'var', found 'a'"),
        (_AGG + "is_min((X,a),(D)).", ParseError, "line 1, col 29: expected 'var', found 'a'"),
        (_AGG + "is_min((X D),(D)).", ParseError, "line 1, col 29: expected ')', found 'D'"),
        (_AGG + "is_min((X)(D)).", ParseError, "line 1, col 29: expected ',', found '('"),
        (_AGG + "is_min((X),D).", ParseError, "line 1, col 30: expected '(', found 'D'"),
        (_AGG + "is_min((X),(D X)).", ParseError, "line 1, col 33: expected ')', found 'X'"),
        (_AGG + "count((X),(D),a).", ParseError, "line 1, col 33: expected 'var', found 'a'"),
        (_AGG + "count((X),(D),N N).", ParseError, "line 1, col 35: expected ')', found 'N'"),
        (_AGG + "is_min((X),()).", MalformedAggregate, "line 1, col 19: is_min needs at least one measured variable"),
        (_AGG + "is_min((X),(D),N).", MalformedAggregate, "line 1, col 19: is_min takes no result variable"),
        (_AGG + "is_min((X),(D,X)).", MalformedAggregate, "line 1, col 19: is_min measures a single variable"),
        (_AGG + "count((X),(D)).", MissingResult, "line 1, col 19: count needs a result variable"),
        ("p(X) :- q(X), X <> a.", ParseError, "line 1, col 18: expected a term"),
        ("p(X) :- q(X), X =< 3.", ParseError, "line 1, col 18: expected a term"),
        ("p(X) :- q(X), X = 3 +.", ParseError, "line 1, col 22: expected a term"),
        ("p(X) :- q(X), X + 1.", ParseError, "line 1, col 20: expected a comparison operator"),
        ("p(X) :- q(X), X > (3 .", ParseError, "line 1, col 22: expected ')', found '.'"),
        ("p(X) :- q(X),\u00a0X > 3.", ParseError, "line 1, col 14: unexpected character '\\xa0'"),
        ("p(\u2160).", ParseError, "line 1, col 3: unexpected character '\u2160'"),
        ("p(a).\nq(X) :- p(X), X > \u2160.", ParseError, "line 2, col 19: unexpected character '\u2160'"),
        ("p(X,,Y).", ParseError, "line 1, col 5: expected a term"),
    ],
)
def test_parse_errors_keep_their_message_line_and_column(text, error, message):
    with pytest.raises(error) as err:
        P.parse_program(text)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize(
    "text, right",
    [("-(3)", Constant(-3)), ("-X", ArithExpr("-", Constant(0), Variable("X")))],
)
def test_unary_minus_negates_a_constant_and_subtracts_anything_else_from_zero(text, right):
    (rule,) = P.parse_program(f"p(X) :- q(X), X > {text}.").rules
    assert rule.body[1] == Comparison(">", Variable("X"), right)


_PUNCT_TEXTS = (*parser._PUNCT_TWO, *parser._PUNCT_ONE)
# Characters no token takes: a lone "!" or "'", and non-ASCII text that is
# not alphanumeric or that isalnum() accepts but isalpha() and isdecimal() do not.
_UNEXPECTED = "!'²Ⅰ\xa0"
# ASCII letters and digits, every punctuation text, blanks, a comment, and
# characters at the edges of what isalpha(), isalnum() and isdecimal() accept.
_MIXED = [*"azAZ09_", *_PUNCT_TEXTS, "!", " ", "\t", "\r", "\n", "%", "'", "²", "٣", "Ⅰ", "é", "\xa0", "p(a).\n"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_MIXED), max_size=30).map("".join))
def test_tokens_of_punctuation_text_are_punctuation(text):
    # The parser tells punctuation by its value alone, and eof by its empty value.
    try:
        tokens = parser.tokenize(text)
    except ParseError as exc:
        line, col, shown = re.fullmatch(r"line (\d+), col (\d+): unexpected character (.*)", str(exc)).groups()
        char = text.split("\n")[int(line) - 1][int(col) - 1]
        assert shown == repr(char) and char in _UNEXPECTED
        return
    for kind, value, _, _ in tokens:
        if kind != "facts":
            assert (kind == "punct") == (value in _PUNCT_TEXTS)
            assert (kind == "eof") == (value == "")
    assert [kind for kind, *_ in tokens].count("eof") == 1


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("x²", [("ident", "x²", 1, 1)]),  # isalnum() accepts ² after a letter
        ("p(٣)", [("ident", "p", 1, 1), ("punct", "(", 1, 2), ("int", "٣", 1, 3), ("punct", ")", 1, 4)]),
    ],
)
def test_tokenizer_edges(text, tokens):
    assert parser.tokenize(text) == [*tokens, ("eof", "", 1, len(text) + 1)]


def test_edges_parse_as_the_tokenizer_reads_them():
    assert P.parse_program("p(٣).").runs == (("p", ((3,),)),)
    with pytest.raises(ParseError) as err:  # isupper() but not isalpha()
        parser.tokenize("p(a, Ⅰ)")
    assert str(err.value) == "line 1, col 6: unexpected character 'Ⅰ'"


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


def test_read_edge_list_tsv(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("# src\tdst\tlen\na\tb\t3\nb\tc\t4\n")
    arcs = (("a", "b", 3), ("b", "c", 4))
    assert read_edge_list(str(f)) == arcs
    assert parser.read_facts_path(str(f)) == (("arc", arcs),)


def test_read_edge_list_csv(tmp_path):
    f = tmp_path / "g.csv"
    f.write_text("# src,dst,length\n1,2,9\n3,4\n")
    assert read_edge_list(str(f)) == ((1, 2, 9), (3, 4, 1))


def test_read_edge_list_splits_by_extension(tmp_path):
    # .csv on commas, any other extension on whitespace.
    for name, rows in [("g.CSV", (("a b", "c", 1),)), ("g.txt", (("a", "b", 1), ("c,d", "e", 2)))]:
        f = tmp_path / name
        f.write_text("a b,c\n" if name == "g.CSV" else "a b\nc,d e 2\n")
        assert read_edge_list(str(f)) == rows


def test_read_edge_list_rejects_bad_row(tmp_path):
    from premlog.errors import LoadError

    f = tmp_path / "g.tsv"
    f.write_text("a\tb\tlots\n")
    with pytest.raises(LoadError):
        read_edge_list(str(f))


def test_load_facts_path_dispatches_on_extension(tmp_path):
    from premlog.parser import load_facts_path

    f = tmp_path / "g.dl"
    f.write_text("arc(a,b,1). arc(b,c,2).")
    assert len(load_facts_path(str(f))) == 2
    g = tmp_path / "g.tsv"
    g.write_text("a\tb\t1\n")
    assert load_facts_path(str(g))[0].predicate == "arc"


@pytest.mark.parametrize(
    "name, text",
    [
        ("g.dl", "arc(a,b,1). arc(b,c,2).\nnode(a).\n"),
        ("g.dl", "".join(f"e(n{i},n{i + 1}).\n" for i in range(40)) + "p.\nq(1,2). q(3,4).\n"),
        ("g.dl", "% nothing\n"),
        ("g.tsv", "a\tb\t1\nb\tc\n"),
        ("g.csv", "# only a comment\n"),
    ],
    ids=["dl", "dl-runs-and-tokens", "dl-empty", "tsv", "csv-empty"],
)
def test_read_facts_path_runs_give_the_arities_of_their_facts(tmp_path, name, text):
    f = tmp_path / name
    f.write_text(text)
    runs = parser.read_facts_path(str(f))
    facts = parser.load_facts_path(str(f))
    assert list(P.model.run_facts(runs)) == facts
    assert runs == P.Program(()).with_facts(facts).runs
    arities = P.Program((), runs).arities()
    assert list(arities.items()) == list(fact_arities(facts).items())


def test_read_edge_list_integer_fields_are_what_int_accepts(tmp_path):
    f = tmp_path / "g.tsv"
    f.write_text("-3\t+4\t5\n007\t1_000\t2\nn17\tn18\n1x\t-\t3\n+a\t_1\t4\n")
    assert list(read_edge_list(str(f))) == [
        (-3, 4, 5),
        (7, 1000, 2),
        ("n17", "n18", 1),
        ("1x", "-", 3),
        ("+a", "_1", 4),
    ]


def test_read_edge_list_csv_with_spaces(tmp_path):
    f = tmp_path / "g.csv"
    f.write_text("a , b , 3\n 1,2 , 4\n\n n17 ,-3\n")
    assert list(read_edge_list(str(f))) == [
        ("a", "b", 3),
        (1, 2, 4),
        ("n17", -3, 1),
    ]


_FIELDS = ["a", "n17", "1", "01", "-3", "+4", "1_000", "\u0663", "1x", "-", "#c", "", "1" * 4301, "2" * 4300]
_SEPARATORS = {"tsv": ["\t", " ", "\t\x0b", "\x85", "\u2028"], "csv": [",", " , ", ",\t", ",\x0c"]}


@st.composite
def _edge_list(draw, fmt):
    # Lines from a few fields, so repeats are common; the line ends mix.
    sep = st.sampled_from(_SEPARATORS[fmt])
    field = st.one_of(st.sampled_from(_FIELDS[:4]), st.sampled_from(_FIELDS))
    row = st.lists(st.tuples(field, sep), min_size=1, max_size=4).map(
        lambda parts: "".join(f + s for f, s in parts)[: -len(parts[-1][1]) or None]
    )
    line = st.one_of(row, row, row, st.sampled_from(["", " ", "# a comment", " #x\t1\t2"]))
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    lines = draw(st.lists(st.tuples(line, ends), max_size=8))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return bom + "".join(text + end for text, end in lines)


def _load_outcome(load, path):
    try:
        return list(load(path))
    except Exception as exc:  # both readers must fail alike, whatever the error
        return (type(exc), str(exc), getattr(exc, "line", None))


@pytest.mark.parametrize("fmt", ["tsv", "csv"])
def test_read_edge_list_agrees_with_the_line_reader(fmt, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("edges") / f"g.{fmt}")

    @settings(max_examples=300, deadline=None)
    @given(_edge_list(fmt))
    def agree(text):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        expected = _load_outcome(load_edge_list_by_line, path)
        assert _load_outcome(read_edge_list, path) == expected
        if isinstance(expected, list):
            assert all(type(row) is tuple for row in read_edge_list(path))

    agree()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a\tb\t1\r\nc\td\r\n\r\n# c\ra\tb\t1\n", [("a", "b", 1), ("c", "d", 1)]),
        ("a b 1\na b 01\n1 2\n01 2\n", [("a", "b", 1), (1, 2, 1), (1, 2, 1)]),
        ("a\tb\t1\na\tb\tc\td\n", "line 2: expected 2 or 3 fields, found 4"),
        ("a\n" + "1" * 4301 + "\tb\n", "line 1: expected 2 or 3 fields, found 1"),
        ("a\tb\tx\n" + "1" * 4301 + "\tb\n", "line 1: length 'x' is not an integer"),
        ("a\tb\t1\n" + "1" * 4301 + "\tb\tx\n", "line 2: length 'x' is not an integer"),
        ("a\t" + "1" * 4301 + "\t2\na\tb\tc\td\n", "line 1: integer literal of 4301 digits"),
    ],
)
def test_read_edge_list_line_ends_repeats_and_first_error(tmp_path, text, expected):
    f = tmp_path / "g.tsv"
    f.write_bytes(text.encode("utf-8"))
    if isinstance(expected, list):
        assert list(read_edge_list(str(f))) == expected
    else:
        with pytest.raises(P.LoadError, match="^" + expected):
            read_edge_list(str(f))
    assert _load_outcome(read_edge_list, str(f)) == _load_outcome(load_edge_list_by_line, str(f))


# ===== the line fact reader ===================================================


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # both readings must fail alike, whatever the error
        return (type(exc), str(exc))


def _tokenized(text):
    """`text` with a comment closing every line: no line is then a plain fact
    line, so all of it goes through the tokenizer, which drops the comments.
    On a text that ends in a newline every error keeps its line and column."""
    return text.replace("\n", " %\n")


def _count_tokens(monkeypatch):
    """A list that gathers the tokens of every text parser.tokenize reads."""
    built = []
    real = parser.tokenize

    def recording(text):
        tokens = real(text)
        built.extend(tokens)
        return tokens

    monkeypatch.setattr(parser, "tokenize", recording)
    return built


def test_fact_lines_read_plain_facts(monkeypatch):
    text = "arc(a,b,-3).\n  arc( n1 , 007 ,5) . \r\n\n\tq.\nw(x'y,aB_1,-0).\n"
    built = _count_tokens(monkeypatch)
    runs = parser._parse_facts(text)
    assert runs == (
        ("arc", (("a", "b", -3), ("n1", 7, 5))),
        ("q", ((),)),
        ("w", (("x'y", "aB_1", 0),)),
    )
    assert {kind for kind, *_ in built} == {"facts", "eof"}  # a blank line ends a run
    assert runs == P.parse_program(_tokenized(text)).runs


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
    # Texts that are not all plain facts: whatever the line reader takes of
    # them reads as the tokenizer reads it, up to each error's position.
    text += "\n"
    expected = _outcome(P.parse_program, _tokenized(text))
    assert _outcome(P.parse_program, text) == expected
    runs = _outcome(parser._parse_facts, text)
    assert runs == (expected.runs if isinstance(expected, P.Program) else expected)


def test_fact_lines_keep_error_positions():
    with pytest.raises(ArityConflict, match="arc used with arity 2, earlier 3"):
        parser._parse_facts("arc(a,b,1).\narc(a,b).\n")
    with pytest.raises(ParseError, match="line 2, col 9: expected a term"):
        parser._parse_facts("arc(a,b,1).\narc(a,b,,1).\n")
    with pytest.raises(ParseError, match="line 3, col 1: unexpected character"):
        parser._parse_facts("arc(a,b,1).\n\n\x0c\n")
    with pytest.raises(ParseError, match="facts input contains rules"):
        parser._parse_facts("p(X) :- q(X).\nq(a).\n")
    with pytest.raises(ArityConflict, match="^int_up2 has arity 2$"):
        parser._parse_facts("p(a).\nint_up2(1,2,3).\n")
    with pytest.raises(ArityConflict, match="^line 4: q used with arity 1, earlier 2$"):
        P.parse_program("p(a).\nr(X) :- q(X,Y).\np(b).\nq(a).\n")


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


_RULE_LINE = st.sampled_from(
    [
        "r(X) :- arc(X,Y,Z).",
        "r1: q(X) :- p(X), X>0.",
        "s(Y,min<D>) :- arc(a,Y,D).",
        "p(X) :-",
        " arc(X,b,1).",
        "r2:",
        "t(X) :- q(X). u(a).",
    ]
)


def _lines_text(lines):
    return "".join(line + "\n" for line in lines)


@settings(max_examples=400, deadline=None)
@given(st.lists(_LINE, max_size=6).map(_lines_text))
def test_fact_reader_agrees_with_the_program_parser(text):
    assert _outcome(parser._parse_facts, text) == _outcome(parser._parse_facts, _tokenized(text))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(_LINE, _RULE_LINE), max_size=8).map(_lines_text))
def test_program_parse_agrees_with_the_tokenizer_alone(text):
    assert _outcome(P.parse_program, text) == _outcome(P.parse_program, _tokenized(text))


_ARCS = "arc(a,b,1).\n arc( b , c ,2).\narc(c,d,-3).\n"
_NODES = "n(a).\nn(b).\nn(c).\n"


_RUN_TEXTS = [
    "p(a) :-\n q(b).\n",  # a continuation line that looks like a fact
    "r1:\np(a).\n",
    "p(a). q(b).\nr(c).\n",
    "p(a).\r\nq(X) :- p(X).\r\nr(c).\r\n",
    "p(a).\nq(b).\nr(X) :- p(X).\np(c).\nq(d).\n",  # a fact run broken and resumed
    "p(a).\nr(X) :- p(X).\np(a,b).\n",  # an arity conflict across the break
    "p(a).\np(a,b).\nq(X) :- p(X,.\n",  # a syntax error after an arity conflict
    "p(a).\np(a,b).\nq(X).\n",  # a fact check after an arity conflict
    "q(a,b).\np(a).\np(a,b).\nq(c).\n",
    "p(a).\n% c\n\np(b).\nint_up2(1,2,3).\n",
    # runs read in chunks of one arity (three or more lines alike)
    _ARCS + _NODES + _ARCS + "e(a,b).\ne(b,c).\ne(c,d).\n" + _NODES,  # arity switches
    _ARCS + "p.\n" + _ARCS + "q .\np.\n" + _NODES,  # `p.` lines inside a run
    "p.\np.\np.\nq(a).\nq(b).\nq(c).\nr(X) :- q(X), p.\n",
    _ARCS + _NODES + "arc(a,b).\narc(c,d).\narc(e,f).\n" + _ARCS,  # an arity conflict in a run
    _NODES + "arc(a,b).\nn(d,e).\narc(c,d).\n",  # ... inside one chunk
    "arc(a,b,1).\nr(X) :- arc(X,Y,Z).\n" + _NODES + "arc(b,c).\narc(c,d).\narc(d,e).\n",
    _ARCS + "arc(a,b," + "7" * 641 + ").\n" + _ARCS,  # a 641-digit argument
    "arc(a,b,1).\narc(b,c,-" + "7" * 641 + ").\narc(c,d,2).\narc(d,e,3).\n",
    "arc(a,b," + "7" * 640 + ").\narc(b,c,-" + "7" * 640 + ").\narc(c,d,1).\n",
    _ARCS + "arc(b,c," + "7" * 5000 + ").\n",  # more digits than int() converts
    "w(a,b,c,d,e,f,g,h,i).\nw(a,b,c,d,e,f,g,h,j).\nw(a,b,c,d,e,f,g,h,1).\n",  # nine arguments
]


def _lines_of(count, make):
    return "".join(make(k) + "\n" for k in range(count))


def _arc(k):
    return f"arc(n{k},n{k + 1},{k % 7 - 3})."


def _node(k):
    return f"n(m{k})."


# Where a run's first seven chunks end: each joins twice the lines of the one
# before, at most parser._CHUNK_LINES, so a longer run crosses several.
_BOUNDARIES = list(accumulate(min(parser._FIRST_CHUNK_LINES << k, parser._CHUNK_LINES) for k in range(7)))
_LONG = _BOUNDARIES[-1] + 40
_PADS = [" ", "\t", "\r", " \t\r ", ""]
_640 = "7" * 640


def _padded(k):
    a, b, c, d = (_PADS[(k + j) % len(_PADS)] for j in range(4))
    return f"{a}arc{b}({c}n{k}{d},{a}-{k}{b},{c}x'{k % 3}{d}){a}.{b}"


_CHUNK_TEXTS = [
    # a predicate change on each side of every boundary, in one run of one
    # arity: on a chunk's last line, and on the next chunk's first
    *(_lines_of(_LONG, lambda k, d=d: _arc(k).replace("arc", "e" if k + d in _BOUNDARIES else "arc")) for d in (1, 0)),
    _lines_of(_LONG, lambda k: _arc(k).replace("arc", "e" if k % 2 else "arc")),
    # blanks, tabs and \r around every (, `,`, ) and ., and \r\n line ends
    _lines_of(60, _padded),
    _lines_of(60, _padded).replace("\n", "\r\n"),
    _lines_of(30, lambda k: _padded(k).replace("x'", "X")),  # a variable: not ground
    # a last line with no newline, inside a chunk and as a chunk's last line
    _lines_of(11, _arc)[:-1],
    *(_lines_of(b, _arc)[:-1] for b in _BOUNDARIES[:2]),
    _lines_of(_BOUNDARIES[0] + 1, _arc)[:-1].replace("\n", "\r\n"),
    # lines the chunk pattern refuses, in the middle of a chunk
    *(
        _lines_of(before, _arc) + line + "\n" + _lines_of(40, _arc)
        for before in (4, _BOUNDARIES[0] + 5)
        for line in ["arc(a,B,1).", "arc(a,b,- 5).", "arc(a,b," + "7" * 641 + ").", "arc(a,b,-" + "7" * 641 + ")."]
    ),
    # a 640-digit integer on a chunk's last line, and a negative one on the next
    *(_lines_of(last, _arc) + f"arc(a,b,{_640}).\narc(b,c,-{_640}).\n" + _lines_of(30, _arc) for last in (_BOUNDARIES[0] - 1, _BOUNDARIES[1] - 1)),
    # the arity change on each side of a boundary: on a chunk's last line, and
    # on the first line after whole chunks, which the next chunk does not take
    *(_lines_of(b + d, _arc) + _lines_of(3, _node) + _lines_of(300, _arc) for b in _BOUNDARIES[:6] for d in (-1, 0)),
    *(_lines_of(b + d, _arc) + "arc(a,b).\n" + _lines_of(20, _arc) for b in _BOUNDARIES[:5:2] for d in (-1, 0)),
    _lines_of(_BOUNDARIES[0], _arc) + "p.\n" + _lines_of(30, _arc),
    _lines_of(_BOUNDARIES[1], _arc) + "r(X) :- arc(X,Y,Z).\n" + _lines_of(30, _arc),
]


@pytest.mark.parametrize("text", [*_RUN_TEXTS, *(pytest.param(t, id=f"chunks{i}") for i, t in enumerate(_CHUNK_TEXTS))])
def test_program_parse_agrees_with_the_tokenizer_alone_on(text):
    assert _outcome(P.parse_program, text) == _outcome(P.parse_program, _tokenized(text))


_RUN_ARGS = ["a", "b'", "0", "-3", "007", " x ", "\t1", "X", "- 5", "7" * 641, "7" * 5000]


def _run_line(name, arity, args, pads):
    a, b, c, d = pads
    return f"{a}{name}{b}" + (f"({c}{(d + ',' + a).join(args[:arity])}{b})" if arity else "") + f"{c}.{d}"


@st.composite
def _fact_run(draw):
    # Lines of one arity, so that they are read in chunks; now and then one
    # of another arity, or an argument the line reader does not take; blanks
    # around the punctuation; and now and then the drawn lines repeated into
    # a run that crosses a chunk boundary.
    arity = draw(st.sampled_from([0, 1, 2, 3, 9]))
    arg = st.one_of(st.sampled_from(_RUN_ARGS[:7]), st.sampled_from(_RUN_ARGS[:7]), st.sampled_from(_RUN_ARGS))
    line = st.builds(
        _run_line,
        st.sampled_from(["p", "q", "arc"]),
        st.one_of(st.just(arity), st.just(arity), st.just(arity), st.sampled_from([0, 1, 2])),
        st.lists(arg, min_size=9, max_size=9),
        st.one_of(st.just([""] * 4), st.lists(st.sampled_from(["", " ", "\t", "\r", " \t\r"]), min_size=4, max_size=4)),
    )
    return draw(st.lists(line, min_size=1, max_size=8)) * draw(st.sampled_from([1, 1, 1, 4, 40]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_fact_run(), _fact_run(), st.lists(_RULE_LINE, max_size=1)), max_size=4))
def test_program_parse_agrees_with_the_tokenizer_alone_on_fact_runs(blocks):
    text = _lines_text(line for block in blocks for line in block)
    assert _outcome(P.parse_program, text) == _outcome(P.parse_program, _tokenized(text))


def test_fact_runs_are_read_in_chunks_of_one_arity(monkeypatch):
    patterns = []
    real = parser._fact_lines_of_arity
    monkeypatch.setattr(parser, "_fact_lines_of_arity", lambda arity: patterns.append(arity) or real(arity))
    program = P.parse_program(_ARCS + "p.\n" + _NODES + "q(a,b).\n" + _ARCS)
    assert patterns == [3, 1, 3]  # the p. and q lines are read alone
    facts = program.facts
    assert [tuple(f) for f in facts[2:6]] == [("arc", ("c", "d", -3)), ("p", ()), ("n", ("a",)), ("n", ("b",))]
    assert all(type(f) is Fact for f in facts)
    with pytest.raises(ArityConflict, match="^line 8: arc used with arity 2, earlier 3$"):
        parser._parse_facts(_ARCS + _NODES + "e(a,b).\narc(c,d).\ne(e,f).\n")
    with pytest.raises(ArityConflict, match="^line 4: n used with arity 0, earlier 1$"):
        parser._parse_facts(_NODES + "n.\n")
    long = "7" * 641
    (_, rows), = parser._parse_facts(f"{_ARCS}arc(b,c,{long}).\n{_ARCS}")
    assert rows[3] == ("b", "c", int(long))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="possessive quantifiers need Python 3.11")
def test_chunk_patterns_take_the_same_lines_in_either_spelling(monkeypatch):
    # Python 3.10 compiles the chunk patterns without possessive quantifiers:
    # from every line start of the reader tests' texts, both spellings take
    # the same lines.
    spelled = {}
    for possessive in ("", "+"):
        monkeypatch.setattr(parser, "_POSSESSIVE", possessive)
        spelled[possessive] = [parser._fact_lines_of_arity.__wrapped__(k) for k in range(1, parser._PATTERN_ARITIES + 1)]
    assert "+" not in spelled[""][2].pattern
    assert "]*+" in spelled["+"][2].pattern and "{1,640}+" in spelled["+"][2].pattern
    for text in _RUN_TEXTS + _CHUNK_TEXTS:
        starts = [0, *(m.end() for m in re.finditer("\n", text))]
        for plain, possessive in zip(spelled[""], spelled["+"]):
            assert [plain.match(text, i).end() for i in starts] == [possessive.match(text, i).end() for i in starts]


def test_plain_fact_lines_build_no_tokens(monkeypatch):
    rules = "r1: path(Y,D) :- arc(a,Y,D).\nr2: path(Y,D) :- path(X,Dx), arc(X,Y,E), D=Dx+E.\n"
    lines = [f"arc(n{i},n{i + 1},{i % 7}).\n" for i in range(100)]
    arcs = "".join(lines)
    built = _count_tokens(monkeypatch)
    P.parse_program(rules)
    rule_tokens = len(built)
    del built[:]
    program = P.parse_program(rules + arcs)
    assert len(program.facts) == 100
    assert len(built) == rule_tokens + 1  # and one 'facts' token
    del built[:]
    (_, rows), = parser._parse_facts("% arcs, one a line\n" + arcs)
    assert len(rows) == 100
    assert [kind for kind, *_ in built] == ["facts", "eof"]
    del built[:]
    runs = parser._parse_facts("".join(lines[:50] + ["p(a). q(b).\n"] + lines[50:]))
    assert [(p, len(rows)) for p, rows in runs] == [("arc", 50), ("p", 1), ("q", 1), ("arc", 50)]
    one_fact = ["ident", "punct", "ident", "punct", "punct"]
    assert [kind for kind, *_ in built] == ["facts", *one_fact, *one_fact, "facts", "eof"]


def test_format_program_prints_facts_as_parsed():
    text = "q.\narc(a,-3,007).\nr1: p(X) :- q, arc(X,Y,Z).\n"
    program = P.parse_program(text)
    assert P.format_program(program) == "q.\narc(a,-3,7).\nr1: p(X) :- q, arc(X,Y,Z).\n"
    assert P.format_program(program.with_runs(parser._parse_facts("q.\nw(b,-1).\n"))).startswith(
        "q.\narc(a,-3,7).\nq.\nw(b,-1).\n"
    )
