"""Formula types, the text grammar, JSON round-trip, evaluation."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridnf import (
    Dataset,
    DnfFormula,
    Instance,
    Label,
    Literal,
    ParseError,
    Term,
    evaluate,
    make_mask,
    parse_formula,
    verify_consistency,
)
from tridnf.formula import term_from_codes
from tridnf.masking import RANDOM, TRUSTWORTHY, _ladder


def test_literal_render():
    assert Literal(False, 2).render() == "x2"
    assert Literal(True, 11).render() == "~x11"
    with pytest.raises(ValueError):
        Literal(False, 0)


def test_term_evaluate_bits():
    term = Term((Literal(False, 1), Literal(True, 3)))
    assert term.pos_mask == 0b001
    assert term.neg_mask == 0b100
    assert term.evaluate(0b001)
    assert term.evaluate(0b011)
    assert not term.evaluate(0b101)
    assert not term.evaluate(0b000)


def test_term_against_uncertain_instance():
    term = Term((Literal(False, 1), Literal(True, 3)))
    sure = Instance.from_cells("1?0", Label.POSITIVE)
    open_ = Instance.from_cells("1??", Label.POSITIVE)
    blocked = Instance.from_cells("1?1", Label.POSITIVE)
    blocked_pos = Instance.from_cells("0?0", Label.POSITIVE)
    assert term.possibly_satisfied_by(sure)
    assert term.possibly_satisfied_by(open_)
    assert not term.possibly_satisfied_by(blocked)
    assert not term.possibly_satisfied_by(blocked_pos)


def test_parse_canonical_round_trip():
    text = "x4 ~x1 | x2"
    f = parse_formula(text)
    assert f.render() == text
    assert f.n == 4
    assert f.vars_used == (1, 2, 4)
    assert f.literal_count == 3


def test_parse_infers_width_from_largest_variable():
    assert parse_formula("x3 | ~x7").n == 7
    # a text formula declares no width of its own
    with pytest.raises(TypeError):
        parse_formula("x3", n=9)


def test_parse_true_false_stand_alone():
    assert parse_formula("FALSE").render() == "FALSE"
    assert parse_formula("TRUE").render() == "TRUE"
    assert parse_formula("TRUE").evaluate(0)
    assert not parse_formula("FALSE").evaluate(0b1111)
    assert parse_formula("TRUE").n == parse_formula("FALSE").n == 0
    with pytest.raises(ParseError):
        parse_formula("x1 | FALSE")


@pytest.mark.parametrize(
    "bad",
    ["", "x0", "~x0", "x01", "y2", "x1 |", "| x1", "x1 || x2", "~~x1", "x2~"],
)
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


def test_json_round_trip():
    f = parse_formula("x4 ~x1 | x2")
    again = DnfFormula.from_json(f.to_json())
    assert again == f
    assert again.render() == "x4 ~x1 | x2"


@pytest.mark.parametrize(
    "doc",
    [
        "[]",
        '{"n": 2}',
        '{"n": "2", "terms": []}',
        '{"n": 2, "terms": [[{"var": 0, "neg": false}]]}',
        '{"n": 2, "terms": [[{"var": 1, "neg": 1}]]}',
        '{"n": 2, "terms": [[{"var": 3, "neg": false}]]}',
        "not json",
    ],
)
def test_json_rejects_malformed_documents(doc):
    with pytest.raises(ParseError):
        DnfFormula.from_json(doc)


@pytest.mark.parametrize("doc, message", [
    ('{"n": 2, "terms": [{"var": 1, "neg": false}]}', "each term must be a list of literals"),
    ('{"n": 2, "terms": [[1]]}', "each literal must be an object"),
])
def test_json_names_the_malformed_part(doc, message):
    with pytest.raises(ParseError) as err:
        DnfFormula.from_json(doc)
    assert str(err.value) == message


def test_json_nesting_depth_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        DnfFormula.from_json('{"n": ' + "[" * 200_000 + "]" * 200_000 + "}")


def test_formula_from_codes_uses_internal_codes():
    # code k-1 is xk, code n+k-1 is ~xk
    f = DnfFormula(3, (term_from_codes(3, [0, 5]), term_from_codes(3, [1])))
    assert f.render() == "x1 ~x3 | x2"


def test_formula_width_validation():
    with pytest.raises(ValueError):
        DnfFormula(2, (Term((Literal(False, 5),)),))
    with pytest.raises(ValueError, match="^variable count cannot be negative$"):
        DnfFormula(-1, ())


# every check of a formula against data, each called as (formula, data)
_CHECKS = {
    "evaluate": evaluate,
    "verify_consistency": verify_consistency,
    "make_mask-random": lambda f, d: make_mask(d, RANDOM, 0.25, 1, f),
    "make_mask-trustworthy": lambda f, d: make_mask(d, TRUSTWORTHY, 0.25, 1, f),
    "ladder-random": lambda f, d: _ladder(d, RANDOM, [0.25, 0.5], 1, f, {}),
    "ladder-trustworthy": lambda f, d: _ladder(d, TRUSTWORTHY, [0.25, 0.5], 1, f, {}),
}


@pytest.mark.parametrize("check", list(_CHECKS))
def test_every_check_reads_the_variables_a_formula_names(check):
    run = _CHECKS[check]
    d = Dataset.from_texts(["11"], ["00"])
    with pytest.raises(ValueError) as err:
        run(parse_formula("x1 x5"), d)
    assert str(err.value) == "formula names x5 but the data has only 2 variables"
    # a formula may name fewer variables than the data has, whatever
    # width it declares
    run(parse_formula("~x1"), d)
    declared = DnfFormula.from_json('{"n": 5, "terms": [[{"var": 1, "neg": false}]]}')
    assert run(declared, d) == run(parse_formula("x1"), d)


_GRAMMAR = st.text(alphabet="x~|0123456789 TRUEFALS\t\n", max_size=40)
# numerals around Python's default int-to-str limit of 4300 digits
_DIGITS = st.builds(lambda digit, k: digit * k, st.sampled_from("123456789"), st.integers(4290, 4400))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "terms", "var", "neg"]), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    _GRAMMAR,
    st.tuples(_GRAMMAR, _DIGITS, _GRAMMAR).map(lambda t: f"{t[0]} ~x{t[1]} {t[2]}"),
))
def test_formula_text_parses_or_raises_parse_error(text):
    try:
        parse_formula(text)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    _JSON.map(json.dumps),
    _DIGITS.map(lambda digits: '{"n": %s, "terms": []}' % digits),
    _DIGITS.map(lambda digits: '{"n": 3, "terms": [[{"var": %s, "neg": true}]]}' % digits),
))
def test_formula_json_parses_or_raises_parse_error(text):
    try:
        DnfFormula.from_json(text)
    except ParseError:
        pass
