"""Literal grading, fuzzy cardinality, and the relevance chain."""

from fractions import Fraction

import pytest

from tridnf import (
    ConsistencyAbort,
    Dataset,
    Instance,
    Label,
    LearnerConfig,
    Literal,
    learn,
)
from tridnf.oracle import membership, reference_learn

H = Fraction(1, 2)


def pair(u_text, v_text, p, q):
    """The grade function of the pair (u, v) at class sizes p and q."""
    u = Instance.from_cells(u_text, Label.POSITIVE)
    v = Instance.from_cells(v_text, Label.NEGATIVE)
    return lambda lit: membership(u, v, lit, p, q)


def every_literal(n):
    return [Literal(neg, var) for neg in (False, True) for var in range(1, n + 1)]


def test_grades_on_certain_coordinates():
    grade = pair("10", "01", 1, 1)
    assert grade(Literal(False, 1)) == 1  # u=1, v=0
    assert grade(Literal(True, 2)) == 1  # u=0, v=1
    assert grade(Literal(True, 1)) == 0
    assert grade(Literal(False, 2)) == 0


def test_grades_on_half_coordinates():
    # one Unknown against a certain cell grades (1/2)^(p+q)
    grade = pair("1?", "10", 2, 3)
    assert grade(Literal(False, 2)) == H ** 5
    assert grade(Literal(True, 2)) == 0
    grade = pair("1?", "11", 2, 3)
    assert grade(Literal(True, 2)) == H ** 5
    assert grade(Literal(False, 2)) == 0


def test_grades_on_double_unknown():
    # Unknown against Unknown grades (1/2)^(p+q+1), both signs
    grade = pair("?", "?", 1, 2)
    assert grade(Literal(False, 1)) == H ** 4
    assert grade(Literal(True, 1)) == H ** 4


def test_worked_membership_values():
    assert pair("110?1", "10010", 1, 1)(Literal(True, 4)) == Fraction(1, 4)
    assert pair("10?1", "1010", 1, 2)(Literal(True, 3)) == Fraction(1, 8)
    assert pair("100", "1?1", 1, 3)(Literal(True, 2)) == Fraction(1, 16)
    assert pair("100", "1?1", 1, 3)(Literal(True, 3)) == 1


def test_scaled_membership_is_exact():
    # every grade is an exact Fraction, an integer multiple of (1/2)^(p+q+1)
    grade = pair("1?0?", "0??1", 2, 2)
    for lit in every_literal(4):
        g = grade(lit)
        assert type(g) is Fraction and type(g.numerator) is int
        assert (g * 2 ** 5).denominator == 1


def test_cardinality_sums_all_grades():
    grade = pair("110?1", "10010", 1, 1)
    assert sum(grade(lit) for lit in every_literal(5)) == Fraction(9, 4)


def test_empty_set_detection():
    # a pair that agrees on every certain cell grades no literal; the
    # consistency check rejects it before any set is built
    grade = pair("10", "10", 1, 1)
    assert all(grade(lit) == 0 for lit in every_literal(2))
    d = Dataset.from_texts(["10"], ["10"])
    for run in (learn, reference_learn):
        with pytest.raises(ConsistencyAbort) as err:
            run(d)
        assert err.value.reason == "inconsistent-data"
        assert err.value.pairs == ((1, 1),)


def test_relevance_chain_worked_example():
    # relevance = grade / cardinality, averaged over the p*q pairs
    d = Dataset.from_texts(["110?1"], ["10010"])
    grade = pair("110?1", "10010", 1, 1)
    card = sum(grade(lit) for lit in every_literal(5))
    assert grade(Literal(False, 2)) / card == Fraction(4, 9)
    want = "SELECT x2 R=4/9"
    assert learn(d, LearnerConfig(trace=True)).trace[0] == want
    assert reference_learn(d).trace[0] == want


def test_relevance_divides_by_frozen_counts():
    # after x4 erases pair (1, 2), x1's relevance still divides by p*q = 2
    d = Dataset.from_texts(["10?1"], ["0111", "1010"])
    grade = pair("10?1", "0111", 1, 2)
    card = sum(grade(lit) for lit in every_literal(4))
    assert card == Fraction(17, 8)
    assert grade(Literal(False, 1)) / card / 2 == Fraction(4, 17)
    for trace in (learn(d, LearnerConfig(trace=True)).trace, reference_learn(d).trace):
        assert trace[:3] == ("SELECT x4 R=4/9", "ERASE_SET 1 2", "SELECT x1 R=4/17")


def test_relevance_values_are_fractions():
    # x1 grades 1 and each sign of x2 grades 1/8 in a set of cardinality 5/4
    d = Dataset.from_texts(["1?"], ["0?"])
    assert reference_learn(d).trace[0] == "SELECT x1 R=4/5"
    assert learn(d, LearnerConfig(trace=True)).trace[0] == "SELECT x1 R=4/5"
