"""Literal grading, fuzzy cardinality, and the relevance chain."""

from fractions import Fraction

import pytest

from tridnf import (
    Dataset,
    EmptyConstraintError,
    Instance,
    Label,
    Literal,
    build_constraints,
    build_membership,
    fuzzy_cardinality,
    relevance_i,
    relevance_ij,
    total_relevance,
)

H = Fraction(1, 2)


def pair(u_text, v_text, p, q):
    u = Instance.from_text(u_text, Label.POSITIVE)
    v = Instance.from_text(v_text, Label.NEGATIVE)
    return build_membership(u, v, p, q)


def test_grades_on_certain_coordinates():
    cs = pair("10", "01", 1, 1)
    assert cs.membership(Literal(False, 1)) == 1  # u=1, v=0
    assert cs.membership(Literal(True, 2)) == 1  # u=0, v=1
    assert cs.membership(Literal(True, 1)) == 0
    assert cs.membership(Literal(False, 2)) == 0


def test_grades_on_half_coordinates():
    # one Unknown against a certain cell grades (1/2)^(p+q)
    cs = pair("1?", "10", 2, 3)
    assert cs.membership(Literal(False, 2)) == H ** 5
    assert cs.membership(Literal(True, 2)) == 0
    cs = pair("1?", "11", 2, 3)
    assert cs.membership(Literal(True, 2)) == H ** 5
    assert cs.membership(Literal(False, 2)) == 0


def test_grades_on_double_unknown():
    # Unknown against Unknown grades (1/2)^(p+q+1), both signs
    cs = pair("?", "?", 1, 2)
    assert cs.membership(Literal(False, 1)) == H ** 4
    assert cs.membership(Literal(True, 1)) == H ** 4


def test_worked_membership_values():
    assert pair("110?1", "10010", 1, 1).membership(Literal(True, 4)) == Fraction(1, 4)
    assert pair("10?1", "1010", 1, 2).membership(Literal(True, 3)) == Fraction(1, 8)
    assert pair("100", "1?1", 1, 3).membership(Literal(True, 2)) == Fraction(1, 16)
    assert pair("100", "1?1", 1, 3).membership(Literal(True, 3)) == 1


def test_scaled_membership_is_exact():
    cs = pair("1?0?", "0??1", 2, 2)
    for var in range(1, 5):
        for neg in (False, True):
            lit = Literal(neg, var)
            assert cs.membership(lit) == Fraction(cs.scaled_membership(lit), cs.scale)


def test_cardinality_sums_all_grades():
    cs = pair("110?1", "10010", 1, 1)
    assert fuzzy_cardinality(cs) == Fraction(9, 4)
    assert fuzzy_cardinality(cs) == sum(cs.memberships.values(), Fraction(0))


def test_discard_removes_one_sign_only():
    cs = pair("?", "?", 1, 1)
    kept = cs.discard(Literal(False, 1))
    assert kept.membership(Literal(False, 1)) == 0
    assert kept.membership(Literal(True, 1)) == H ** 3


def test_empty_set_detection():
    cs = pair("10", "10", 1, 1)
    assert cs.is_empty
    assert cs.scaled_cardinality == 0
    with pytest.raises(EmptyConstraintError):
        relevance_ij(cs, Literal(False, 1))


def test_build_constraints_shape_and_origins():
    d = Dataset.from_texts(["11", "10"], ["00", "01", "0?"])
    groups = build_constraints(d)
    assert [g.positive_index for g in groups] == [1, 2]
    for g in groups:
        assert [cs.negative_index for cs in g.sets] == [1, 2, 3]
        assert all(cs.positive_index == g.positive_index for cs in g.sets)
        assert all(cs.exponent == d.p + d.q for cs in g.sets)


def test_relevance_chain_worked_example():
    d = Dataset.from_texts(["110?1"], ["10010"])
    groups = build_constraints(d)
    x2 = Literal(False, 2)
    assert relevance_ij(groups[0].sets[0], x2) == Fraction(4, 9)
    assert relevance_i(groups[0], x2, d.q) == Fraction(4, 9)
    assert total_relevance(groups, x2, d.p, d.q) == Fraction(4, 9)


def test_relevance_divides_by_frozen_counts():
    # erased sets leave the group but the divisor stays q
    d = Dataset.from_texts(["11"], ["00", "01"])
    groups = build_constraints(d)
    g = groups[0]
    x1 = Literal(False, 1)
    trimmed = type(g)(g.positive_index, g.sets[:1])
    assert relevance_i(trimmed, x1, 2) == relevance_ij(g.sets[0], x1) / 2
    with pytest.raises(ValueError):
        relevance_i(g, x1, 0)
    with pytest.raises(ValueError):
        total_relevance(groups, x1, 0, 2)


def test_relevance_values_are_fractions():
    d = Dataset.from_texts(["1?"], ["0?"])
    groups = build_constraints(d)
    val = total_relevance(groups, Literal(False, 1), 1, 1)
    assert isinstance(val, Fraction)
    assert isinstance(val.numerator, int)
