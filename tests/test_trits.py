"""Ternary cells, instances, datasets, and the preprocessing passes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridnf import (
    Dataset,
    Instance,
    Label,
    LengthMismatchError,
    Trit,
    check_self_consistency,
    delete_repetitions,
    oracle,
    reduce_uncertainty,
)


def test_trit_coerce_accepts_common_spellings():
    assert Trit.coerce(0) is Trit.FALSE
    assert Trit.coerce("1") is Trit.TRUE
    assert Trit.coerce(True) is Trit.TRUE
    assert Trit.coerce(0.5) is Trit.UNKNOWN
    assert Trit.coerce(None) is Trit.UNKNOWN
    assert Trit.coerce("?") is Trit.UNKNOWN
    with pytest.raises(ValueError):
        Trit.coerce("x")


def test_trit_negation_fixes_unknown():
    assert Trit.TRUE.negated is Trit.FALSE
    assert Trit.FALSE.negated is Trit.TRUE
    assert Trit.UNKNOWN.negated is Trit.UNKNOWN


def test_instance_text_round_trip():
    inst = Instance.from_text("1?01", Label.POSITIVE, "u1")
    assert inst.text == "1?01"
    assert inst.n == 4
    assert inst.cells == (Trit.TRUE, Trit.UNKNOWN, Trit.FALSE, Trit.TRUE)
    assert Instance.from_cells(inst.cells, Label.POSITIVE, "u1") == inst


def test_instance_bit_views():
    inst = Instance.from_text("1?0", Label.NEGATIVE)
    # coordinate k maps to bit k
    assert inst.ones == 0b001
    assert inst.zeros == 0b100
    assert inst.unknowns == 0b010
    assert inst.known_bits == 0b101
    assert not inst.is_certain
    assert inst.unknown_count == 1


def test_with_cell_replaces_one_coordinate():
    inst = Instance.from_text("1?0", Label.NEGATIVE, "v1")
    filled = inst.with_cell(1, Trit.TRUE)
    assert filled.text == "110"
    assert filled.id == "v1"
    assert filled.label is Label.NEGATIVE
    assert inst.text == "1?0"
    with pytest.raises(IndexError):
        inst.with_cell(3, Trit.TRUE)


def test_dataset_from_texts_assigns_fallback_ids():
    d = Dataset.from_texts(["10", "0?"], ["11"])
    assert [i.id for i in d.positives] == ["u1", "u2"]
    assert [i.id for i in d.negatives] == ["v1"]
    assert (d.n, d.p, d.q) == (2, 2, 1)


def test_dataset_rejects_unequal_widths():
    with pytest.raises(LengthMismatchError):
        Dataset.from_texts(["10"], ["110"])


def test_dataset_rejects_mislabeled_instance():
    neg = Instance.from_text("10", Label.NEGATIVE)
    with pytest.raises(ValueError):
        Dataset(2, (neg,), ())


def test_reduce_uncertainty_worked_example():
    d = Dataset.from_texts(["1?00"], ["1100", "100?"])
    g = reduce_uncertainty(d)
    assert [i.text for i in g.positives] == ["1000"]
    assert [i.text for i in g.negatives] == ["1100", "1001"]


def test_reduce_uncertainty_is_idempotent():
    d = Dataset.from_texts(["1?00"], ["1100", "100?"])
    once = reduce_uncertainty(d)
    assert reduce_uncertainty(once) == once


def test_reduce_uncertainty_leaves_certain_data_alone():
    d = Dataset.from_texts(["10", "01"], ["11"])
    assert reduce_uncertainty(d) == d


def test_reduce_uncertainty_skips_pairs_with_certain_disagreement():
    # positive differs from the negative at x1 already; x2 must stay unknown
    d = Dataset.from_texts(["1?"], ["01"])
    assert reduce_uncertainty(d) == d


def test_reduce_uncertainty_preserves_ids():
    d = Dataset.from_texts(["1?00"], ["1100", "100?"], pos_ids=["a"], neg_ids=["b", "c"])
    g = reduce_uncertainty(d)
    assert [i.id for i in g.positives] == ["a"]
    assert [i.id for i in g.negatives] == ["b", "c"]


def test_delete_repetitions_keeps_first_per_class():
    # rows with an Unknown cell are duplicates when their ternary vectors match
    d = Dataset.from_texts(["10", "10", "0?", "0?"], ["10"])
    g = delete_repetitions(d)
    assert [i.text for i in g.positives] == ["10", "0?"]
    assert [i.id for i in g.positives] == ["u1", "u3"]
    # the negative copy lives in the other class and stays
    assert [i.text for i in g.negatives] == ["10"]


def test_delete_repetitions_returns_the_data_when_no_row_repeats():
    # a row may repeat one of the other class, which is not a repetition
    d = Dataset.from_texts(["10", "0?"], ["10", "??"])
    assert delete_repetitions(d) is d


def test_check_self_consistency_reports_one_based_pairs():
    d = Dataset.from_texts(["10", "11"], ["11", "10"])
    assert check_self_consistency(d) == ((1, 2), (2, 1))


def test_check_self_consistency_ignores_uncertain_collisions():
    # '1?' could complete to '10' but is not a certain duplicate
    d = Dataset.from_texts(["1?"], ["10"])
    assert check_self_consistency(d) == ()


def test_reduce_uncertainty_repeats_passes_until_none_fills():
    # pass 1 skips (1, 1), where both rows hold an Unknown, then fills v1
    # from u2; with v1 certain, pass 2 fills u1 from it
    d = Dataset.from_texts(["1?", "01"], ["?1"])
    for reduce in (reduce_uncertainty, oracle._reduce_uncertainty):
        g = reduce(d)
        assert [i.text for i in g.positives] == ["10", "01"]
        assert [i.text for i in g.negatives] == ["11"]


def _preprocessed(d):
    """Both preprocessing passes, fast and spec, each also checked on the
    reduced data, where learn runs the check."""
    fast = reduce_uncertainty(d)
    spec = oracle._reduce_uncertainty(d)
    return (
        (fast, check_self_consistency(d), check_self_consistency(fast)),
        (spec, oracle._check_self_consistency(d), oracle._check_self_consistency(spec)),
    )


# Unknowns scarce enough that rows with exactly one are common, which is
# when reduction fills a cell, and zeros common enough that certain rows
# collide across the classes
_ALPHABETS = ("01?", "0001?", "000001?")


def test_preprocessing_equals_its_spec_on_random_data():
    rng = random.Random(4)
    filled = clashes = 0
    for _ in range(3000):
        n, p, q = rng.randint(1, 5), rng.randint(1, 6), rng.randint(0, 6)
        alphabet = rng.choice(_ALPHABETS)
        rows = ["".join(rng.choice(alphabet) for _ in range(n)) for _ in range(p + q)]
        d = Dataset.from_texts(rows[:p], rows[p:])
        fast, spec = _preprocessed(d)
        assert fast == spec, (rows[:p], rows[p:])
        filled += fast[0] != d
        clashes += bool(fast[2])
    assert filled > 1000 and clashes > 1000, (filled, clashes)


@st.composite
def _drawn_rows(draw):
    n = draw(st.integers(1, 5))
    cell = st.sampled_from(draw(st.sampled_from(_ALPHABETS)))
    row = st.lists(cell, min_size=n, max_size=n).map("".join)
    return draw(st.lists(row, min_size=1, max_size=6)), draw(st.lists(row, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_drawn_rows())
def test_preprocessing_equals_its_spec_on_drawn_data(rows):
    fast, spec = _preprocessed(Dataset.from_texts(*rows))
    assert fast == spec
