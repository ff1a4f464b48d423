"""Ternary cells, instances, datasets, and the preprocessing passes."""

import copy
import dataclasses
import pickle
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
    inst = Instance.from_cells("1?01", Label.POSITIVE, "u1")
    assert inst.text == "1?01"
    assert inst.n == 4
    assert inst.cells == (Trit.TRUE, Trit.UNKNOWN, Trit.FALSE, Trit.TRUE)
    assert Instance.from_cells(inst.cells, Label.POSITIVE, "u1") == inst


def test_instance_bit_views():
    inst = Instance.from_cells("1?0", Label.NEGATIVE)
    # coordinate k maps to bit k
    assert inst.value_bits == 0b001
    assert inst.zeros == 0b100
    assert inst.unknowns == 0b010
    assert inst.known_bits == 0b101
    assert not inst.is_certain
    assert inst.unknown_count == 1


def test_instance_constructor_checks_canonical_form():
    with pytest.raises(ValueError, match="^unknown cell carries a value bit$"):
        Instance(3, 0b011, 0b001, Label.POSITIVE)
    with pytest.raises(ValueError, match="^mask bits beyond instance width$"):
        Instance(3, 0, 0b1000, Label.POSITIVE)
    with pytest.raises(ValueError, match="^mask bits beyond instance width$"):
        Instance(3, 0b1000, 0b1000, Label.POSITIVE)
    inst = Instance(3, 0b001, 0b101, Label.NEGATIVE, id="v1")
    assert (inst.n, inst.value_bits, inst.known_bits, inst.label, inst.id) == (
        3, 0b001, 0b101, Label.NEGATIVE, "v1"
    )
    assert Instance(3, 0b001, 0b101, Label.NEGATIVE).id == ""
    # keywords and dataclasses.replace reach the same two checks
    assert Instance(n=3, value_bits=0b001, known_bits=0b101, label=Label.NEGATIVE, id="v1") == inst
    with pytest.raises(ValueError, match="^unknown cell carries a value bit$"):
        Instance(n=3, value_bits=0b011, known_bits=0b001, label=Label.POSITIVE)
    with pytest.raises(ValueError, match="^mask bits beyond instance width$"):
        Instance(label=Label.POSITIVE, known_bits=0b1000, value_bits=0, n=3)
    with pytest.raises(ValueError, match="^unknown cell carries a value bit$"):
        dataclasses.replace(inst, known_bits=0b100)
    with pytest.raises(ValueError, match="^mask bits beyond instance width$"):
        dataclasses.replace(inst, n=2)
    # the fields live in slots, and copies and pickles keep them
    assert not hasattr(inst, "__dict__")
    for twin in (copy.copy(inst), pickle.loads(pickle.dumps(inst))):
        assert twin == inst and hash(twin) == hash(inst)
        assert (twin.n, twin.value_bits, twin.known_bits, twin.label, twin.id) == (
            3, 0b001, 0b101, Label.NEGATIVE, "v1"
        )


def test_instance_is_a_frozen_value():
    inst = Instance.from_cells("1?0", Label.NEGATIVE, "v1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.value_bits = 0
    assert inst.value_bits == 0b001
    renamed = dataclasses.replace(inst, id="v9")
    assert (renamed.text, renamed.id, inst.id) == ("1?0", "v9", "v1")
    with pytest.raises(ValueError, match="unknown cell carries a value bit"):
        dataclasses.replace(inst, known_bits=0)
    for twin in (copy.copy(inst), pickle.loads(pickle.dumps(inst))):
        assert twin == inst and twin is not inst
        assert hash(twin) == hash(inst)
    same = Instance(3, 0b001, 0b101, Label.NEGATIVE, "v1")
    assert same == inst and hash(same) == hash(inst)
    assert len({inst, same, renamed}) == 2
    assert inst != dataclasses.replace(inst, label=Label.POSITIVE)


def test_with_cell_replaces_one_coordinate():
    inst = Instance.from_cells("1?0", Label.NEGATIVE, "v1")
    filled = inst.with_cell(1, Trit.TRUE)
    assert filled.text == "110"
    assert filled.id == "v1"
    assert filled.label is Label.NEGATIVE
    assert inst.text == "1?0"
    with pytest.raises(IndexError):
        inst.with_cell(3, Trit.TRUE)
    for k in (-1, 3):
        with pytest.raises(IndexError):
            inst.cell(k)


def test_dataset_from_texts_assigns_fallback_ids():
    d = Dataset.from_texts(["10", "0?"], ["11"])
    assert [i.id for i in d.positives] == ["u1", "u2"]
    assert [i.id for i in d.negatives] == ["v1"]
    assert (d.n, d.p, d.q) == (2, 2, 1)


def test_dataset_rejects_unequal_widths():
    # from_texts takes the first row's width, and the dataset check names
    # the row of another width
    with pytest.raises(LengthMismatchError, match="^instance 'v1' has width 3, expected 2$"):
        Dataset.from_texts(["10"], ["110"])


def test_from_texts_takes_the_width_of_its_first_row():
    assert Dataset.from_texts([], ["110", "011"]).n == 3
    with pytest.raises(ValueError, match="^no row to take the dataset width from$"):
        Dataset.from_texts([], [])


def test_dataset_rejects_mislabeled_instance():
    neg = Instance.from_cells("10", Label.NEGATIVE)
    with pytest.raises(ValueError):
        Dataset(2, (neg,), ())


def test_dataset_checks_each_class_in_order():
    pos = Instance.from_cells("10", Label.POSITIVE, "u1")
    neg = Instance.from_cells("01", Label.NEGATIVE, "v1")
    with pytest.raises(ValueError, match="^dataset width must be at least 1$"):
        Dataset(0, (), ())
    wide_pos = Instance.from_cells("101", Label.POSITIVE, "u2")
    wide_neg = Instance.from_cells("011", Label.NEGATIVE, "v2")
    with pytest.raises(LengthMismatchError, match="^instance 'u2' has width 3, expected 2$"):
        Dataset(2, (pos, wide_pos), (neg,))
    with pytest.raises(LengthMismatchError, match="^instance 'v2' has width 3, expected 2$"):
        Dataset(2, (pos,), (neg, wide_neg))
    with pytest.raises(ValueError, match=r"^instance 'u1' in negatives carries label \+$"):
        Dataset(2, (pos,), (neg, pos))
    # the positives are checked before the negatives, width before label
    with pytest.raises(ValueError, match=r"^instance 'v1' in positives carries label -$"):
        Dataset(2, (neg,), (wide_neg,))
    with pytest.raises(LengthMismatchError, match="^instance 'v2' has width 3"):
        Dataset(2, (wide_neg,), (pos,))


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


def test_reduce_uncertainty_returns_its_input_when_nothing_fills():
    # u1 and v2 have one Unknown each and are scanned, but nothing
    # fills: every pair of a certain row and one of them differs at x1,
    # and u1 with v2 has an Unknown on both sides
    d = Dataset.from_texts(["1?", "11"], ["01", "0?"])
    assert reduce_uncertainty(d) is d


def test_reduce_uncertainty_preserves_ids():
    d = Dataset(
        4,
        (Instance.from_cells("1?00", Label.POSITIVE, "a"),),
        (Instance.from_cells("1100", Label.NEGATIVE, "b"), Instance.from_cells("100?", Label.NEGATIVE, "c")),
    )
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


def _spec_bits(cells):
    """The per-cell definition of a row's masks: bit k of the value mask is
    set iff cell k reads as TRUE, bit k of the known mask iff it is
    certain."""
    value = known = 0
    for k, raw in enumerate(cells):
        t = Trit.coerce(raw)
        value |= (t is Trit.TRUE) << k
        known |= t.is_certain << k
    return value, known


def _spec_text(n, value, known):
    return "".join("1" if value >> k & 1 else "0" if known >> k & 1 else "?" for k in range(n))


# every spelling Trit.coerce reads, by the cell it spells
_SPELLINGS = {
    "0": (0, False, "0", 0.0, Trit.FALSE),
    "1": (1, True, "1", 1.0, Trit.TRUE),
    "?": (None, 0.5, "?", Trit.UNKNOWN),
}


# 5,000 cells: a row's masks in decimal would pass the int-to-str digit limit
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 320, 5000])
def test_row_codec_equals_the_per_cell_definition(n):
    rng = random.Random(n)
    texts = ["0" * n, "1" * n, "?" * n] + ["".join(rng.choice("01?") for _ in range(n)) for _ in range(8)]
    for text in texts:
        inst = Instance.from_cells(text, Label.NEGATIVE, "v1")
        value, known = _spec_bits(text)
        assert (inst.n, inst.value_bits, inst.known_bits) == (n, value, known)
        assert inst.text == text
        assert inst.cells == tuple(inst.cell(k) for k in range(n))
        spelled = [rng.choice(_SPELLINGS[c]) for c in text]
        for cells in (spelled, tuple(spelled), iter(spelled)):
            assert Instance.from_cells(cells, Label.NEGATIVE, "v1") == inst
    for _ in range(20):
        known = rng.getrandbits(n)
        value = rng.getrandbits(n) & known
        assert Instance(n, value, known, Label.POSITIVE).text == _spec_text(n, value, known)
    inst = Instance.from_cells(texts[-1], Label.NEGATIVE, "v1")
    value, known = inst.value_bits, inst.known_bits
    for k in range(n):
        for t in Trit:
            got = inst.with_cell(k, t)
            bit = 1 << k
            assert (got.n, got.label, got.id) == (n, Label.NEGATIVE, "v1")
            assert got.value_bits == value & ~bit | (t is Trit.TRUE) << k
            assert got.known_bits == known & ~bit | t.is_certain << k


@pytest.mark.parametrize("cells", [
    "1?x0", "1x?y0", "01y", "1_0", " 10", "+1", "0b1", "1١", "½", "?1?\n",
    ["1", "?", "10", "x"], [1, 2, "z"], (0, "0", "?", "1 "), [0.25], b"10",
])
def test_row_codec_names_the_first_bad_cell(cells):
    # the first cell that Trit.coerce refuses gives its own error, whether
    # the row is a string or any other iterable; int() would read some of
    # these strings as binary digits
    with pytest.raises(ValueError) as want:
        _spec_bits(cells)
    with pytest.raises(ValueError) as got:
        Instance.from_cells(cells, Label.POSITIVE)
    assert str(got.value) == str(want.value)


def test_row_text_goes_through_no_trit(monkeypatch):
    def refuse(cls, value):
        raise AssertionError("a Trit per cell")

    monkeypatch.setattr(Trit, "coerce", classmethod(refuse))
    inst = Instance.from_cells("1?0" * 100, Label.POSITIVE, "u1")
    assert inst.text == "1?0" * 100
    assert Dataset.from_texts(["1?0"], ["0?1"]).negatives[0].text == "0?1"
