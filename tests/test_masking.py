"""Seeded cell removal: the generator, plan construction, application."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridnf import (
    CellOutOfRangeError,
    Dataset,
    DnfFormula,
    FractionOutOfRangeError,
    Instance,
    Label,
    MaskPlan,
    SplitMix64,
    Trit,
    apply_mask,
    make_mask,
    parse_formula,
)
from tridnf.formula import term_from_codes
from tridnf.masking import RANDOM, TRUSTWORTHY, _ladder


def test_generator_matches_published_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_generator_below_is_in_range():
    rng = SplitMix64(12345)
    draws = [rng.next_u64() % 7 for _ in range(200)]
    assert all(0 <= d < 7 for d in draws)
    assert len(set(draws)) == 7


def test_plan_is_deterministic():
    d = Dataset.from_texts(["1010", "0101"], ["1100", "0011"])
    a = make_mask(d, RANDOM, Fraction(1, 4), seed=9)
    b = make_mask(d, RANDOM, Fraction(1, 4), seed=9)
    assert a == b
    c = make_mask(d, RANDOM, Fraction(1, 4), seed=10)
    assert c != a


def test_plan_counts_cells_by_rounded_fraction():
    d = Dataset.from_texts(["1010", "0101"], ["1100", "0011"])  # 16 cells
    plan = make_mask(d, RANDOM, Fraction(1, 4), seed=0)
    assert plan.requested == 4
    assert len(plan.cells) == 4
    assert plan.shortfall == 0
    # cells are sorted, unique, in range; rows count positives first
    assert list(plan.cells) == sorted(set(plan.cells))
    assert all(0 <= r < 4 and 0 <= c < 4 for r, c in plan.cells)


def test_plan_rounds_half_cells():
    # round() on the exact Fraction: a quarter of 6, 10 and 14 cells is
    # 1.5, 2.5 and 3.5 cells, which plan 2, 2 and 4
    for n, want in ((3, 2), (5, 2), (7, 4)):
        d = Dataset.from_texts(["1" * n, "0" * n], [])
        plan = make_mask(d, RANDOM, Fraction(1, 4), seed=3)
        assert plan.requested == want, n


def test_fraction_zero_masks_nothing():
    d = Dataset.from_texts(["10"], ["01"])
    plan = make_mask(d, RANDOM, Fraction(0), seed=1)
    assert plan.cells == ()
    assert apply_mask(d, plan) == d


def test_fraction_bounds_are_enforced():
    d = Dataset.from_texts(["10"], ["01"])
    for bad in (Fraction(9, 10), Fraction(51, 100), Fraction(-1, 10)):
        with pytest.raises(FractionOutOfRangeError):
            make_mask(d, RANDOM, bad, seed=0)
    # the half point itself is allowed
    make_mask(d, RANDOM, Fraction(1, 2), seed=0)


def test_apply_mask_sets_unknown_cells():
    d = Dataset.from_texts(["1010", "0101"], ["1100"])
    plan = make_mask(d, RANDOM, Fraction(1, 2), seed=2)
    masked = apply_mask(d, plan)
    assert masked.unknown_count == len(plan.cells) == 6
    rows = list(masked.instances())
    for r, c in plan.cells:
        assert rows[r].cell(c) is Trit.UNKNOWN
    # ids and labels are untouched
    assert [i.id for i in masked.instances()] == [i.id for i in d.instances()]


def test_apply_mask_rejects_out_of_range_cells():
    d = Dataset.from_texts(["10"], ["01"])
    plan = make_mask(d, RANDOM, Fraction(1, 4), seed=0)
    stretched = type(plan)(
        mode=plan.mode, fraction=plan.fraction, seed=plan.seed,
        cells=((5, 0),), requested=1,
    )
    with pytest.raises(CellOutOfRangeError):
        apply_mask(d, stretched)


def test_trustworthy_mode_never_touches_formula_columns():
    d = Dataset.from_texts(["1010", "0101", "1111"], ["1100", "0011"])
    truth = parse_formula("x2 ~x4")
    plan = make_mask(d, TRUSTWORTHY, Fraction(1, 2), seed=6, truth=truth)
    banned = {v - 1 for v in truth.vars_used}
    assert all(c not in banned for _, c in plan.cells)


def test_trustworthy_mode_requires_truth():
    d = Dataset.from_texts(["10"], ["01"])
    with pytest.raises(ValueError):
        make_mask(d, TRUSTWORTHY, Fraction(1, 4), seed=0)


def test_trustworthy_shortfall_is_reported():
    # only x4 is free: 4 candidate cells, but 50% of 16 wants 8
    d = Dataset.from_texts(["1010", "0101"], ["1100", "0011"])
    truth = parse_formula("x1 x2 x3")
    plan = make_mask(d, TRUSTWORTHY, Fraction(1, 2), seed=0, truth=truth)
    assert plan.requested == 8
    assert len(plan.cells) == 4
    assert plan.shortfall == 4
    assert {c for _, c in plan.cells} == {3}


def test_unknown_mode_is_rejected():
    d = Dataset.from_texts(["10"], ["01"])
    with pytest.raises(ValueError):
        make_mask(d, "adversarial", Fraction(1, 4), seed=0)


def test_seeds_outside_64_bits_are_rejected():
    # SplitMix64 keeps the low 64 bits, so these would plan as seeds 0 and 1
    d = Dataset.from_texts(["10"], ["01"])
    for bad in (-1, 1 << 64, (1 << 64) + 1):
        with pytest.raises(ValueError, match="seed"):
            make_mask(d, RANDOM, Fraction(1, 4), seed=bad)
    make_mask(d, RANDOM, Fraction(1, 4), seed=(1 << 64) - 1)


# --- the cell-by-cell definitions the masking module must agree with ---


def plan_by_cells(dataset, mode, fraction, seed, truth=None) -> MaskPlan:
    """Shuffle the (row, col) candidate tuples themselves."""
    rows = dataset.p + dataset.q
    requested = round(fraction * rows * dataset.n)
    banned = set(truth.vars_used) if mode == TRUSTWORTHY else set()
    candidates = [
        (row, col) for row in range(rows) for col in range(dataset.n) if col + 1 not in banned
    ]
    count = min(requested, len(candidates))
    rng = SplitMix64(seed)
    for i in range(count):
        j = i + rng.next_u64() % (len(candidates) - i)
        candidates[i], candidates[j] = candidates[j], candidates[i]
    return MaskPlan(mode, fraction, seed, tuple(sorted(candidates[:count])),
                    requested, requested - count)


def apply_by_cells(dataset, plan) -> Dataset:
    """Blank one cell at a time, checking each cell as it comes."""
    rows = list(dataset.instances())
    for row, col in plan.cells:
        if not 0 <= row < len(rows):
            raise CellOutOfRangeError(f"row {row} outside 0..{len(rows) - 1}")
        if not 0 <= col < dataset.n:
            raise CellOutOfRangeError(f"column {col} outside 0..{dataset.n - 1}")
        rows[row] = rows[row].with_cell(col, Trit.UNKNOWN)
    return Dataset(dataset.n, tuple(rows[: dataset.p]), tuple(rows[dataset.p :]))


@st.composite
def masking_cases(draw):
    n = draw(st.integers(1, 6))
    # a small pool of ternary rows, so rows repeat and some hold Unknowns
    pool = draw(st.lists(st.text("01?", min_size=n, max_size=n), min_size=1, max_size=4))
    texts = draw(st.lists(st.sampled_from(pool), max_size=8))
    p = draw(st.integers(0, len(texts)))
    d = Dataset(
        n,
        tuple(Instance.from_cells(t, Label.POSITIVE, f"u{i}") for i, t in enumerate(texts[:p])),
        tuple(Instance.from_cells(t, Label.NEGATIVE, f"v{i}") for i, t in enumerate(texts[p:])),
    )
    mode = draw(st.sampled_from([RANDOM, TRUSTWORTHY]))
    codes = draw(st.lists(st.integers(0, 2 * n - 1), unique=True, max_size=n))
    truth = DnfFormula(n, (term_from_codes(n, codes),)) if mode == TRUSTWORTHY else None
    fraction = draw(st.fractions(0, Fraction(1, 2), max_denominator=40))
    return d, mode, fraction, draw(st.integers(0, 2**64 - 1)), truth


@settings(max_examples=400, deadline=None)
@given(case=masking_cases(), stray=st.lists(st.tuples(st.integers(-2, 10), st.integers(-2, 8))))
def test_masking_matches_the_cell_by_cell_definition(case, stray):
    d, mode, fraction, seed, truth = case
    plan = make_mask(d, mode, fraction, seed, truth)
    assert plan == plan_by_cells(d, mode, fraction, seed, truth)
    assert apply_mask(d, plan) == apply_by_cells(d, plan)

    # hand-made plans: cells repeated, unsorted or out of range fail alike,
    # at the first bad cell in plan order
    loose = MaskPlan(mode, fraction, seed, plan.cells + tuple(stray), plan.requested)
    try:
        expected = apply_by_cells(d, loose)
    except CellOutOfRangeError as err:
        with pytest.raises(CellOutOfRangeError) as got:
            apply_mask(d, loose)
        assert str(got.value) == str(err)
    else:
        assert apply_mask(d, loose) == expected


# --- the ladder: one shuffle for several fractions ---


def per_fraction(d, mode, fractions, seed, truth):
    return [apply_mask(d, make_mask(d, mode, f, seed, truth)) for f in fractions]


@settings(max_examples=300, deadline=None)
@given(case=masking_cases(), data=st.data())
def test_ladder_equals_one_plan_per_fraction(case, data):
    d, mode, fraction, seed, truth = case
    # a small pool, so fractions repeat and round to equal counts
    pool = data.draw(st.lists(st.fractions(0, Fraction(1, 2), max_denominator=40), max_size=3))
    fractions = data.draw(st.lists(st.sampled_from([fraction, *pool]), max_size=6))
    assert _ladder(d, mode, fractions, seed, truth, {}) == per_fraction(
        d, mode, fractions, seed, truth
    )
    # a fraction that blanks nothing gets the input itself, so a caller
    # can tell the unmasked data by identity
    assert _ladder(d, mode, [0, fraction], seed, truth, {})[0] is d


def test_ladder_handles_shortfalls_and_equal_counts():
    # 16 cells, only x4 free: 1/4, 3/8 and 1/2 all cap at its 4 cells;
    # 1/20 and 1/16 both round to one cell
    d = Dataset.from_texts(["1010", "0101"], ["1100", "0011"])
    truth = parse_formula("x1 x2 x3")
    fractions = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), 0, Fraction(1, 20), Fraction(1, 16)]
    for seed in range(8):
        ladder = _ladder(d, TRUSTWORTHY, fractions, seed, truth, {})
        assert ladder == per_fraction(d, TRUSTWORTHY, fractions, seed, truth)
        assert ladder[0].unknown_count == 4
        assert ladder[3] is d
    assert _ladder(d, RANDOM, [], 0, None, {}) == []


def test_ladder_shares_the_rows_it_does_not_blank():
    d = Dataset.from_texts(["1010", "0101", "1111"], ["1100", "0011", "0000"])
    low, high = _ladder(d, RANDOM, [Fraction(1, 12), Fraction(1, 6)], 4, None, {})
    rows = list(d.instances())
    for before, after in zip(rows, low.instances()):
        assert (after is before) == (after == before)
    for before, after in zip(low.instances(), high.instances()):
        assert (after is before) == (after == before)
    # apply_mask blanks through the same routine, so it shares alike
    for fraction in (Fraction(1, 12), Fraction(1, 6)):
        masked = apply_mask(d, make_mask(d, RANDOM, fraction, 4))
        assert masked != d
        for before, after in zip(rows, masked.instances()):
            assert (after is before) == (after == before)


@settings(max_examples=200, deadline=None)
@given(
    case=masking_cases(),
    mode=st.sampled_from([RANDOM, TRUSTWORTHY, "adversarial"]),
    seed=st.sampled_from([0, -1, 2**64 - 1, 2**64]),
    extra=st.lists(st.fractions(Fraction(-1, 4), Fraction(3, 4), max_denominator=8), max_size=3),
    drop_truth=st.booleans(),
)
def test_ladder_raises_as_make_mask_does(case, mode, seed, extra, drop_truth):
    d, _, fraction, _, _ = case
    truth = None if drop_truth else parse_formula("x1")
    fractions = [fraction, *extra]
    # make_mask checks mode, seed, then its fraction, then the truth, so
    # the first bad fraction, or any fraction when none is bad, shows the
    # error the ladder must raise
    bad = [f for f in fractions if not 0 <= f <= Fraction(1, 2)]
    try:
        make_mask(d, mode, (bad or fractions)[0], seed, truth)
    except ValueError as err:
        with pytest.raises(type(err)) as got:
            _ladder(d, mode, fractions, seed, truth, {})
        assert str(got.value) == str(err)
    else:
        assert _ladder(d, mode, fractions, seed, truth, {}) == per_fraction(
            d, mode, fractions, seed, truth
        )
