"""Error counting and the sweep runner's aggregation contract."""

from dataclasses import replace
from fractions import Fraction
from itertools import count

import pytest

from tridnf import (
    ConsistencyAbort,
    Dataset,
    EvalReport,
    SplitMix64,
    apply_mask,
    encode_zoo,
    evaluate,
    experiments,
    learn,
    make_mask,
    masking,
    parse_formula,
    run_experiment,
)
from tridnf.masking import RANDOM, TRUSTWORTHY, _ladder


def test_evaluate_counts_both_error_kinds():
    f = parse_formula("x1")
    d = Dataset.from_texts(["10", "01"], ["11", "00"])
    report = evaluate(f, d)
    # '01' fails the formula, '11' passes it
    assert report.errors == 2
    assert report.size == 4
    assert report.rate == Fraction(1, 2)


def test_evaluate_published_spot_checks(zoo_datasets):
    d1 = zoo_datasets[1]
    report = evaluate(parse_formula("~x3 ~x11 | x16 x19"), d1)
    assert report.errors == 1
    assert evaluate(parse_formula("FALSE"), d1).errors == d1.p
    assert evaluate(parse_formula("TRUE"), d1).errors == d1.q


def test_evaluate_requires_certain_data():
    f = parse_formula("x1")
    with pytest.raises(ValueError):
        evaluate(f, Dataset.from_texts(["1?"], ["00"]))


def test_evaluate_refuses_a_formula_wider_than_its_data():
    d = Dataset.from_texts(["11"], ["00"])
    with pytest.raises(ValueError, match="^formula names x5 but the data has only 2 variables$"):
        evaluate(parse_formula("x1 x5"), d)
    # a narrower formula reads the first variables only
    assert evaluate(parse_formula("~x1"), d) == EvalReport(errors=2, size=2)


def test_learned_terms_keep_a_term_a_later_term_absorbs(zoo_records):
    # learn returns its terms in the order it learns them and drops none,
    # though x4 alone has this formula's truth table
    (run,) = run_experiment(zoo_records, [1], [Fraction(1, 10)], [RANDOM], [1]).runs
    assert (run.formula.render(), run.errors) == ("~x3 x4 | x4", 0)


def test_run_experiment_grid_and_summary(zoo_records):
    report = run_experiment(
        zoo_records,
        types=(1, 4),
        fractions=(Fraction(1, 10), Fraction(3, 10)),
        modes=(RANDOM, TRUSTWORTHY),
        seeds=(0, 1),
    )
    assert len(report.runs) == 2 * 2 * 2 * 2
    assert all(run.ok for run in report.runs)

    # summary means must equal recomputation from the raw runs
    for row in report.summary():
        mine = [
            run for run in report.runs
            if run.ok and run.mode == row.mode and run.fraction == row.fraction
        ]
        assert row.runs == len(mine) + row.aborted == len(mine)
        aen = sum(Fraction(r.errors) for r in mine) / len(mine)
        rate = sum(r.rate for r in mine) / len(mine)
        assert row.aen == aen
        assert row.rate == rate

    # reference formulas are cached per type for the trustworthy runs
    assert report.reference_for(1).render() == "x4"
    assert report.reference_for(4).render() == "x12 x3"
    text = report.render_text()
    assert "\nType 1 (reference formula: x4)\n" in text
    assert "\nType 4 (reference formula: x12 x3)\n" in text


def test_run_experiment_rows_are_deterministic(zoo_records, monkeypatch):
    kw = dict(
        types=(3,),
        fractions=(Fraction(1, 5),),
        modes=(RANDOM,),
        seeds=(5,),
    )
    def timeless(report):
        return [replace(run, seconds=0.0) for run in report.runs]

    def timed_run(tick):
        # a fake clock that advances ``tick`` seconds per reading
        clock = count(0.0, tick)
        monkeypatch.setattr(experiments.time, "perf_counter", lambda: next(clock))
        return run_experiment(zoo_records, **kw)

    a = timed_run(1.0)
    b = timed_run(7.0)
    assert [run.seconds for run in a.runs] != [run.seconds for run in b.runs]
    assert timeless(a) == timeless(b)
    # the wall time stays out of the report file
    assert a.render_text() == b.render_text()


def test_report_renderings(zoo_records):
    report = run_experiment(
        zoo_records,
        types=(2,),
        fractions=(Fraction(1, 10),),
        modes=(RANDOM,),
        seeds=(0,),
    )
    text = report.render_text()
    assert "mode" in text and "random" in text
    rows = report.csv_rows()
    assert rows[0] == [
        "type", "mode", "fraction", "seed", "errors", "rate",
        "abort", "seconds", "formula",
    ]
    assert len(rows) == 2
    assert rows[1][0] == "2"

    summary = report.render_summary()
    assert "10%" in summary


def test_run_experiment_normalizes_selections(zoo_records):
    report = run_experiment(
        zoo_records,
        types=(4, 1, 4),
        fractions=(Fraction(1, 5), Fraction(1, 10), Fraction(1, 5)),
        modes=(RANDOM, RANDOM),
        seeds=(0,),
    )
    kinds = sorted({run.positive_type for run in report.runs})
    fracs = sorted({run.fraction for run in report.runs})
    assert kinds == [1, 4]
    assert fracs == [Fraction(1, 10), Fraction(1, 5)]
    assert len(report.runs) == 4


def test_run_experiment_runs_a_repeated_seed_once(zoo_records):
    # a repeated seed would run its cells twice and count them twice in
    # AEN and R; seeds keep their order of first appearance
    kw = dict(types=(3,), fractions=(Fraction(1, 5),), modes=(RANDOM,))
    report = run_experiment(zoo_records, seeds=(2, 1, 2, 1), **kw)
    assert [run.seed for run in report.runs] == [2, 1]
    assert report.summary()[0].runs == 2
    once = run_experiment(zoo_records, seeds=(2, 1), **kw)
    assert report.render_text() == once.render_text()


def counting(monkeypatch, module, name):
    """Patch ``module.name`` to record the first argument of each call."""
    real, seen = getattr(module, name), []

    def recorded(first, *args, **kwargs):
        seen.append(first)
        return real(first, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return seen


def test_run_experiment_masks_each_cell_as_make_mask_does(zoo_records, monkeypatch):
    # every cell must learn from its own (mode, fraction, seed) mask; a
    # fraction or seed swapped between the shared shuffles shows here.
    # Without the trustworthy reference, the first fraction-0 cell learns
    # the unmasked data and the other fraction-0 cells reuse it.
    fractions = (Fraction(3, 10), 0, Fraction(1, 10), Fraction(3, 10))
    for modes in ((TRUSTWORTHY, RANDOM), (RANDOM,)):
        learned = counting(monkeypatch, experiments, "learn")
        report = run_experiment(
            zoo_records, types=(4, 1), fractions=fractions, modes=modes, seeds=(2, 1)
        )
        cells = [
            (kind, mode, fraction, seed)
            for kind in (1, 4)
            for mode in modes
            for fraction in (0, Fraction(1, 10), Fraction(3, 10))
            for seed in (2, 1)
        ]
        assert [(r.positive_type, r.mode, r.fraction, r.seed) for r in report.runs] == cells
        for kind in (1, 4):
            complete = encode_zoo(zoo_records, kind)
            assert sum(data == complete for data in learned) == 1, (modes, kind)
        assert len(learned) == 2 * (1 + len(modes) * 2 * 2)
        monkeypatch.undo()
        for run in report.runs:
            complete = encode_zoo(zoo_records, run.positive_type)
            truth = report.reference_for(run.positive_type) if run.mode == TRUSTWORTHY else None
            plan = make_mask(complete, run.mode, run.fraction, run.seed, truth)
            try:
                formula = learn(apply_mask(complete, plan)).formula
            except ConsistencyAbort as abort:
                assert (run.formula, run.errors, run.abort_reason) == (None, None, abort.reason)
            else:
                assert run.formula == formula
                assert run.errors == evaluate(formula, complete).errors


def test_default_sweep_learns_the_unmasked_data_and_draws_each_seed_once(
    zoo_records, monkeypatch
):
    # the grid of ``tridnf experiment``: 7 types x 2 modes x 6 fractions x
    # 2 seeds.  The 7 reference learns serve the 28 fraction-0 cells, and
    # each seed's draws reach the largest count, half of 101 x 20 cells,
    # once for all 14 ladders of that seed.  Each of the 28 ladders walks
    # one shuffle per (candidate count, seed): the 7 random ladders of a
    # seed share one, and the references leave 5 candidate counts for the
    # trustworthy ladders, so 2 x (1 + 5) shuffles are made.  Each type's
    # errors are counted once per distinct formula: 62 evaluations, where
    # one per learn would be 147.
    learned = counting(monkeypatch, experiments, "learn")
    evaluated = counting(monkeypatch, experiments, "evaluate")
    drawn = counting(monkeypatch, SplitMix64, "next_u64")
    shuffled = counting(monkeypatch, masking, "_shuffle")
    report = run_experiment(
        zoo_records,
        types=range(1, 8),
        fractions=[Fraction(k, 10) for k in range(6)],
        modes=(RANDOM, TRUSTWORTHY),
        seeds=(1, 2),
    )
    assert len(report.runs) == 168
    assert len(learned) == 7 + 7 * 2 * 5 * 2 == 147
    assert len(evaluated) == 62
    distinct = {(run.positive_type, run.formula) for run in report.runs if run.ok}
    assert len(distinct) == len(evaluated)
    assert len(drawn) == 2 * 1010
    assert len(shuffled) == 12
    zero = [run for run in report.runs if run.fraction == 0]
    assert len(zero) == 28
    for run in zero:
        assert run.formula == report.reference_for(run.positive_type), run


def test_an_aborted_cell_is_reported_and_left_out_of_the_means(zoo_records, monkeypatch):
    # one masked dataset of type 2 aborts; type 1 and the unmasked data do not
    target = _ladder(encode_zoo(zoo_records, 2), RANDOM, [Fraction(1, 10)], 1, None, {})[0]
    real = experiments.learn

    def learn_or_abort(data, *args):
        if data == target:
            raise ConsistencyAbort("forced-abort", instance_id="v1")
        return real(data, *args)

    monkeypatch.setattr(experiments, "learn", learn_or_abort)
    report = run_experiment(
        zoo_records, types=(1, 2), fractions=(0, Fraction(1, 10)), modes=(RANDOM,), seeds=(1,)
    )
    aborted = [run for run in report.runs if not run.ok]
    assert [(run.positive_type, run.fraction) for run in aborted] == [(2, Fraction(1, 10))]
    (run,) = aborted
    assert (run.formula, run.errors, run.rate, run.abort_reason) == (None, None, None, "forced-abort")
    kept = next(r for r in report.runs if r.positive_type == 1 and r.fraction == run.fraction)
    assert kept.ok and kept.rate == Fraction(kept.errors, kept.size)

    text = report.render_text()
    assert "runs 4, aborted 1" in text
    type_1, type_2 = text.split("\nType 1\n")[1].split("\nType 2\n")
    assert "ABORT" not in type_1
    assert "  random            10%      1 ABORT  forced-abort" in type_2.splitlines()

    rows = report.csv_rows()
    (row,) = [row for row in rows[1:] if row[6]]
    assert row[:7] == ["2", "random", "1/10", "1", "", "", "forced-abort"]
    assert row[8] == ""

    by_fraction = {row.fraction: row for row in report.summary()}
    ten = by_fraction[Fraction(1, 10)]
    assert (ten.runs, ten.aborted) == (2, 1)
    assert (ten.aen, ten.rate) == (kept.errors, kept.rate)
    assert by_fraction[0].aborted == 0
    assert "aborts" in report.render_summary()


@pytest.mark.parametrize("modes", [(RANDOM, TRUSTWORTHY), (TRUSTWORTHY, RANDOM)])
def test_a_class_whose_unmasked_data_aborts_is_reported_and_the_run_goes_on(zoo_records, modes):
    # a type-2 clone of aardvark makes type 1's unmasked data inconsistent,
    # so type 1 gets no reference and no trustworthy ladder; type 3, and
    # type 1's random cells that blank something, run as they do alone
    records = zoo_records + [replace(zoo_records[0], name="aardclone", kind=2)]
    grid = dict(fractions=(0, Fraction(1, 10)), seeds=(1, 2))
    report = run_experiment(records, types=(1, 3), modes=modes, **grid)
    assert [kind for kind, _ in report.references] == [3]
    aborted = [
        run for run in report.runs
        if run.positive_type == 1 and (run.mode == TRUSTWORTHY or run.fraction == 0)
    ]
    assert len(aborted) == 6
    for run in aborted:
        assert (run.formula, run.errors, run.abort_reason) == (None, None, "inconsistent-data")

    def timeless(runs):
        return [replace(run, seconds=0.0) for run in runs]

    alone = run_experiment(records, types=(3,), modes=modes, **grid)
    assert report.references == alone.references
    assert timeless(r for r in report.runs if r.positive_type == 3) == timeless(alone.runs)
    masked = run_experiment(
        records, types=(1,), modes=(RANDOM,), fractions=(Fraction(1, 10),), seeds=(1, 2)
    )
    kept = [r for r in report.runs if r.positive_type == 1 and r.mode == RANDOM and r.fraction]
    assert timeless(kept) == timeless(masked.runs)
