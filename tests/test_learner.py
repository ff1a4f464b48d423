"""Learner behavior: golden runs, tracing, ids, aborts, determinism."""

import ast
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import certain_rows, summed, without_safeguards
from hypothesis import given, settings
from hypothesis import strategies as st

import tridnf
from tridnf import (
    ConsistencyAbort,
    Dataset,
    DnfFormula,
    Instance,
    Label,
    LearnerConfig,
    LearnResult,
    Literal,
    Term,
    TridnfError,
    Trit,
    apply_mask,
    learn,
    make_mask,
    verify_consistency,
)
from tridnf import learner, oracle
from tridnf.formula import term_from_codes
from tridnf.oracle import reference_learn
from tridnf.learner import _TermEngine

TRACED = LearnerConfig(trace=True)


def test_single_literal_run():
    result = learn(Dataset.from_texts(["110?1"], ["10010"]), TRACED)
    assert result.formula.render() == "x2"
    assert result.trace == (
        "SELECT x2 R=4/9",
        "ERASE_SET 1 1",
        "TERM x2",
        "POS_ERASED u1",
    )
    assert result.iterations == 1


def test_tie_breaks_toward_lower_positive_literal():
    # x1 and x2 score 1/2 each; the lower-coded literal wins
    result = learn(Dataset.from_texts(["1?0"], ["?00"]), TRACED)
    assert result.formula.render() == "x1"
    assert result.trace == (
        "SELECT x1 R=1/2",
        "ERASE_SET 1 1",
        "TERM x1",
        "POS_ERASED u1",
        "NEG_UPDATE v1 1 0",
    )
    # the updated negative is pinned to falsify the term
    assert [v.text for v in result.dataset.negatives] == ["000"]


def test_negated_literal_dominates():
    result = learn(Dataset.from_texts(["100"], ["011", "101", "1?1"]), TRACED)
    assert result.formula.render() == "~x3"
    assert result.trace == (
        "SELECT ~x3 R=116/153",
        "ERASE_SET 1 1",
        "ERASE_SET 1 2",
        "ERASE_SET 1 3",
        "TERM ~x3",
        "POS_ERASED u1",
    )


def test_two_literal_term():
    result = learn(Dataset.from_texts(["10?1"], ["0111", "1010"]), TRACED)
    assert result.formula.render() == "x4 x1"
    assert result.trace == (
        "SELECT x4 R=4/9",
        "ERASE_SET 1 2",
        "SELECT x1 R=4/17",
        "ERASE_SET 1 1",
        "TERM x4 x1",
        "POS_ERASED u1",
    )


def test_reduction_changes_the_outcome(monkeypatch):
    # without preprocessing the greedy pick degenerates to a tautology
    d = Dataset.from_texts(["100", "?10"], ["1?0"])
    full = learn(d, TRACED)
    assert full.formula.render() == "~x1 | ~x2"
    assert full.trace == (
        "SELECT ~x1 R=1/2",
        "ERASE_GROUP 1",
        "ERASE_SET 2 1",
        "TERM ~x1",
        "POS_ERASED u2",
        "SELECT ~x2 R=1",
        "ERASE_SET 1 1",
        "TERM ~x2",
        "POS_ERASED u1",
    )

    raw = without_safeguards(d)
    assert raw.render() == "~x2 | x2"
    assert all(raw.evaluate(bits) for bits in range(1 << d.n))

    # negative updating alone also rescues consistency here
    monkeypatch.setattr(learner, "reduce_uncertainty", lambda w: w)
    updated = learn(d, TRACED)
    assert updated.formula.render() == "~x2 | ~x1"
    assert not all(updated.formula.evaluate(bits) for bits in range(1 << d.n))
    assert "NEG_UPDATE v1 2 1" in updated.trace


def test_erased_positives_keep_erasure_order():
    d = Dataset.from_texts(["100", "?10"], ["1?0"])
    result = learn(d, TRACED)
    assert [u.id for u in result.dataset.positives] == ["u2", "u1"]


def test_instance_ids_survive_into_the_trace():
    d = Dataset(
        3,
        (Instance.from_cells("1?0", Label.POSITIVE, "ada"),),
        (Instance.from_cells("?00", Label.NEGATIVE, "bob"),),
    )
    result = learn(d, TRACED)
    assert "POS_ERASED ada" in result.trace
    assert "NEG_UPDATE bob 1 0" in result.trace


def test_rows_without_an_id_are_named_by_their_position_in_their_class():
    # the k-th row of a class with no id is u<k> or v<k> in traces, aborts,
    # final datasets and certificates; so naming those rows so beforehand
    # changes nothing, and named rows keep their ids, even ids such as u1
    # that a later default name repeats
    rng = random.Random(23)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        texts = [
            ["".join(rng.choice("01??") for _ in range(n)) for _ in range(rng.randint(low, 5))]
            for low in (1, 0)
        ]
        sides = [
            tuple(Instance.from_cells(t, label, rng.choice(("", "", "ada", "u1", "v2"))) for t in rows)
            for rows, label in zip(texts, (Label.POSITIVE, Label.NEGATIVE))
        ]
        d = Dataset(n, *sides)
        spelled = Dataset(n, *(
            tuple(replace(inst, id=inst.id or f"{prefix}{k}") for k, inst in enumerate(rows, start=1))
            for rows, prefix in zip(sides, "uv")
        ))
        names = [inst.id for inst in spelled.instances()]
        for run in (_traced_learn, learn, reference_learn):
            got = _outcome(run, d)
            assert got == _outcome(run, spelled), texts
        if isinstance(got, LearnResult):
            formula = got.formula
            assert {inst.id for inst in got.dataset.instances()} <= set(names)
            assert [line.split()[1] for line in got.trace if line.startswith("POS_ERASED")] == [
                inst.id for inst in got.dataset.positives
            ]
            outcomes.add("learned")
        else:
            formula = DnfFormula(n, (term_from_codes(n, rng.sample(range(2 * n), rng.randint(0, n))),))
            assert got[2] in ("", *names)
            outcomes.add(got[0])
        certificates = verify_consistency(formula, d)
        assert certificates == verify_consistency(formula, spelled)
        assert [c.instance_id for c in certificates] == names
        plain = Dataset.from_texts(*texts)
        assert [inst.id for inst in plain.instances()] == [
            f"{prefix}{k}" for rows, prefix in zip(texts, "uv") for k in range(1, len(rows) + 1)
        ]
    assert {"learned", "inconsistent-data"} <= outcomes, outcomes


def test_duplicate_positives_collapse_before_selection():
    d = Dataset.from_texts(["11", "11"], ["00"])
    result = learn(d, TRACED)
    assert result.formula.render() == "x1"
    # only the surviving copy is erased
    assert [u.id for u in result.dataset.positives] == ["u1"]


def test_empty_trace_without_config_flag():
    result = learn(Dataset.from_texts(["11"], ["00"]))
    assert result.trace == ()


def test_inconsistent_data_aborts_with_pairs():
    d = Dataset.from_texts(["10", "11"], ["11"])
    with pytest.raises(ConsistencyAbort) as err:
        learn(d, TRACED)
    assert err.value.reason == "inconsistent-data"
    assert err.value.pairs == ((2, 1),)
    assert err.value.trace[-1] == "ABORT inconsistent-data"


def test_update_can_reveal_inconsistency(monkeypatch):
    # filling the negative's gap collides it with the second positive;
    # reduction finds the collision up front, updating finds it mid-run
    d = Dataset.from_texts(["011", "001"], ["0?1"])
    with pytest.raises(ConsistencyAbort) as err:
        learn(d)
    assert err.value.reason == "inconsistent-data"
    assert err.value.pairs == ((2, 1),)

    # with reduction off in both learners, each aborts right after the
    # update, in the check it keeps for that case
    monkeypatch.setattr(learner, "reduce_uncertainty", lambda w: w)
    monkeypatch.setattr(oracle, "_reduce_uncertainty", lambda w: w)
    with pytest.raises(ConsistencyAbort) as err:
        learn(d, TRACED)
    assert err.value.reason == "inconsistent-data"
    assert err.value.trace[-2:] == ("NEG_UPDATE v1 2 0", "ABORT inconsistent-data")
    assert _outcome(reference_learn, d) == _outcome(_traced_learn, d)

    # the smallest such case: x1 erases u2, and v1 then pins its one
    # Unknown to u1's value
    d = Dataset.from_texts(["0", "1"], ["?"])
    trace = (
        "SELECT x1 R=1/2", "ERASE_GROUP 1", "ERASE_SET 2 1", "TERM x1",
        "POS_ERASED u2", "NEG_UPDATE v1 1 0", "ABORT inconsistent-data",
    )
    for run in (_traced_learn, reference_learn):
        assert _outcome(run, d) == ("inconsistent-data", ((1, 1),), "", "", trace)


def test_learners_agree_on_update_time_aborts_without_reduction(monkeypatch):
    # reduction finds every collision an update could make, so neither
    # update-time check fires with it on; with it off, small dense data
    # reaches them often, and the two learners must still agree
    monkeypatch.setattr(learner, "reduce_uncertainty", lambda w: w)
    monkeypatch.setattr(oracle, "_reduce_uncertainty", lambda w: w)
    rng = random.Random(3)
    reached = 0
    for _ in range(2000):
        n, p, q = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
        rows = ["".join(rng.choice("01?") for _ in range(n)) for _ in range(p + q)]
        d = Dataset.from_texts(rows[:p], rows[p:])
        got = _outcome(_traced_learn, d)
        assert got == _outcome(reference_learn, d), (rows[:p], rows[p:])
        if isinstance(got, tuple) and got[0] == "inconsistent-data":
            reached += len(got[4]) > 1 and got[4][-2].startswith("NEG_UPDATE")
    assert reached > 20, reached


def test_iterations_never_exceed_positive_count():
    d = Dataset.from_texts(["100", "010", "001"], ["111", "000"])
    result = learn(d)
    assert result.iterations <= d.p


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_trace_prints_relevances_past_the_digit_limit():
    # the exact relevances of masked data run to over a thousand digits
    rng = random.Random(3)
    rows = [format(x, "020b") for x in rng.sample(range(1 << 20), 60)]
    complete = Dataset.from_texts(rows[:20], rows[20:])
    d = apply_mask(complete, make_mask(complete, "random", Fraction(1, 5), 3))
    untraced = learn(d)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit Python accepts
    try:
        traced = learn(d, TRACED)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(before)
    assert traced.formula == untraced.formula
    numerals = [
        line.rsplit("R=", 1)[1] for line in traced.trace if line.startswith("SELECT")
    ]
    assert max(len(part) for r in numerals for part in r.split("/")) > 640
    assert all(isinstance(Fraction(r), Fraction) for r in numerals)


def _traced_relevance(trace):
    return Fraction(trace[-1].rsplit("R=", 1)[1])


def _outcome(run, d):
    """The whole LearnResult, or the details of the abort."""
    try:
        return run(d)
    except ConsistencyAbort as abort:
        return (abort.reason, abort.pairs, abort.instance_id, abort.term, abort.trace)


def _traced_learn(d):
    return learn(d, TRACED)


def test_learner_equals_reference_on_random_ternary_data():
    # whole runs on masked data: formula, trace, final dataset and
    # iteration count, or every detail of the abort; this seed's 2000
    # datasets include both abort reasons random data reaches
    rng = random.Random(2)
    outcomes = set()
    for _ in range(2000):
        n, p, q = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 7)
        alphabet = rng.choice(("01?", "01??"))
        rows = ["".join(rng.choice(alphabet) for _ in range(n)) for _ in range(p + q)]
        d = Dataset.from_texts(rows[:p], rows[p:])
        got = _outcome(_traced_learn, d)
        assert got == _outcome(reference_learn, d), (rows[:p], rows[p:])
        if isinstance(got, LearnResult):
            # untraced selection may skip the exact rescoring; same outcome
            assert learn(d) == replace(got, trace=())
            assert got.iterations == len(got.formula.terms)
            outcomes.add("learned")
        else:
            outcomes.add(got[0])
    assert {"learned", "inconsistent-data", "empty-constraint-set"} <= outcomes, outcomes


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.text("01?", min_size=n, max_size=n), min_size=1, max_size=6),
    st.lists(st.text("01?", min_size=n, max_size=n), max_size=6),
)))
def test_learner_equals_reference_on_drawn_ternary_data(rows):
    d = Dataset.from_texts(*rows)
    assert _outcome(_traced_learn, d) == _outcome(reference_learn, d)


def _masked_rows(seed, n, p, q, fraction):
    """p positive and q negative distinct random rows of width n, with the
    given fraction of cells blanked."""
    rng = random.Random(seed)
    rows = [format(x, f"0{n}b") for x in rng.sample(range(1 << n), p + q)]
    complete = Dataset.from_texts(rows[:p], rows[p:])
    return apply_mask(complete, make_mask(complete, "random", fraction, seed))


def test_learner_equals_reference_at_benchmark_scale():
    # p + q = 60 puts the grade scale at 2^61, where the leading tier
    # decides most picks alone; later iterations open their terms on rows
    # that negative updates edited
    regraded = False
    for seed in range(4):
        d = _masked_rows(seed, 20, 20, 40, Fraction(1, 5))
        got = _traced_learn(d)
        assert got == reference_learn(d), seed
        assert learn(d) == replace(got, trace=())
        updates = sum(line.startswith("NEG_UPDATE") for line in got.trace)
        regraded |= got.iterations >= 3 and updates >= 1
    assert regraded


def test_engine_constants_are_kept_per_variable_count_and_width():
    # the unit word, dilation and lane masks depend on n as well as on
    # the field width W: 20 rows on 6 and on 40 variables, both at W = 8,
    # learned in either order from no kept constants.  At n = 40 the
    # 80-bit masks are wider than one 64-bit word
    cases = {n: _masked_rows(n, n, 8, 12, Fraction(1, 5)) for n in (6, 40)}
    for order in ((6, 40), (40, 6)):
        learner._layout.cache_clear()
        for n in order:
            d = cases[n]
            assert _outcome(_traced_learn, d) == _outcome(reference_learn, d), (order, n)
        info = learner._layout.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2), (order, info)
        # and those two are the constants kept: asking for them again hits
        learner._layout(6, 8)
        learner._layout(40, 8)
        assert learner._layout.cache_info()[:2] == (2, 2)


def test_certain_rows_are_selected_from_their_exact_leads(monkeypatch):
    # with no open cell every set has nr = 0, so a literal's leading tier
    # is its exact score and ``select`` scores its cluster from the tiers
    # without rescoring; random certain rows, whose picks often tie,
    # learned traced, equal the reference and never call ``scores``
    def refuse(self, codes):
        raise AssertionError(f"scores({codes}) on certain rows")

    monkeypatch.setattr(_TermEngine, "scores", refuse)
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 6)
        rows = [format(x, f"0{n}b") for x in rng.sample(range(1 << n), rng.randint(2, min(12, 1 << n)))]
        p = rng.randint(1, len(rows) - 1)
        d = Dataset.from_texts(rows[:p], rows[p:])
        assert _traced_learn(d) == reference_learn(d), rows


def test_learner_equals_reference_when_the_scale_is_small():
    # with p + q <= 4 the grade scale 2^(p+q+1) is at most 32, below
    # 2n = 40, so a set's half and quarter grades can outweigh one full
    # grade in its cardinality and the leading tier cannot decide alone;
    # half the cells blanked makes such sets common
    rng = random.Random(7)
    for k in range(200):
        p = rng.randint(1, 3)
        q = rng.randint(0, 4 - p)
        d = _masked_rows(k, 20, p, q, Fraction(1, 2))
        got = _outcome(_traced_learn, d)
        assert got == _outcome(reference_learn, d), k
        if isinstance(got, LearnResult):
            assert learn(d) == replace(got, trace=())


def test_a_forced_pick_equals_the_scored_one(monkeypatch):
    # untraced, a term closes unsummed when one literal is decided true
    # by every live positive and false by every live negative: at an
    # opening, or after a pick.  A planted column that every positive has
    # certainly and most or every negative certainly opposite forces
    # picks; where only part of the negatives oppose it certainly, the
    # term closes only after a pick erases the rest.  With no negatives
    # the term is empty; untraced learns equal the reference
    seen, selects = Counter(), Counter()
    real_term, real_select, real_forced = _TermEngine.term, _TermEngine.select, _TermEngine._forced

    def term(self, us, vs):
        selects.clear()
        return real_term(self, us, vs)

    def select(self):
        selects["this term"] += 1
        return real_select(self)

    def forced(self):
        code = real_forced(self)
        if code is not None:
            seen["after a pick" if selects["this term"] else "at an opening"] += 1
        return code

    def outcome(run, d):
        try:
            result = run(d)
        except ConsistencyAbort as abort:
            return abort.reason, abort.pairs, abort.instance_id, abort.term
        rows = (*result.dataset.positives, *result.dataset.negatives)
        return result.formula, [(x.text, x.label, x.id) for x in rows], result.iterations

    monkeypatch.setattr(_TermEngine, "term", term)
    monkeypatch.setattr(_TermEngine, "select", select)
    monkeypatch.setattr(_TermEngine, "_forced", forced)
    rng = random.Random(40)
    for _ in range(2000):
        n, p, q = rng.randint(1, 7), rng.randint(1, 8), rng.randint(0, 8)
        alphabet = rng.choice(("01", "01?", "0?1??", "0001?"))
        rows = [[rng.choice(alphabet) for _ in range(n)] for _ in range(p + q)]
        if rng.random() < 0.8:
            col, sign = rng.randrange(n), rng.choice("01")
            opposite = "10"[int(sign)]
            partial = rng.random() < 0.5
            for k, row in enumerate(rows):
                row[col] = sign if k < p else rng.choice(opposite + "?") if partial else opposite
        rows = ["".join(row) for row in rows]
        d = Dataset.from_texts(rows[:p], rows[p:])
        assert outcome(learn, d) == outcome(reference_learn, d), (rows[:p], rows[p:])
    assert seen["at an opening"] > 200 and seen["after a pick"] > 100, seen


def _tier_fields(engine):
    """The engine's tier words as field values, whatever its field width."""
    w, field = engine.width, engine.field
    return {t: [word >> c * w & field for c in range(2 * engine.n)] for t, word in engine.tiers.items()}


def test_carried_openings_equal_a_fresh_sum(monkeypatch):
    # at every sum of a learn, the tiers equal those of a fresh engine
    # opened on the same live rows, and a term's first sum carries its
    # lists from the last opening that was summed; between two
    # openings, negative updates edit negatives (masked rows), reduction
    # re-makes a kept positive (v5 is pinned to 010?, then reduction fills
    # it to 0100 and u2 to 0110), and dedupe drops a negative (v2 once v1
    # is filled)
    seen = Counter()
    real_carry, real_sum = _TermEngine._carry, _TermEngine._sum

    def carry(self):
        # only a term's first sum carries lists from the last opening
        # that was summed, which self.opened holds until _carry returns
        last = self.opened
        slots = real_carry(self)
        if last is not None and len(self.live_v) < len(last[0]):
            seen["dropped"] += 1
        if slots:
            seen["carried"] += 1
            seen["edited"] += any(old[0] != new[0] for old, new in zip(last[0], self.live_v))
            seen["remade"] += any(u[0] not in slots for u in self.live_u)
        seen["openings"] += 1
        return slots

    def sum_(self, slots):
        self.tiers = real_sum(self, slots)
        fresh = _TermEngine(self.n, len(self.live_u), len(self.live_v), None)
        fresh.open([u[:2] for u in self.live_u], [v[:2] for v in self.live_v])
        fresh.tiers = real_sum(fresh, {})
        assert _tier_fields(self) == _tier_fields(fresh)
        return self.tiers

    monkeypatch.setattr(_TermEngine, "_carry", carry)
    monkeypatch.setattr(_TermEngine, "_sum", sum_)
    cases = [_masked_rows(seed, 20, 20, 40, Fraction(1, 5)) for seed in range(4)]
    cases.append(Dataset.from_texts(["0101", "01?0", "10?1"], ["0?10", "1000", "1100", "1001", "01??"]))
    cases.append(Dataset.from_texts(["?00", "???", "0?1"], ["0?1", "00?", "?0?", "1?0"]))
    rng = random.Random(3)
    for _ in range(300):
        n, p, q = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        rows = ["".join(rng.choice("01??") for _ in range(n)) for _ in range(p + q)]
        cases.append(Dataset.from_texts(rows[:p], rows[p:]))
    for d in cases:
        try:
            learn(d)
        except ConsistencyAbort:
            pass
    assert seen["openings"] > 300 and seen["edited"] and seen["remade"] and seen["dropped"], seen


def test_trace_positions_follow_a_dropped_negative():
    # the first term's updates make v2 equal to v1 once reduction fills
    # v1, so the second iteration drops v2 and v4 moves to column 3
    d = Dataset.from_texts(["?00", "???", "0?1"], ["0?1", "00?", "?0?", "1?0"])
    result = _traced_learn(d)
    assert result == reference_learn(d)
    second = result.trace.index("TERM ~x3 ~x1") + 1
    assert "ERASE_SET 2 4" in result.trace[:second]
    assert "ERASE_SET 1 3" in result.trace[second:]
    assert not any(line.endswith(" 4") for line in result.trace[second:] if line.startswith("ERASE"))
    assert [v.id for v in result.dataset.negatives] == ["v1", "v3", "v4"]
    assert result.iterations == 2


def test_striking_the_complement_can_empty_a_set():
    # ~x1 erases pair (1, 3); x3 then strikes ~x3, the last literal of (2, 1)
    d = Dataset.from_texts(["011", "?0?"], ["0?1", "010", "1?1"])
    for run in (_traced_learn, reference_learn):
        with pytest.raises(ConsistencyAbort) as err:
            run(d)
        assert err.value.reason == "empty-constraint-set"
        assert err.value.pairs == ((2, 1),)
        assert err.value.trace[-2:] == ("ERASE_SET 2 2", "ABORT empty-constraint-set")


def _admits(inst, lit, negative):
    """Whether the row's cell leaves ``lit`` possible: not false in a
    positive row, not true in a negative one."""
    cell = inst.cell(lit.var - 1)
    return (cell.negated if lit.neg else cell) is not (Trit.TRUE if negative else Trit.FALSE)


def _leading_tiers(sets, n):
    """Each literal's leading tier from sets of exact grades: 1/nf for a
    full grade in a set with nf >= 1 full grades, and in a set with none,
    the literal's grade over the set's cardinality."""
    tiers = [Fraction(0)] * (2 * n)
    for grades in sets:
        nf = sum(g == 1 for g in grades.values())
        card = sum(grades.values())
        for c, g in grades.items():
            if not nf:
                tiers[c] += g / card
            elif g == 1:
                tiers[c] += Fraction(1, nf)
    return tiers


def _engine_tiers(engine):
    """Each literal's leading tier read from the engine's packed tier words."""
    tiers = [Fraction(0)] * (2 * engine.n)
    for t, fields in _tier_fields(engine).items():
        for c, field in enumerate(fields):
            tiers[c] += Fraction(field, t)
    return tiers


def test_a_terms_live_sets_form_a_rectangle():
    # whole terms replayed on plain dicts of oracle.membership grades with
    # exact first-max picks, as reference_learn keeps them, on raw rows
    # dense in Unknowns, with a _TermEngine stepped beside them: the engine
    # keeps only the rectangle of rows and strikes a pick's complement from
    # each kept positive's open mask, which is sound only if these hold.
    # The engine is summed after every apply that leaves a set live, as
    # ``term`` sums it before each select
    rng = random.Random(5)
    cases = [
        # an all-? negative decides no literal: it has nf = 0 against
        # every positive, though its off mask, and so its dilated off
        # word, is 0
        (["10", "0?"], ["01", "??"]),
        # u1 has nf = 0 with v1 and v3 and, between them, the all-? v2;
        # the pick ~x2 keeps v1 and v3 and strikes x2 from u1, which
        # empties (1, 3) but not (1, 1), so the abort names (1, 3), past
        # a set that is graded and kept
        (["1?", "00", "?0"], ["?0", "??", "10", "?1", "?1"]),
    ]
    for _ in range(300):
        n, p, q = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        rows = ["".join(rng.choice("01??") for _ in range(n)) for _ in range(p + q)]
        cases.append((rows[:p], rows[p:]))
    ends = []
    for rows in cases:
        d = Dataset.from_texts(*rows)
        n, p, q = d.n, d.p, d.q
        lits = [Literal(neg, k) for neg in (False, True) for k in range(1, n + 1)]
        first = {
            (i, j): {c: g for c, lit in enumerate(lits) if (g := oracle.membership(u, v, lit, p, q))}
            for i, u in enumerate(d.positives) for j, v in enumerate(d.negatives)
        }
        if not all(first.values()):
            continue  # equal certain rows, which the consistency check rejects
        engine = summed(_TermEngine(n, p, q, []), d)
        sets, picks = first, []
        while sets and all(sets.values()):
            assert _engine_tiers(engine) == _leading_tiers(sets.values(), n), rows
            scores = {}
            for grades in sets.values():
                card = sum(grades.values())
                for c, g in grades.items():
                    scores[c] = scores.get(c, Fraction(0)) + g / card
            best = max(scores.values())
            code = min(c for c, score in scores.items() if score == best)
            assert engine.scores(range(2 * n)) == {c: scores.get(c, 0) for c in range(2 * n)}, rows
            assert engine.select() == code, rows
            picks.append(code)
            comp = (code + n) % (2 * n)
            covered = {i for (i, _), grades in sets.items() if code in grades}
            sets = {
                (i, j): {c: g for c, g in grades.items() if c != comp}
                for (i, j), grades in sets.items() if i in covered and code not in grades
            }
            live_u = [i for i, u in enumerate(d.positives)
                      if all(_admits(u, lits[c], False) for c in picks)]
            live_v = [j for j, v in enumerate(d.negatives)
                      if not any(_admits(v, lits[c], True) for c in picks)]
            assert set(sets) == {(i, j) for i in live_u for j in live_v}, rows
            for (i, j), grades in sets.items():
                u = d.positives[i]
                struck = {(c + n) % (2 * n) for c in picks if u.cell(lits[c].var - 1) is Trit.UNKNOWN}
                assert grades == {c: g for c, g in first[i, j].items() if c not in struck}, rows
            empty = [(i + 1, j + 1) for (i, j), grades in sets.items() if not grades]
            engine.apply(code)
            if empty:
                # the engine aborts at the same pick, naming the first empty set
                with pytest.raises(ConsistencyAbort) as err:
                    summed(engine)
                assert (err.value.reason, err.value.pairs) == ("empty-constraint-set", (empty[0],))
            else:
                # learn erases the live positives of a finished term
                assert [u[3] - 1 for u in engine.live_u] == live_u, rows
                if sets:
                    summed(engine)
        assert bool(engine.live_v) == bool(sets), rows
        ends.append("term" if not sets else "empty-constraint-set")
    assert len(ends) > 200 and "empty-constraint-set" in ends


def test_packed_fields_hold_their_largest_sum():
    # x1 and x2 grade half in each of the p*q sets, which have no full
    # grade and nr = 4, so their fields of the one tier word hold 2*p*q;
    # the field width is the narrowest of 8, 16 and 32 bits that holds
    # 2*pairs, and 2*p*q = 128, 2^15 and 2^17 fill a field to its top bit
    # or spill into the next width; the tie goes to x1
    cases = [(p, q, p * q) for p, q in ((1, 1), (2, 2), (8, 8), (8, 16), (128, 128), (256, 256))]
    for p, q, pairs in cases:
        d = Dataset.from_texts(["11"] * p, ["??"] * q)
        trace: list[str] = []
        engine = summed(_TermEngine(d.n, p, q, trace), d)
        assert engine.width == min(w for w in (8, 16, 32) if 2 * pairs < 1 << w)
        assert engine.tiers == {4: 2 * p * q * (1 + (1 << engine.width))}
        assert engine.select() == 0
        assert _traced_relevance(trace) == Fraction(1, 2)
    # 2^31 - 1 pairs fill 32-bit fields; 2^31 pairs or more, up to
    # 2^63 - 1, are refused, naming p, q and the limit
    assert _TermEngine(2, 1, (1 << 31) - 1, None).width == 32
    for p, q in ((1, 1 << 31), (7, ((1 << 63) - 1) // 7), (46_341, 46_341)):
        with pytest.raises(TridnfError) as err:
            _TermEngine(2, p, q, None)
        assert type(err.value) is TridnfError
        assert str(err.value) == f"{p} positive and {q} negative rows make {p * q} constraint sets, past 2^31 - 1"


def test_the_engine_is_sized_from_the_deduplicated_rows():
    # 46,341 copies of one positive and of one negative row make more
    # than 2^31 input pairs, but dedupe leaves 1 + 1 rows, on which the
    # learn's one engine is made: it learns at once the formula of the
    # two rows, where sizing it from the input would refuse the learn
    expected = learn(certain_rows(4, [0b1101, 0b1100], 1)).formula
    assert learn(certain_rows(4, [0b1101] * 46_341 + [0b1100] * 46_341, 46_341)).formula == expected


def test_too_many_constraint_sets_are_refused_before_any_sum(monkeypatch):
    # 46,341 + 46,341 distinct certain rows make 46,341^2 > 2^31 sets,
    # which could fill a 32-bit field: the first iteration refuses them
    # once preprocessing has run, before any sum
    def refuse(self, slots):
        raise AssertionError("a sum ran")

    monkeypatch.setattr(_TermEngine, "_sum", refuse)
    d = certain_rows(17, random.Random(0).sample(range(1 << 17), 2 * 46_341), 46_341)
    with pytest.raises(TridnfError) as err:
        learn(d)
    assert type(err.value) is TridnfError
    assert str(err.value) == "46341 positive and 46341 negative rows make 2147488281 constraint sets, past 2^31 - 1"


def test_leads_equal_their_per_field_sum():
    # _leads sums every code's fields times floor(d/t), d = 2^30, in
    # 64-bit lanes, which W + 30 <= 62 bits never overflow; at each
    # width, n from 1 to 40 and random tier denominators, the leads equal
    # sum_t field_{t,c} * (d // t).  A code's fields add up to at most
    # 2*pairs, and every case has a code at that sum on tier 1, weighted
    # by d, so its lead needs all W + 30 bits
    rng = random.Random(11)
    d = learner._SCALE
    for w in (8, 16, 32):
        pairs = (1 << w - 1) - 1
        for n in range(1, 41):
            engine = _TermEngine(n, pairs, 1, None)
            assert engine.width == w
            tiers = sorted({1, *rng.sample(range(2, 4 * n + 2), rng.randint(0, min(10, 4 * n)))})
            fields = {t: [0] * (2 * n) for t in tiers}
            for c in range(2 * n):
                if c == n - 1:
                    fields[1][c] = 2 * pairs
                    continue
                total = rng.randint(0, 2 * pairs)
                cuts = sorted(rng.randint(0, total) for _ in tiers[1:])
                for t, low_cut, high_cut in zip(tiers, [0, *cuts], [*cuts, total]):
                    fields[t][c] = high_cut - low_cut
            engine.tiers = {t: sum(f << c * w for c, f in enumerate(fs)) for t, fs in fields.items()}
            naive = [sum(fields[t][c] * (d // t) for t in tiers) for c in range(2 * n)]
            leads = engine._leads()
            assert leads == naive, (w, n)
            assert leads[n - 1].bit_length() == w + 30


def test_select_is_exact_within_its_margin(monkeypatch):
    # at every select: each lead is within the slack plus the proven bound
    # of d times the exact score, every code below the floor scores below
    # the best, the cluster passed to ``scores`` is every code at or above
    # the floor, and the pick is the first exact maximum; on random
    # ternary rows, rows dense in ?, and rows closed under swapping x1 and
    # x2, whose scores tie
    real_select, real_scores, checked = _TermEngine.select, _TermEngine.scores, Counter()
    d, asked = learner._SCALE, []

    def scores(self, codes):
        asked.append(list(codes))
        return real_scores(self, codes)

    def select(self):
        lead, pairs = self._leads(), len(self.live_u) * len(self.live_v)
        slack, margin = 2 * pairs, 4 * pairs * self.n * d
        floor = max(lead) - slack - (margin >> self.scale.bit_length() - 1)
        exact = real_scores(self, range(2 * self.n))
        best = max(exact.values())
        for c, score in exact.items():
            # lead <= L_c * d < lead + slack, |L_c - exact_c| <= total*2n/scale,
            # half the margin over d*scale
            gap = (d * score - lead[c]) * 2 * self.scale
            assert -margin <= gap <= 2 * slack * self.scale + margin, c
            if lead[c] < floor:
                assert score < best, c
        asked.clear()
        code = real_select(self)
        assert code == min(c for c, score in exact.items() if score == best)
        if asked:
            assert asked == [[c for c, x in enumerate(lead) if x >= floor]]
            checked["clusters"] += 1
        checked["selects"] += 1
        return code

    monkeypatch.setattr(_TermEngine, "select", select)
    monkeypatch.setattr(_TermEngine, "scores", scores)
    rng = random.Random(13)
    cases = []
    for alphabet in ("01?", "0??", "01??????"):
        for _ in range(400):
            n, p, q = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            rows = ["".join(rng.choice(alphabet) for _ in range(n)) for _ in range(p + q)]
            cases.append((rows[:p], rows[p:]))
    for _ in range(200):
        n, p, q = rng.randint(2, 6), rng.randint(1, 4), rng.randint(1, 4)
        rows = ["".join(rng.choice("01?") for _ in range(n)) for _ in range(p + q)]
        swapped = [row[1] + row[0] + row[2:] for row in rows]
        cases.append((rows[:p] + swapped[:p], rows[p:] + swapped[p:]))
    for rows in cases:
        try:
            learn(Dataset.from_texts(*rows), TRACED)
        except ConsistencyAbort:
            pass
    assert checked["selects"] > 2000 and checked["clusters"] > 1000, checked


def test_floor_leaves_room_for_the_leads_rounding():
    # the floors of d/t leave each lead short of L_c * d by less than its
    # field total, and on many sets the margin term is too small to cover
    # that: without the slack in the floor, this case's fifth term comes
    # out x1 ~x3 x5 x7, not x1 ~x3 ~x6, and a sixth term follows.  Draw 7
    # of the search below: n = 7, 21 positives and 38 negatives over 0,
    # 1 and ?; on small data the margin term swamps the slack
    rng = random.Random(1)
    for _ in range(8):
        alpha = rng.choice(["01", "01?", "0011?"])
        n, p, q = rng.randint(3, 9), rng.randint(20, 40), rng.randint(20, 40)
        rows = ["".join(rng.choice(alpha) for _ in range(n)) for _ in range(p + q)]
    assert (alpha, n, p, q) == ("01?", 7, 21, 38)
    d = Dataset.from_texts(rows[:p], rows[p:])
    assert _outcome(_traced_learn, d) == _outcome(reference_learn, d)


def _certain_rectangles(rng, count):
    """Certain (positives, negatives) texts: random rows, and rows on which
    two literals tie at 1 with unequal tiers.  There one positive u meets
    three negatives that each differ from it at 3 variables, a always
    among them, and one that differs from it at b alone: a is full in
    three sets with nf = 3 and b in one set with nf = 1, and floor(d/3)
    rounds a's lead to d - 1 below b's d.  Variables are shuffled, signs
    flipped and columns on which every row agrees added at random."""
    for _ in range(count):
        if rng.random() < 0.5:
            n = rng.randint(2, 7)
            rows = [format(x, f"0{n}b") for x in rng.sample(range(1 << n), rng.randint(2, min(16, 1 << n)))]
            p = rng.randint(1, len(rows) - 1)
            yield rows[:p], rows[p:]
            continue
        differ = [{0, 1, 2}, {0, 1, 4}, {0, 2, 4}, {3}]  # a = 0 and b = 3 tie
        n = 5 + rng.randint(0, 3)
        order = rng.sample(range(n), n)
        u = [rng.choice("01") for _ in range(n)]
        negatives = [
            "".join("10"[int(u[k])] if order.index(k) in cols else u[k] for k in range(n)) for cols in differ
        ]
        yield ["".join(u)], rng.sample(negatives, len(negatives))


def test_certain_clusters_hold_every_exact_maximum(monkeypatch):
    # with no open cell every set adds exactly F_c/nf, so the floor is the
    # best lead less the slack 2*pairs alone: at every select of a term on
    # certain rows, the codes a traced engine scores from the tiers hold
    # every code whose exact score is the maximum, and traced or not the
    # pick is the first of them.  Where the tied literal a has the lower
    # code, its lead is below the best lead and only the slack keeps it
    real_tier_scores, asked, seen = _TermEngine._tier_scores, [], Counter()

    def tier_scores(self, codes):
        asked.append(set(codes))
        return real_tier_scores(self, codes)

    monkeypatch.setattr(_TermEngine, "_tier_scores", tier_scores)
    for positives, negatives in _certain_rectangles(random.Random(42), 600):
        d = Dataset.from_texts(positives, negatives)
        for trace in ([], None):
            engine = summed(_TermEngine(d.n, d.p, d.q, trace), d)
            while engine.live_v:
                exact = engine.scores(range(2 * d.n))
                best = max(exact.values())
                maxima = {c for c, score in exact.items() if score == best}
                lead = engine._leads()
                asked.clear()
                code = engine.select()
                assert code == min(maxima), (positives, negatives)
                if trace is not None:
                    assert len(asked) == 1 and maxima <= asked[0], (positives, negatives)
                    seen["selects"] += 1
                    seen["rounded"] += lead[code] < max(lead)
                engine.apply(code)
                if not engine.live_v or engine._forced() is not None:
                    break
                summed(engine)
    assert seen["selects"] > 1000 and seen["rounded"] > 50, seen


_WIDE_CERTAIN = """
import json, random
from tridnf import Dataset, Instance, Label, learn, verify_consistency
from tridnf.oracle import Verdict

n = 20000
rng = random.Random(3)
rows = [rng.getrandbits(n) for _ in range(40)]
full = (1 << n) - 1
d = Dataset(
    n,
    tuple(Instance(n, x, full, Label.POSITIVE) for x in rows[:20]),
    tuple(Instance(n, x, full, Label.NEGATIVE) for x in rows[20:]),
)
result = learn(d)
checks = verify_consistency(result.formula, d)
print(json.dumps({
    "terms": len(result.formula.terms),
    "consistent": all(c.verdict is Verdict.EXACT for c in checks),
}))
"""


def test_few_certain_rows_on_many_variables_learn_in_seconds():
    # 20 positive and 20 negative certain rows of 20,000 variables: late
    # in the learn p + q is small, so the scale 2^(p+q+1) is small and the
    # masked bound 4*pairs*n*d/scale would keep all 40,000 codes in the
    # cluster and score each from the tiers, about 25 s; on certain rows
    # the floor needs the slack alone and the cluster is a few codes
    src = str(Path(tridnf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WIDE_CERTAIN], env=env, capture_output=True, text=True, timeout=8,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["consistent"] and out["terms"] >= 2, out


_COPIES_THAT_CANNOT_FILL = """
from tridnf import Dataset, learn

print(learn(Dataset.from_texts(["10?1"] * 46_341, ["0?11"] * 46_341)).formula.to_json())
"""


def test_duplicated_rows_that_cannot_fill_learn_in_seconds():
    # no certain row faces a one-Unknown row of the other class, so the
    # uncertainty reduction has nothing to fill and returns at once; a
    # scan of every pair of these 46,341 + 46,341 rows would take minutes
    src = str(Path(tridnf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _COPIES_THAT_CANNOT_FILL], env=env, capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    deduplicated = learn(Dataset.from_texts(["10?1"], ["0?11"])).formula
    assert proc.stdout == deduplicated.to_json() + "\n"


def test_rows_with_equal_decided_masks_share_one_dilation(monkeypatch):
    # u1 = 10? decides x1 and ~x2 true, and v1 = 01? decides them false,
    # so the two rows have one decided mask; u2 = 0?1 and v2 = 1?0 share
    # another, and each pair shares its open mask.  Per learn, each
    # 2n-bit mask is dilated once, whichever rows and classes carry it
    calls = Counter()
    real_layout = learner._layout

    def layout(n, w):
        unit, real_dilate, lanes = real_layout(n, w)

        def dilate(bits):
            calls[bits] += 1
            return real_dilate(bits)

        return unit, dilate, lanes

    monkeypatch.setattr(learner, "_layout", layout)
    d = Dataset.from_texts(["10?", "0?1"], ["01?", "1?0"])
    expected = reference_learn(d)
    for run, want in ((learn, replace(expected, trace=())), (_traced_learn, expected)):
        calls.clear()
        assert run(d) == want
        # x1|~x2 and ~x1|x3 decided, then x3|~x3 and x2|~x2 open
        assert {0b010001, 0b001100, 0b100100, 0b010010} <= set(calls), calls
        assert set(calls.values()) == {1}, calls


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1 << 70), st.integers(1, 1 << 70)), max_size=40))
def test_split_sum_equals_the_fraction_sum(terms):
    assert learner._fraction_sum(terms) == sum((Fraction(num, den) for num, den in terms), Fraction(0))


def test_grades_of_one_variable_equal_the_membership_table():
    # for each of the 9 cell pairs and both signs of x1, the one word of
    # _grades that holds the literal's bit gives oracle.membership's
    # grade: full 1, half (1/2)^(p+q), quarter (1/2)^(p+q+1), none 0
    p, q = 2, 3
    for a in Trit:
        for b in Trit:
            u, v = Instance.from_cells((a,), Label.POSITIVE), Instance.from_cells((b,), Label.NEGATIVE)
            [(on, op)], [(off, v_op)] = learner._masks((u,), 1, False), learner._masks((v,), 1, True)
            full, half, quarter = learner._grades(on, op, off, v_op)
            for code, lit in enumerate((Literal(False, 1), Literal(True, 1))):
                weights = (Fraction(1), Fraction(1, 2 ** (p + q)), Fraction(1, 2 ** (p + q + 1)))
                held = [g for g, word in zip(weights, (full, half, quarter)) if word >> code & 1]
                assert len(held) <= 1, (a, b, lit.render())
                assert sum(held) == oracle.membership(u, v, lit, p, q), (a, b, lit.render())


def test_grades_of_dilated_masks_are_the_dilated_grades():
    # _sum grades dilated masks and scores plain ones: for every field
    # width W and n from 1 to 40, the two agree field by field
    rng = random.Random(8)
    for w in (8, 16, 32):
        for n in range(1, 41):
            dilate = learner._layout(n, w)[1]
            for _ in range(4):
                masks = [rng.getrandbits(2 * n) for _ in range(4)]
                dilated = [dilate(mask) for mask in masks]
                want = tuple(dilate(g) for g in learner._grades(*masks))
                assert learner._grades(*dilated) == want, (w, n, masks)


def test_masks_are_made_with_their_rows(monkeypatch):
    # learn makes a row's masks when the row is made: the first outer
    # iteration's rows, the rows of every iteration whose preprocessing
    # returned new data, and each negative it updates; an iteration whose
    # preprocessing returned its data as it was makes none
    made, given, seen = Counter(), [], Counter()
    real_masks, real_reduce, real_check = learner._masks, learner.reduce_uncertainty, learner.check_self_consistency

    def masks(rows, n, negative):
        rows = list(rows)
        made["rows"] += len(rows)
        return real_masks(rows, n, negative)

    def reduce(d):
        given.append(d)
        return real_reduce(d)

    def check(work):
        if len(given) == 1 or work is not given[-1]:
            made["expected"] += work.p + work.q
            seen["first" if len(given) == 1 else "remade"] += 1
        else:
            seen["kept"] += 1
        return real_check(work)

    monkeypatch.setattr(learner, "_masks", masks)
    monkeypatch.setattr(learner, "reduce_uncertainty", reduce)
    monkeypatch.setattr(learner, "check_self_consistency", check)
    cases = [_masked_rows(seed, 20, 20, 40, Fraction(1, 5)) for seed in range(2)]
    cases.append(Dataset.from_texts(["0101", "01?0", "10?1"], ["0?10", "1000", "1100", "1001", "01??"]))
    for d in cases:
        made.clear()
        given.clear()
        trace = learn(d, TRACED).trace
        made["expected"] += sum(line.startswith("NEG_UPDATE") for line in trace)
        assert made["rows"] == made["expected"], made
    assert seen["first"] == len(cases) and seen["remade"] and seen["kept"], seen


def test_exact_text_leaves_the_digit_limit_alone(monkeypatch):
    # numerator and denominator of over 4,300 digits, past the default
    # limit; the limit is process-wide, so it is neither read nor set
    value = Fraction(7**5300, 2 * 3**9300)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        expected = str(value)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)

    def refuse(*_):
        raise AssertionError("the int-to-str digit limit was touched")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    assert min(map(len, expected.split("/"))) > 4300
    assert learner._exact(value) == expected
    assert learner._exact(Fraction(-3)) == "-3" and learner._exact(Fraction(0)) == "0"
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_dilate_equals_its_string_definition():
    # the definition: write bits in binary and put width-1 zeros between digits
    def by_string(bits: int, n: int, width: int) -> int:
        return int(("0" * (width - 1)).join(format(bits, f"0{n}b")), 2)

    # for every field width the term engine picks, on masks of n digits
    # from 1 to 10,000, past one byte, one 64-bit word and a row of 320
    # variables' 640-bit masks
    rng = random.Random(5)
    for width in (8, 16, 32):
        for n in (1, 7, 8, 9, 16, 40, 63, 64, 320, 10_000):
            dilate = learner._dilation(n, width)
            for bits in (0, 1, (1 << n) - 1, 1 << (n - 1), *(rng.getrandbits(n) for _ in range(8))):
                assert dilate(bits) == by_string(bits, n, width), (bits, width)


def test_no_negatives_learn_the_empty_term():
    # q = 0 gives the narrowest field width, 8 bits; no pair is graded and
    # the one term is empty
    for rows in (["10"], ["1?", "01"], ["???"]):
        result = learn(Dataset.from_texts(rows, []), TRACED)
        assert result.formula.render() == "TRUE"
        assert result.iterations == 1


_ERASE_NOTHING = """
import json
from tridnf import ConsistencyAbort, Dataset, LearnerConfig, learn
from tridnf import formula, learner, oracle

out = {"debug": __debug__}
d = Dataset.from_texts(["110", "011"], ["000", "101"])

# emptying the engine's cover after the real term leaves the term
# covering no positive
real = learner._TermEngine.term
def term(self, us, vs):
    codes, _ = real(self, us, vs)
    return codes, []
learner._TermEngine.term = term
try:
    learn(d, LearnerConfig(trace=True))
except ConsistencyAbort as abort:
    out["learner"] = [abort.reason, abort.trace[-1]]
learner._TermEngine.term = real

# x1 together with ~x1 holds on no row, so no positive is erased
convert = oracle.term_from_codes
oracle.term_from_codes = lambda n, codes: formula.Term(
    convert(n, codes).literals + convert(n, (0, n)).literals
)
try:
    oracle.reference_learn(d)
except ConsistencyAbort as abort:
    out["oracle"] = abort.reason
print(json.dumps(out))
"""


def test_term_that_erases_no_positive_aborts_under_optimize():
    # python -O strips assert statements; the invariant must survive it
    src = str(Path(tridnf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _ERASE_NOTHING],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "debug": False,
        "learner": ["no-positive-erased", "ABORT no-positive-erased"],
        "oracle": "no-positive-erased",
    }


def test_term_certainly_true_on_a_negative_aborts(monkeypatch):
    # a correct run never closes such a term; the empty term (TRUE)
    # reaches the guard in both learners: in learn, the engine returns no
    # codes after its real term, and in reference_learn the converter
    # returns the empty term
    d = Dataset.from_texts(["110", "011"], ["000", "1?1"])
    real = _TermEngine.term
    monkeypatch.setattr(_TermEngine, "term", lambda self, *rows: ([], real(self, *rows)[1]))
    monkeypatch.setattr(oracle, "term_from_codes", lambda n, codes: Term(()))
    for run in (_traced_learn, reference_learn):
        with pytest.raises(ConsistencyAbort) as err:
            run(d)
        assert (err.value.reason, err.value.instance_id, err.value.term) == (
            "unfalsifiable-negative", "v1", "TRUE",
        )
        assert err.value.trace[-1] == "ABORT unfalsifiable-negative"


def test_learn_does_not_ask_the_term_which_rows_it_covers(monkeypatch):
    # reference_learn erases positives and updates negatives by asking
    # Term; learn answers from the engine's rows and the term's literal
    # mask, so a wrong Term rule moves only the reference.  The wrong rule
    # forgets negated literals: ~x1 then seems to hold on both negatives
    d = Dataset.from_texts(["00", "01"], ["10", "11"])
    before = (_outcome(_traced_learn, d), _outcome(reference_learn, d))
    monkeypatch.setattr(Term, "possibly_satisfied_by", lambda self, inst: not self.pos_mask & inst.zeros)
    assert _outcome(_traced_learn, d) == before[0]
    assert _outcome(reference_learn, d) != before[1]


def test_package_has_no_assert_statements():
    # invariants raise explicit errors, which python -O cannot strip
    package = Path(tridnf.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependencies; relative imports are its own
    package = Path(tridnf.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno} {name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
            else []
        )
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not found, found
