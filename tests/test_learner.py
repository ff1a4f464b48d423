"""Learner behavior: golden runs, tracing, ids, aborts, determinism."""

import ast
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import without_safeguards
from hypothesis import given, settings
from hypothesis import strategies as st

import tridnf
from tridnf import (
    ConsistencyAbort,
    Dataset,
    LearnerConfig,
    LearnResult,
    Literal,
    Term,
    Trit,
    apply_mask,
    learn,
    make_mask,
    reference_learn,
)
from tridnf import learner, oracle
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
    d = Dataset.from_texts(["1?0"], ["?00"], pos_ids=["ada"], neg_ids=["bob"])
    result = learn(d, TRACED)
    assert "POS_ERASED ada" in result.trace
    assert "NEG_UPDATE bob 1 0" in result.trace


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
    for t, word in engine.tiers.items():
        for c in range(2 * engine.n):
            tiers[c] += Fraction(word >> c * engine.width & engine.field, t)
    return tiers


def test_a_terms_live_sets_form_a_rectangle():
    # whole terms replayed on plain dicts of oracle.membership grades with
    # exact first-max picks, as reference_learn keeps them, on raw rows
    # dense in Unknowns, with a _TermEngine stepped beside them: the engine
    # keeps only the rectangle of rows and strikes a pick's complement from
    # each kept positive's open mask, which is sound only if these hold
    rng = random.Random(5)
    cases = [
        # an all-? negative decides no literal, so its dilated off word is
        # zero and only its sentinel bit shows the kernel a set with nf = 0
        (["10", "0?"], ["01", "??"]),
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
        engine = _TermEngine(n, p * q, None)
        engine.open(list(d.positives), list(d.negatives))
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
            if empty:
                # the engine aborts at the same pick, naming the first empty set
                with pytest.raises(ConsistencyAbort) as err:
                    engine.apply(code)
                assert (err.value.reason, err.value.pairs) == ("empty-constraint-set", (empty[0],))
            else:
                engine.apply(code)
                # learn erases the live positives of a finished term
                assert [u[3] - 1 for u in engine.live_u] == live_u, rows
        assert bool(engine.live_v) == bool(sets), rows
        ends.append("term" if not sets else "empty-constraint-set")
    assert len(ends) > 200 and "empty-constraint-set" in ends


def test_packed_fields_hold_their_largest_sum():
    # x1 and x2 grade half in each of the p*q sets, which have no full
    # grade and nr = 4, so their fields of the one tier word hold 2*p*q;
    # the field width is the narrowest of 8, 16, 32 and 64 bits that holds
    # it, and 2*p*q = 128, 2^15 and 2^17 fill a field to its top bit or
    # spill into the next width; the tie goes to x1
    for p, q in ((1, 1), (2, 2), (8, 8), (8, 16), (128, 128), (256, 256)):
        d = Dataset.from_texts(["11"] * p, ["??"] * q)
        trace: list[str] = []
        engine = _TermEngine(d.n, p * q, trace)
        engine.open(list(d.positives), list(d.negatives))
        assert engine.width == min(w for w in (8, 16, 32, 64) if 2 * p * q < 1 << w)
        assert engine.tiers == {4: 2 * p * q * (1 + (1 << engine.width))}
        assert engine.select() == 0
        assert _traced_relevance(trace) == Fraction(1, 2)


def test_dilate_equals_its_string_definition():
    # the definition: write bits in binary and put width-1 zeros between digits
    def by_string(bits: int, n: int, width: int) -> int:
        return int(("0" * (width - 1)).join(format(bits, f"0{n}b")), 2)

    rng = random.Random(5)
    for width in range(1, 41):
        for n in (1, 7, 8, 9, 16, 40, 63, 64):
            for bits in (0, 1, (1 << n) - 1, 1 << (n - 1), *(rng.getrandbits(n) for _ in range(8))):
                assert learner._dilate(bits, width) == by_string(bits, n, width), (bits, width)


def test_no_negatives_learn_the_empty_term():
    # q = 0 gives the narrowest field width, 8 bits; no pair is graded and
    # the one term is empty
    for rows in (["10"], ["1?", "01"], ["???"]):
        result = learn(Dataset.from_texts(rows, []), TRACED)
        assert result.formula.render() == "TRUE"
        assert result.iterations == 1


_ERASE_NOTHING = """
import json
from tridnf import ConsistencyAbort, Dataset, LearnerConfig, learn, reference_brain
from tridnf import formula, learner, oracle

out = {"debug": __debug__}
d = Dataset.from_texts(["110", "011"], ["000", "101"])

# the engine's live positives are the term's cover; emptying them after
# the real term leaves the term covering no positive
real = learner._TermEngine.term
def term(self, positives, negatives):
    codes = real(self, positives, negatives)
    self.live_u = []
    return codes
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
    reference_brain(d)
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
    monkeypatch.setattr(_TermEngine, "term", lambda self, *rows: real(self, *rows)[:0])
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
    monkeypatch.setattr(Term, "certainly_false", lambda self, inst: bool(self.pos_mask & inst.zeros))
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
