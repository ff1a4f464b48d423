"""The acceptance gate: nine numbered criteria, one test each.

Each test prints its measured numbers; the conftest hook echoes a
one-line PASS/FAIL verdict per criterion after the run.  Criterion 1
carries a companion expected-failure recording a value discrepancy in
one transcribed worked example (see the decisions ledger outside the
package).
"""

import math
import random
import time
from fractions import Fraction

import pytest
from conftest import summed, without_safeguards

from tridnf import (
    Dataset,
    Instance,
    Label,
    LearnerConfig,
    Literal,
    Verdict,
    learn,
    reduce_uncertainty,
    run_experiment,
    verify_consistency,
)
from tridnf.learner import _TermEngine
from tridnf.masking import RANDOM, TRUSTWORTHY
from tridnf.oracle import membership, reference_learn

H = Fraction(1, 2)


def test_criterion_1_worked_example_goldens():
    """Hand-checkable runs reproduce exactly, in trivial time."""
    started = time.perf_counter()

    d = Dataset.from_texts(["110?1"], ["10010"])
    assert membership(d.positives[0], d.negatives[0], Literal(True, 4), 1, 1) == Fraction(1, 4)
    assert learn(d).formula.render() == "x2"

    tied = learn(Dataset.from_texts(["1?0"], ["?00"]), LearnerConfig(trace=True))
    assert tied.formula.render() == "x1"
    assert tied.trace[0] == "SELECT x1 R=1/2"

    d = Dataset.from_texts(["100"], ["011", "101", "1?1"])
    assert learn(d).formula.render() == "~x3"

    d = Dataset.from_texts(["10?1"], ["0111", "1010"])
    assert membership(d.positives[0], d.negatives[1], Literal(True, 3), 1, 2) == Fraction(1, 8)
    assert learn(d).formula.render() == "x4 x1"

    reduced = reduce_uncertainty(Dataset.from_texts(["1?00"], ["1100", "100?"]))
    assert [i.text for i in reduced.positives] == ["1000"]
    assert [i.text for i in reduced.negatives] == ["1100", "1001"]

    d = Dataset.from_texts(["100", "?10"], ["1?0"])
    assert learn(d).formula.render() == "~x1 | ~x2"
    bare = without_safeguards(d)
    assert all(bare.evaluate(bits) for bits in range(1 << d.n))

    elapsed = time.perf_counter() - started
    print(f"criterion 1: goldens exact, {elapsed * 1000:.1f} ms")
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="transcribed value 1/32 contradicts the membership rule itself: "
    "a certain-0 cell against an unknown cell at exponent 4 grades "
    "(1/2)^4 = 1/16; the faithful value is asserted in criterion 8's "
    "independent recomputation",
)
def test_criterion_1_noted_membership_discrepancy():
    d = Dataset.from_texts(["100"], ["011", "101", "1?1"])
    assert membership(d.positives[0], d.negatives[2], Literal(True, 2), 1, 3) == Fraction(1, 32)


def test_criterion_2_crisp_equivalence_with_reference():
    """On certain data the learner matches the independent reimplementation."""
    started = time.perf_counter()
    rng = random.Random(402)
    for trial in range(200):
        n = rng.randint(3, 8)
        p = rng.randint(1, 10)
        q = rng.randint(1, 10)
        rows = rng.sample(range(2 ** n), min(p + q, 2 ** n))
        p = min(p, len(rows) - 1)  # distinct rows: consistent by construction
        d = Dataset(
            n,
            tuple(
                Instance.from_cells([(r >> k) & 1 for k in range(n)], Label.POSITIVE, f"u{i + 1}")
                for i, r in enumerate(rows[:p])
            ),
            tuple(
                Instance.from_cells([(r >> k) & 1 for k in range(n)], Label.NEGATIVE, f"v{j + 1}")
                for j, r in enumerate(rows[p:])
            ),
        )
        got = learn(d).formula
        want = reference_learn(d).formula
        assert got == want, f"trial {trial}: {got.render()} != {want.render()}"
        certs = verify_consistency(got, d)
        assert all(c.verdict is Verdict.EXACT for c in certs), f"trial {trial}"
    elapsed = time.perf_counter() - started
    print(f"criterion 2: 200 datasets literal-for-literal, {elapsed:.2f} s")
    assert elapsed < 30.0


CAPTION_FORMULAS = {
    1: "x4",
    2: "x2",
    3: "~x6 ~x1 x8 | x11 ~x3 x6 | x16 ~x8 ~x6",
    4: "x12 x3",
    5: "x16 x6 x8 x3",
    6: "x14 x10",
    7: "~x9 ~x14 | ~x10 x14",
}


def test_criterion_3_zero_missing_zoo(zoo_datasets):
    """E = 0 on every class is the hard gate; formula match is reported."""
    diffs = []
    for kind, complete in zoo_datasets.items():
        started = time.perf_counter()
        formula = learn(complete).formula
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"type {kind} took {elapsed:.2f} s"
        errors = sum(
            1 for inst in complete.positives if not formula.evaluate(inst.value_bits)
        ) + sum(1 for inst in complete.negatives if formula.evaluate(inst.value_bits))
        assert errors == 0, f"type {kind}: E={errors}"
        if formula.render() != CAPTION_FORMULAS[kind]:
            diffs.append(f"type {kind}: got {formula.render()!r}, published {CAPTION_FORMULAS[kind]!r}")
    if diffs:
        print("criterion 3: E=0 on all types; formula diffs (soft gate):")
        for line in diffs:
            print("  " + line)
    else:
        print("criterion 3: E=0 and exact formula match on all 7 types")


def test_criterion_4_consistency_or_abort(sweep):
    """No masked run ever ends with a silently violated working set."""
    completed = [r for r in sweep.runs if r.ok]
    aborted = [r for r in sweep.runs if not r.ok]
    assert completed, "sweep produced no completed runs"
    bad = [r for r in completed if r.violated]
    assert not bad, f"violated certificates in {len(bad)} runs: {bad[:3]}"
    for run in aborted:
        assert run.abort_reason, run
    print(
        f"criterion 4: {len(completed)} completed runs all certificate-clean, "
        f"{len(aborted)} aborted cleanly"
    )


def test_criterion_5_random_masking_bands(sweep):
    """Error-rate means over 10 seeds sit inside the published bands."""
    seeds = {r.seed for r in sweep.runs}
    assert len(seeds) >= 10
    at10 = sweep.mean_rate(RANDOM, Fraction(1, 10))
    at50 = sweep.mean_rate(RANDOM, Fraction(1, 2))
    print(
        f"criterion 5: mean R random 10%={float(at10):.4f} (<=0.02), "
        f"50%={float(at50):.4f} (<=0.15), sweep {sweep.elapsed:.1f} s"
    )
    assert at10 <= Fraction(2, 100)
    assert at50 <= Fraction(15, 100)
    assert sweep.elapsed < 60.0


def test_criterion_6_trustworthy_dominance(sweep):
    """Irrelevant-attribute blanking hurts less than random at every level."""
    at40 = sweep.mean_rate(TRUSTWORTHY, Fraction(2, 5))
    at50 = sweep.mean_rate(TRUSTWORTHY, Fraction(1, 2))
    assert at40 <= Fraction(1, 100)
    assert at50 <= Fraction(1, 100)
    pairs = []
    for fraction in sorted({r.fraction for r in sweep.runs}):
        trusted = sweep.mean_rate(TRUSTWORTHY, fraction)
        rand = sweep.mean_rate(RANDOM, fraction)
        assert trusted <= rand, f"at {fraction}: {trusted} > {rand}"
        pairs.append(f"{fraction}: {float(trusted):.4f}<={float(rand):.4f}")
    print("criterion 6: trustworthy mean R dominated at", "; ".join(pairs))


def test_criterion_7_termination(sweep):
    """Iterations stay within the positive count."""
    for run in sweep.runs:
        if run.ok:
            assert run.iterations <= run.masked_p, run
    print(f"criterion 7: iteration bound held on {len(sweep.runs)} runs")


def eq2_membership(u_cells, v_cells, p, q, k, neg):
    """Independent grade of one literal, straight from the membership table."""
    a, b = u_cells[k], v_cells[k]
    if neg:
        a, b = 1 - a, 1 - b
    if a == 1 and b == 0:
        return Fraction(1)
    if a == b == H:
        return H ** (p + q + 1)
    if a > b and H in (a, b):
        return H ** (p + q)
    return Fraction(0)


def test_criterion_8_exact_arithmetic_oracle():
    """Package grades and relevances equal a from-scratch rational recomputation.

    ``membership`` must equal the table above for every pair and literal,
    and the engine's exact score for every literal, rescored from its live
    rows, must equal the table's recomputation (zero for a literal no set
    grades).  Each literal's leading tier, read from the engine's packed
    tier words, must equal the one summed from the table: 1/nf per full
    grade in a set with nf >= 1 full grades, and the grade over the set's
    cardinality in a set with none.  Equality of every exact score implies
    every pairwise comparison agrees; ``select``'s argmax and traced value
    are checked too.
    """
    rng = random.Random(88)
    datasets = 0
    while datasets < 1000:
        n = rng.randint(2, 6)
        p = rng.randint(1, 5)
        q = rng.randint(1, 5)
        P = [[rng.choice((0, 1, H)) for _ in range(n)] for _ in range(p)]
        Q = [[rng.choice((0, 1, H)) for _ in range(n)] for _ in range(q)]
        cards = {}
        for i, u in enumerate(P):
            for j, v in enumerate(Q):
                cards[i, j] = sum(
                    eq2_membership(u, v, p, q, k, s) for k in range(n) for s in (False, True)
                )
        if any(card == 0 for card in cards.values()):
            continue  # normalization needs nonempty sets
        datasets += 1
        fulls = {
            (i, j): sum(eq2_membership(u, v, p, q, k, s) == 1 for k in range(n) for s in (False, True))
            for i, u in enumerate(P) for j, v in enumerate(Q)
        }
        d = Dataset(
            n,
            tuple(Instance.from_cells(u, Label.POSITIVE, f"u{i + 1}") for i, u in enumerate(P)),
            tuple(Instance.from_cells(v, Label.NEGATIVE, f"v{j + 1}") for j, v in enumerate(Q)),
        )
        trace: list[str] = []
        engine = summed(_TermEngine(n, p, q, trace), d)
        w, field = engine.width, engine.field
        exact = engine.scores(range(2 * n))
        scores = {}
        for code in range(2 * n):
            neg, k = code >= n, code % n
            lit = Literal(neg, k + 1)
            mine = Fraction(0)
            tier = Fraction(0)
            for i, u in enumerate(P):
                for j, v in enumerate(Q):
                    grade = eq2_membership(u, v, p, q, k, neg)
                    pkg = membership(d.positives[i], d.negatives[j], lit, p, q)
                    assert type(pkg) is Fraction and type(pkg.numerator) is int
                    assert pkg == grade, (lit.render(), i, j, pkg, grade)
                    mine += grade / cards[i, j]
                    if not fulls[i, j]:
                        tier += grade / cards[i, j]
                    elif grade == 1:
                        tier += Fraction(1, fulls[i, j])
            mine /= p * q
            scores[code] = mine
            assert exact[code] / engine.norm == mine, (lit.render(), exact[code], mine)
            # field c of each tier word over the word's denominator
            packed = sum(
                (Fraction(word >> code * w & field, t) for t, word in engine.tiers.items()),
                Fraction(0),
            )
            assert packed == tier, (lit.render(), packed, tier)

        best = max(scores.values())
        assert engine.select() == min(c for c, v in scores.items() if v == best)
        assert Fraction(trace[-1].split("R=")[1]) == best
    print(
        "criterion 8: 1000 datasets, every grade and every literal's exact "
        "score equal; argmax agreed"
    )


def test_criterion_9_desk_scale_performance(zoo_records):
    """The documented sweep finishes quickly; runtime growth is polynomial."""
    started = time.perf_counter()
    report = run_experiment(
        zoo_records,
        types=tuple(range(1, 8)),
        fractions=tuple(Fraction(k, 10) for k in range(1, 6)),
        modes=(RANDOM, TRUSTWORTHY),
        seeds=(1, 2),
    )
    sweep_elapsed = time.perf_counter() - started
    assert len(report.runs) == 7 * 2 * 5 * 2
    assert sweep_elapsed < 60.0

    rng = random.Random(20260819)
    n = 12
    sizes = (16, 32, 64, 128)
    timings = []
    for size in sizes:
        half = size // 2
        reps = []
        for _ in range(3):
            rows = rng.sample(range(2 ** n), size)
            d = Dataset(
                n,
                tuple(
                    Instance.from_cells([(r >> k) & 1 for k in range(n)], Label.POSITIVE, f"u{i + 1}")
                    for i, r in enumerate(rows[:half])
                ),
                tuple(
                    Instance.from_cells([(r >> k) & 1 for k in range(n)], Label.NEGATIVE, f"v{j + 1}")
                    for j, r in enumerate(rows[half:])
                ),
            )
            t0 = time.perf_counter()
            learn(d)
            reps.append(time.perf_counter() - t0)
        timings.append(min(reps))

    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in timings]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    print(
        f"criterion 9: 140-run sweep {sweep_elapsed:.1f} s; "
        f"fitted exponent {slope:.2f} over sizes {sizes}"
    )
    assert slope <= 3.5
