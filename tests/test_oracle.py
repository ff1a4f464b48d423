"""Brute-force verifiers: certificates, exhaustive search, reference learner."""

import random

import pytest

from tridnf import (
    BudgetExceededError,
    ConsistencyCertificate,
    Dataset,
    DnfFormula,
    Instance,
    Label,
    Literal,
    Term,
    Trit,
    Verdict,
    learn,
    parse_formula,
    verify_consistency,
)
from tridnf.oracle import minimal_dnf_exhaustive, reference_learn


def certify(formula_text, pos, neg):
    f = parse_formula(formula_text)
    d = Dataset.from_texts(pos, neg)
    return verify_consistency(f, d)


def test_certain_instances_get_exact_verdicts():
    certs = certify("x1", ["10"], ["01"])
    assert [c.verdict for c in certs] == [Verdict.EXACT, Verdict.EXACT]
    assert all(c.witness is None for c in certs)


def test_certain_mismatch_is_violated():
    (cert,) = certify("x1", ["01"], [])
    assert cert.verdict is Verdict.VIOLATED



def test_unknown_cell_yields_completion_witness():
    (cert,) = certify("x1", ["?0"], [])
    assert cert.verdict is Verdict.COMPLETION_WITNESS
    assert cert.witness == (1, 0)


def test_witness_agrees_with_instance_on_certain_cells():
    certs = certify("x1 ~x3", ["??0?"], ["??1?"])
    for cert, inst in zip(certs, Dataset.from_texts(["??0?"], ["??1?"]).instances()):
        assert cert.verdict is Verdict.COMPLETION_WITNESS
        for k, cell in enumerate(inst.cells):
            if cell.is_certain:
                assert cert.witness[k] == int(cell) // 2


def test_unknowns_off_formula_variables_are_not_enumerated():
    # any unknown keeps the verdict a witness, but free cells are pinned
    # to 0 rather than searched, so wide gaps stay within budget
    (cert,) = certify("x1", ["1?"], [])
    assert cert.verdict is Verdict.COMPLETION_WITNESS
    assert cert.witness == (1, 0)

    f = parse_formula("x1")
    d = Dataset.from_texts(["1" + "?" * 30], [])
    (wide,) = verify_consistency(f, d)
    assert wide.verdict is Verdict.COMPLETION_WITNESS
    assert wide.witness == (1,) + (0,) * 30


def test_unsatisfiable_uncertain_negative_is_violated():
    (cert,) = certify("x1 | ~x1", [], ["??"])
    assert cert.verdict is Verdict.VIOLATED


def test_completion_budget_is_enforced():
    f = parse_formula(" ".join(f"x{k}" for k in range(1, 26)))
    d = Dataset.from_texts(["?" * 25], [])
    with pytest.raises(BudgetExceededError):
        verify_consistency(f, d)


def _spec_certificates(f, d, budget):
    """``verify_consistency`` by its definition: a certain row is checked
    directly; an uncertain row's Unknown cells on the formula's variables
    are completed in counter order (bit i of the counter on the i-th
    lowest such cell, every other Unknown at 0), and the first completion
    that gives the row's label is its witness."""
    used = set(f.vars_used)
    out = []
    for want, rows, prefix in ((True, d.positives, "u"), (False, d.negatives, "v")):
        for idx, inst in enumerate(rows, start=1):
            name = inst.id or f"{prefix}{idx}"
            if inst.is_certain:
                right = f.evaluate(inst.value_bits) == want
                out.append(ConsistencyCertificate(name, Verdict.EXACT if right else Verdict.VIOLATED))
                continue
            cells = [k for k in range(d.n) if k + 1 in used and inst.cell(k) is Trit.UNKNOWN]
            if 2 ** len(cells) > budget:
                raise BudgetExceededError(
                    f"instance {name!r} needs 2^{len(cells)} completions, budget {budget}"
                )
            found = ConsistencyCertificate(name, Verdict.VIOLATED)
            for counter in range(2 ** len(cells)):
                bits = [int(inst.cell(k) is Trit.TRUE) for k in range(d.n)]
                for pos, k in enumerate(cells):
                    bits[k] = counter >> pos & 1
                if f.evaluate(sum(b << k for k, b in enumerate(bits))) == want:
                    found = ConsistencyCertificate(name, Verdict.COMPLETION_WITNESS, tuple(bits))
                    break
            out.append(found)
    return out


def _outcome(check, f, d, budget):
    """The certificates ``check`` returns, or the class and message of its
    budget error."""
    try:
        return check(f, d, budget)
    except BudgetExceededError as exc:
        return type(exc), str(exc)


def test_verify_consistency_matches_its_definition():
    rng = random.Random(22)
    raised = witnessed = 0
    for trial in range(2500):
        n = rng.randint(1, 6)
        terms = tuple(
            Term(tuple(
                Literal(rng.random() < 0.5, rng.randint(1, n)) for _ in range(rng.randint(0, 3))
            ))
            for _ in range(rng.randint(0, 3))
        )

        def rows(label):
            return tuple(
                Instance.from_cells(
                    "".join(rng.choice("01??") for _ in range(n)), label, rng.choice(["", f"r{k}"])
                )
                for k in range(rng.randint(0, 4))
            )

        f = DnfFormula(n, terms)
        d = Dataset(n, rows(Label.POSITIVE), rows(Label.NEGATIVE))
        budget = rng.choice([1, 2, 4, 1 << 24])
        want = _outcome(_spec_certificates, f, d, budget)
        assert _outcome(verify_consistency, f, d, budget) == want, trial
        raised += isinstance(want, tuple)
        witnessed += isinstance(want, list) and any(c.witness is not None for c in want)
    # both outcomes are common, so neither path is pinned by chance alone
    assert raised > 300 and witnessed > 300


def test_verdicts_are_mutually_exclusive():
    rng = random.Random(5)
    f = parse_formula("x1 x2 | ~x3")
    for _ in range(50):
        text = "".join(rng.choice("01?") for _ in range(4))
        label = rng.choice([Label.POSITIVE, Label.NEGATIVE])
        d = Dataset(4, (Instance.from_cells(text, Label.POSITIVE),), ()) \
            if label is Label.POSITIVE else \
            Dataset(4, (), (Instance.from_cells(text, Label.NEGATIVE),))
        (cert,) = verify_consistency(f, d)
        assert cert.verdict in (Verdict.EXACT, Verdict.COMPLETION_WITNESS, Verdict.VIOLATED)
        assert (cert.witness is not None) == (cert.verdict is Verdict.COMPLETION_WITNESS)


def test_minimal_dnf_known_functions():
    d_and = Dataset.from_texts(["11"], ["01", "10", "00"])
    assert minimal_dnf_exhaustive(d_and).render() == "x1 x2"
    d_xor = Dataset.from_texts(["10", "01"], ["11", "00"])
    assert minimal_dnf_exhaustive(d_xor).render() == "x1 ~x2 | ~x1 x2"
    d_const = Dataset.from_texts([], ["11", "00"])
    assert minimal_dnf_exhaustive(d_const).render() == "FALSE"


def test_minimal_dnf_is_consistent_and_no_larger_than_greedy():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 4)
        rows = rng.sample(range(2 ** n), rng.randint(2, 2 ** n))
        cut = rng.randint(1, len(rows) - 1)
        d = Dataset.from_texts(
            [format(r, f"0{n}b") for r in rows[:cut]],
            [format(r, f"0{n}b") for r in rows[cut:]],
        )
        best = minimal_dnf_exhaustive(d)
        assert all(c.verdict is Verdict.EXACT for c in verify_consistency(best, d))
        greedy = learn(d).formula
        assert best.literal_count <= greedy.literal_count


def test_minimal_dnf_guards():
    with pytest.raises(ValueError):
        minimal_dnf_exhaustive(Dataset.from_texts(["1" * 7], ["0" * 7]))
    with pytest.raises(ValueError):
        minimal_dnf_exhaustive(Dataset.from_texts(["1?"], ["00"]))
    d_xor = Dataset.from_texts(["10", "01"], ["11", "00"])
    with pytest.raises(BudgetExceededError):
        minimal_dnf_exhaustive(d_xor, max_literals=3)


def test_reference_brain_matches_learner_on_certain_data():
    d = Dataset.from_texts(["110", "011"], ["000", "101"])
    assert reference_learn(d).formula == learn(d).formula


def test_reference_brain_matches_learner_on_uncertain_data():
    d = Dataset.from_texts(["1?0", "?11"], ["0?0", "10?"])
    assert reference_learn(d).formula == learn(d).formula
