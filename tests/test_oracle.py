"""Brute-force verifiers: certificates, exhaustive search, reference learner."""

import random

import pytest

from tridnf import (
    BudgetExceededError,
    Dataset,
    Instance,
    Label,
    Verdict,
    learn,
    minimal_dnf_exhaustive,
    parse_formula,
    reference_brain,
    verify_consistency,
)


def certify(formula_text, pos, neg):
    width = len((pos + neg)[0])
    f = parse_formula(formula_text, n=width)
    d = Dataset.from_texts(pos, neg)
    return verify_consistency(f, d)


def test_certain_instances_get_exact_verdicts():
    certs = certify("x1", ["10"], ["01"])
    assert [c.verdict for c in certs] == [Verdict.EXACT, Verdict.EXACT]
    assert all(c.witness is None for c in certs)
    assert all(c.ok for c in certs)


def test_certain_mismatch_is_violated():
    (cert,) = certify("x1", ["01"], [])
    assert cert.verdict is Verdict.VIOLATED
    assert not cert.ok


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

    f = parse_formula("x1", n=31)
    d = Dataset.from_texts(["1" + "?" * 30], [])
    (wide,) = verify_consistency(f, d)
    assert wide.verdict is Verdict.COMPLETION_WITNESS
    assert wide.witness == (1,) + (0,) * 30


def test_unsatisfiable_uncertain_negative_is_violated():
    (cert,) = certify("x1 | ~x1", [], ["??"])
    assert cert.verdict is Verdict.VIOLATED


def test_completion_budget_is_enforced():
    f = parse_formula(" ".join(f"x{k}" for k in range(1, 26)), n=25)
    d = Dataset.from_texts(["?" * 25], [])
    with pytest.raises(BudgetExceededError):
        verify_consistency(f, d)


def test_verdicts_are_mutually_exclusive():
    rng = random.Random(5)
    f = parse_formula("x1 x2 | ~x3", n=4)
    for _ in range(50):
        text = "".join(rng.choice("01?") for _ in range(4))
        label = rng.choice([Label.POSITIVE, Label.NEGATIVE])
        d = Dataset(4, (Instance.from_text(text, Label.POSITIVE),), ()) \
            if label is Label.POSITIVE else \
            Dataset(4, (), (Instance.from_text(text, Label.NEGATIVE),))
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
    assert reference_brain(d) == learn(d).formula


def test_reference_brain_matches_learner_on_uncertain_data():
    d = Dataset.from_texts(["1?0", "?11"], ["0?0", "10?"])
    assert reference_brain(d) == learn(d).formula
