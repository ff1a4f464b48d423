"""The benchmark's three workloads: their inputs, their op, and their output checks.

Every workload is a fixed list of distinct inputs made from the workload
seed; one pass calls the op once on each input, in list order.  Outputs
are checked against code kept apart from the learner (``reference_brain``,
``verify_consistency``, an error count written here) or against a property
U-BRAIN must have, never against a stored copy of an earlier output.

The program is reached only through module attributes (``learner.learn``,
``experiments.run_experiment``, ``oracle.verify_consistency``), so that the
traced run can wrap them.
"""
from __future__ import annotations

import random
from fractions import Fraction

from tridnf import datasets, experiments, learner, masking, oracle
from tridnf.formula import DnfFormula
from tridnf.oracle import Verdict
from tridnf.trits import Dataset, Instance, Label


def count_errors(formula: DnfFormula, complete: Dataset) -> int:
    """Rows of certain data whose label the formula gets wrong, evaluated here."""
    def holds(bits: int) -> bool:
        return any(
            all(((bits >> (lit.var - 1)) & 1) != lit.neg for lit in term.literals)
            for term in formula.terms
        )
    return (sum(not holds(u.value_bits) for u in complete.positives)
            + sum(holds(v.value_bits) for v in complete.negatives))


def violations(formula: DnfFormula, data: Dataset) -> int:
    return sum(c.verdict is Verdict.VIOLATED
               for c in oracle.verify_consistency(formula, data))


def _certain_dataset(n: int, pos: list[int], neg: list[int]) -> Dataset:
    full = (1 << n) - 1
    return Dataset(
        n,
        tuple(Instance(n, x, full, Label.POSITIVE, f"u{i}") for i, x in enumerate(pos, 1)),
        tuple(Instance(n, x, full, Label.NEGATIVE, f"v{i}") for i, x in enumerate(neg, 1)),
    )


class Workload:
    """One workload: ``prepare`` makes ``inputs``, ``op(k)`` runs input k.

    ``pass_seconds`` is the measured cost of one pass on the reference
    machine (see README); a run makes ``round(seconds / pass_seconds)``
    whole passes, so the work is fixed by the arguments alone.
    """

    name = ""
    pass_seconds = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs: list = []

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        self.op(0)

    def op(self, k: int):
        return learner.learn(self.inputs[k])

    def key(self, out):
        """What two ops on the same input must agree on."""
        return out

    def check(self, k: int, out) -> list[str]:
        raise NotImplementedError


class ZooSweep(Workload):
    """``run_experiment`` over the grid ``tridnf experiment`` runs by default.

    7 classes x {random, trustworthy} x {0, 10, ..., 50%} x 2 mask seeds:
    168 cells plus 7 reference learns.  The mask seeds are (seed, seed+1),
    so the default seed 1 gives the CLI's default seeds 1,2.
    """

    name = "zoo-sweep"
    pass_seconds = 4.4

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.types = (1, 4) if tiny else tuple(range(1, 8))
        self.fractions = tuple(Fraction(k, 10) for k in ((0, 2) if tiny else range(6)))
        self.modes = (masking.RANDOM, masking.TRUSTWORTHY)
        self.seeds = (seed,) if tiny else (seed, seed + 1)

    def prepare(self) -> None:
        self.records = datasets.load_zoo(datasets.bundled_zoo_path())
        self.inputs = [self.types]

    def warm_up(self) -> None:
        experiments.run_experiment(self.records, self.types[:1], self.fractions,
                                   self.modes, self.seeds)

    def op(self, k: int):
        return experiments.run_experiment(self.records, self.inputs[k], self.fractions,
                                          self.modes, self.seeds)

    def key(self, report):
        cells = tuple((r.positive_type, r.mode, r.fraction, r.seed, r.formula,
                       r.errors, r.size, r.abort_reason) for r in report.runs)
        return cells, report.references

    def check(self, k: int, report) -> list[str]:
        problems = []
        expected = len(self.types) * len(self.modes) * len(self.fractions) * len(self.seeds)
        if len(report.runs) != expected:
            problems.append(f"{len(report.runs)} cells, expected {expected}")
        for kind in self.types:
            complete = datasets.encode_zoo(self.records, kind)
            brain = oracle.reference_brain(complete)
            if report.reference_for(kind) != brain:
                problems.append(f"type {kind}: reference formula differs from reference_brain")
            for run in report.runs:
                if run.positive_type != kind or not run.ok:
                    continue
                cell = f"type {kind} {run.mode} {run.fraction} seed {run.seed}"
                if run.fraction == 0 and run.formula != brain:
                    problems.append(f"{cell}: differs from reference_brain")
                truth = brain if run.mode == masking.TRUSTWORTHY else None
                plan = masking.make_mask(complete, run.mode, run.fraction, run.seed, truth)
                if violations(run.formula, masking.apply_mask(complete, plan)):
                    problems.append(f"{cell}: violates the masked data")
                if run.errors != count_errors(run.formula, complete):
                    problems.append(f"{cell}: error count {run.errors} is wrong")
        return problems


class PlantedMasked(Workload):
    """Learn from planted-DNF data with 20% of its cells blanked.

    Each dataset has n = 20 and exactly ``p`` positives and ``q`` negatives,
    all distinct, labelled by a planted DNF of three 3-literal terms over
    disjoint variables (about a third of random rows satisfy it), then
    blanked by ``make_mask(..., "random", 1/5, ...)``.
    """

    name = "planted-masked"
    pass_seconds = 7.6
    n, terms, width = 20, 3, 3

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.p, self.q, self.count = (12, 24, 3) if tiny else (50, 100, 32)

    def prepare(self) -> None:
        self.inputs = [self._dataset(k) for k in range(self.count)]

    def _dataset(self, k: int) -> Dataset:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        chosen = rng.sample(range(self.n), self.terms * self.width)
        planted = [[(var, rng.random() < 0.5) for var in chosen[t::self.terms]]
                   for t in range(self.terms)]
        pos: list[int] = []
        neg: list[int] = []
        seen: set[int] = set()
        while len(pos) < self.p or len(neg) < self.q:
            x = rng.getrandbits(self.n)
            if x in seen:
                continue
            label = any(all(((x >> var) & 1) != negated for var, negated in term)
                        for term in planted)
            rows, want = (pos, self.p) if label else (neg, self.q)
            if len(rows) < want:
                rows.append(x)
                seen.add(x)
        complete = _certain_dataset(self.n, pos, neg)
        plan = masking.make_mask(complete, masking.RANDOM, Fraction(1, 5), rng.getrandbits(32))
        return masking.apply_mask(complete, plan)

    def check(self, k: int, result) -> list[str]:
        data = self.inputs[k]
        problems = []
        if violations(result.formula, data):
            problems.append(f"dataset {k}: formula violates the masked input")
        if violations(result.formula, result.dataset):
            problems.append(f"dataset {k}: formula violates result.dataset")
        given = {v.id: v for v in data.negatives}
        for v in result.dataset.negatives:
            src = given.get(v.id)
            if src is None:
                problems.append(f"dataset {k}: unknown negative {v.id!r}")
            elif src.known_bits & ~v.known_bits or (src.value_bits ^ v.value_bits) & src.known_bits:
                problems.append(f"dataset {k}: negative {v.id} lost a certain cell")
        return problems


class RandomCertain(Workload):
    """Learn from fully certain data with random labels.

    Each dataset has n = 12 and ``p`` + ``q`` distinct random rows, the
    first ``p`` drawn labelled positive; about 16 terms are needed.
    """

    name = "random-certain"
    pass_seconds = 4.2
    n = 12

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.p, self.q, self.count = (12, 12, 3) if tiny else (50, 50, 24)

    def prepare(self) -> None:
        self.inputs = []
        for k in range(self.count):
            rng = random.Random(f"{self.name}:{self.seed}:{k}")
            rows = rng.sample(range(1 << self.n), self.p + self.q)
            self.inputs.append(_certain_dataset(self.n, rows[:self.p], rows[self.p:]))

    def check(self, k: int, result) -> list[str]:
        data = self.inputs[k]
        problems = []
        if result.formula != oracle.reference_brain(data):
            problems.append(f"dataset {k}: formula differs from reference_brain")
        if any(c.verdict is not Verdict.EXACT
               for c in oracle.verify_consistency(result.formula, data)):
            problems.append(f"dataset {k}: a certificate is not EXACT")
        return problems


WORKLOADS = {w.name: w for w in (ZooSweep, PlantedMasked, RandomCertain)}
