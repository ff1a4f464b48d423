"""Brute-force verifiers, independent of the learner's machinery.

Everything here trades speed for obviousness: plain tuples, sets, and
Fractions, no bucketing, no bit-packed shortcuts beyond what a completion
counter needs.  Tests use these as ground truth against the optimized
learner; the CLI exposes them through the verify command.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    BudgetExceededError,
    ConsistencyAbort,
    SearchBudgetExceededError,
)
from .formula import DnfFormula, Term, term_from_codes
from .trits import Dataset, Instance


class Verdict(Enum):
    EXACT = "exact"
    COMPLETION_WITNESS = "completion-witness"
    VIOLATED = "violated"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class ConsistencyCertificate:
    """Per-instance outcome of checking a formula against the data.

    ``witness`` is a full 0/1 vector only for COMPLETION_WITNESS verdicts;
    it agrees with the instance on every certain cell.
    """

    instance_id: str
    verdict: Verdict
    witness: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.verdict is not Verdict.VIOLATED


def verify_consistency(
    f: DnfFormula,
    d: Dataset,
    budget: int = 1 << 24,
) -> list[ConsistencyCertificate]:
    """One certificate per instance, positives first.

    Certain instances are evaluated directly.  Uncertain ones are checked
    by enumerating completions of the Unknown cells on the formula's own
    variables only (the others cannot change the formula's value, and the
    reported witness fixes them to 0).
    """
    if d.n != f.n:
        raise ValueError(f"formula over {f.n} variables, data over {d.n}")
    var_mask = 0
    for var in f.vars_used:
        var_mask |= 1 << (var - 1)

    out: list[ConsistencyCertificate] = []
    for want, instances, prefix in ((True, d.positives, "u"), (False, d.negatives, "v")):
        for idx, inst in enumerate(instances, start=1):
            out.append(_certify(f, inst, want, inst.id or f"{prefix}{idx}", var_mask, budget))
    return out


def _certify(
    f: DnfFormula,
    inst: Instance,
    want: bool,
    instance_id: str,
    var_mask: int,
    budget: int,
) -> ConsistencyCertificate:
    if inst.is_certain:
        verdict = Verdict.EXACT if f.evaluate(inst.value_bits) == want else Verdict.VIOLATED
        return ConsistencyCertificate(instance_id, verdict)

    free = inst.unknowns & var_mask
    cells = []
    mask = free
    while mask:
        low = mask & -mask
        cells.append(low.bit_length() - 1)
        mask ^= low
    if (1 << len(cells)) > budget:
        raise SearchBudgetExceededError(
            f"instance {instance_id!r} needs 2^{len(cells)} completions, budget {budget}"
        )
    base = inst.value_bits  # certain ones; every Unknown cell starts at 0
    for counter in range(1 << len(cells)):
        bits = base
        for pos, k in enumerate(cells):
            if (counter >> pos) & 1:
                bits |= 1 << k
        if f.evaluate(bits) == want:
            witness = tuple((bits >> k) & 1 for k in range(inst.n))
            return ConsistencyCertificate(instance_id, Verdict.COMPLETION_WITNESS, witness)
    return ConsistencyCertificate(instance_id, Verdict.VIOLATED)


def minimal_dnf_exhaustive(d: Dataset, max_literals: int = 12) -> DnfFormula:
    """Smallest consistent DNF by exhaustive search; desk-scale only.

    Candidates are ranked by total literal count, then term count, then
    lexicographically by sorted literal codes; the first consistent
    formula wins.  Only terms that are false on every negative instance
    can appear (any other term misclassifies at once), and at the minimal
    literal count every term of a solution must cover a positive no other
    term covers, so the search may demand fresh coverage from each pick.
    """
    if d.n > 6:
        raise ValueError("exhaustive search is limited to n <= 6")
    if not d.all_certain:
        raise ValueError("exhaustive search needs fully certain data")

    n = d.n
    positives = [inst.value_bits for inst in d.positives]
    negatives = [inst.value_bits for inst in d.negatives]

    # all 3^n terms as sorted code tuples, kept when false on all negatives
    usable: list[tuple[tuple[int, ...], int, int]] = []  # (codes, cost, cover mask)
    for shape in itertools.product((0, 1, 2), repeat=n):
        codes = []
        for k, kind in enumerate(shape):
            if kind == 1:
                codes.append(k)
            elif kind == 2:
                codes.append(n + k)
        term = term_from_codes(n, codes)
        if any(term.evaluate(v) for v in negatives):
            continue
        cover = 0
        for idx, u in enumerate(positives):
            if term.evaluate(u):
                cover |= 1 << idx
        usable.append((tuple(codes), len(codes), cover))
    usable.sort(key=lambda item: item[0])

    all_pos = (1 << len(positives)) - 1

    def search(start: int, budget: int, picks_left: int, uncovered: int, chosen: list[int]):
        if picks_left == 0:
            return list(chosen) if budget == 0 and uncovered == 0 else None
        for idx in range(start, len(usable)):
            codes, cost, cover = usable[idx]
            if cost > budget:
                continue
            fresh = cover & uncovered
            if uncovered and not fresh:
                continue
            chosen.append(idx)
            found = search(idx + 1, budget - cost, picks_left - 1, uncovered & ~cover, chosen)
            chosen.pop()
            if found is not None:
                return found
        return None

    for total in range(max_literals + 1):
        if total == 0 and not positives:
            return DnfFormula(n, ())
        for t in range(1, min(len(usable), total + 1) + 1):
            found = search(0, total, t, all_pos, [])
            if found is not None:
                terms = tuple(term_from_codes(n, usable[idx][0]) for idx in found)
                return DnfFormula(n, terms)
    raise BudgetExceededError(f"no consistent DNF within {max_literals} literals")


def reference_brain(d: Dataset) -> DnfFormula:
    """Plain reimplementation of the greedy learner for certain data.

    Built directly on the crisp membership rule (a literal separates a
    pair iff the cells are certain, unequal, and oriented its way) with
    naive Fraction scoring.  Deliberately shares no code with the learner
    beyond the output types and their code converter, so the two can check
    each other.
    """
    if not d.all_certain:
        raise ValueError("reference learner handles fully certain data only")
    n = d.n

    def dedupe(rows):
        seen, out = set(), []
        for row in rows:
            if row not in seen:
                seen.add(row)
                out.append(row)
        return out

    positives = dedupe([inst.cells for inst in d.positives])
    negatives = dedupe([inst.cells for inst in d.negatives])

    clashes = tuple(
        (i, j)
        for i, u in enumerate(positives, start=1)
        for j, v in enumerate(negatives, start=1)
        if u == v
    )
    if clashes:
        raise ConsistencyAbort("inconsistent-data", pairs=clashes)

    def satisfies(cells, term: Term) -> bool:
        return all(
            (cells[lit.var - 1] == 0) if lit.neg else (cells[lit.var - 1] == 2)
            for lit in term.literals
        )

    terms: list[Term] = []
    while positives:
        sets: dict[tuple[int, int], frozenset[int]] = {}
        for i, u in enumerate(positives, start=1):
            for j, v in enumerate(negatives, start=1):
                codes = {k for k in range(n) if u[k] == 2 and v[k] == 0}
                codes |= {n + k for k in range(n) if u[k] == 0 and v[k] == 2}
                sets[(i, j)] = frozenset(codes)

        picked: list[int] = []
        banned: set[int] = set()
        while sets:
            scores: dict[int, Fraction] = {}
            for s in sets.values():
                share = Fraction(1, len(s))
                for code in s:
                    if code not in banned:
                        scores[code] = scores.get(code, Fraction(0)) + share
            if not scores:
                raise ConsistencyAbort("no-candidate")
            best = max(scores.values())
            code = min(c for c, value in scores.items() if value == best)
            comp = code + n if code < n else code - n
            groups_with = {i for (i, _), s in sets.items() if code in s}
            survivors: dict[tuple[int, int], frozenset[int]] = {}
            for (i, j), s in sets.items():
                if i not in groups_with or code in s:
                    continue
                shrunk = s - {comp}
                if not shrunk:
                    raise ConsistencyAbort("empty-constraint-set", pairs=((i, j),))
                survivors[(i, j)] = shrunk
            sets = survivors
            picked.append(code)
            banned.add(comp)

        term = term_from_codes(n, picked)
        terms.append(term)
        for v in negatives:
            if satisfies(v, term):
                raise ConsistencyAbort("unfalsifiable-negative", term=term.render())
        kept = [u for u in positives if not satisfies(u, term)]
        if len(kept) == len(positives):
            raise ConsistencyAbort("no-positive-erased", term=term.render())
        positives = kept

    return DnfFormula(n, tuple(terms))
