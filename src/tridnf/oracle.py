"""Brute-force verifiers and a reference learner, independent of the
learner's machinery.

Everything here trades speed for obviousness: plain tuples, dicts, and
Fractions, no bucketing, no bit-packed shortcuts beyond what a completion
counter needs.  Tests use these as ground truth against the optimized
learner; the CLI exposes the verifiers through the verify command.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import BudgetExceededError, ConsistencyAbort
from .formula import DnfFormula, Literal, Term, _check_width, term_from_codes
from .learner import LearnResult, _exact
from .trits import Dataset, Instance, Trit, _named, delete_repetitions


class Verdict(Enum):
    EXACT = "exact"
    COMPLETION_WITNESS = "completion-witness"
    VIOLATED = "violated"


@dataclass(frozen=True)
class ConsistencyCertificate:
    """Per-instance outcome of checking a formula against the data.

    ``witness`` is a full 0/1 vector only for COMPLETION_WITNESS verdicts;
    it agrees with the instance on every certain cell.
    """

    instance_id: str
    verdict: Verdict
    witness: tuple[int, ...] | None = None


def verify_consistency(
    f: DnfFormula,
    d: Dataset,
    budget: int = 1 << 24,
) -> list[ConsistencyCertificate]:
    """One certificate per instance, positives first.

    Certain instances are evaluated directly.  Uncertain ones are checked
    by enumerating completions of the Unknown cells on the formula's own
    variables only (the others cannot change the formula's value, and the
    reported witness fixes them to 0).  The formula may name no variable
    the data lacks, and may name fewer.
    """
    _check_width(f, d.n)
    var_mask = 0
    for var in f.vars_used:
        var_mask |= 1 << (var - 1)
    return [
        _certify(f, inst, want, var_mask, budget)
        for want, rows, prefix in ((True, d.positives, "u"), (False, d.negatives, "v"))
        for inst in _named(rows, prefix)
    ]


def _certify(
    f: DnfFormula,
    inst: Instance,
    want: bool,
    var_mask: int,
    budget: int,
) -> ConsistencyCertificate:
    if inst.is_certain:
        verdict = Verdict.EXACT if f.evaluate(inst.value_bits) == want else Verdict.VIOLATED
        return ConsistencyCertificate(inst.id, verdict)

    free = inst.unknowns & var_mask
    if 1 << free.bit_count() > budget:
        raise BudgetExceededError(
            f"instance {inst.id!r} needs 2^{free.bit_count()} completions, budget {budget}"
        )
    # every Unknown cell starts at 0; the submasks of ``free`` ascend as a
    # counter whose bit i sits on the i-th lowest free cell
    ones = 0
    while True:
        bits = inst.value_bits | ones
        if f.evaluate(bits) == want:
            witness = tuple((bits >> k) & 1 for k in range(inst.n))
            return ConsistencyCertificate(inst.id, Verdict.COMPLETION_WITNESS, witness)
        ones = (ones - free) & free
        if not ones:
            return ConsistencyCertificate(inst.id, Verdict.VIOLATED)


def minimal_dnf_exhaustive(d: Dataset, max_literals: int = 12) -> DnfFormula:
    """Smallest consistent DNF by exhaustive search; desk-scale only.

    Candidates are ranked by total literal count, then term count, then
    lexicographically by literal codes in variable order; the first
    consistent formula wins.  Only terms that are false on every negative
    instance can appear (any other term misclassifies at once), and at the
    minimal literal count every term of a solution must cover a positive
    no other term covers, so the search may demand fresh coverage from
    each pick.  Each such term is also prime: dropping a literal that
    leaves it usable would give a smaller consistent formula, so only
    prime terms are searched (Quine 1952), in the same order.  A
    consistent DNF exists iff every positive has a usable term that
    covers it, and the prime inside that term covers it too, so data
    without one is refused before any search.
    """
    if d.n > 6:
        raise ValueError("exhaustive search is limited to n <= 6")
    if d.unknown_count:
        raise ValueError("exhaustive search needs fully certain data")

    n = d.n
    positives = [inst.value_bits for inst in d.positives]
    negatives = [inst.value_bits for inst in d.negatives]

    # all 3^n terms as code tuples in variable order, kept when false on all negatives
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
    # only prime terms: none of them stays usable without one of its literals
    shapes = {codes for codes, _, _ in usable}
    usable = [
        (codes, cost, cover) for codes, cost, cover in usable
        if all(codes[:k] + codes[k + 1:] not in shapes for k in range(cost))
    ]

    all_pos = (1 << len(positives)) - 1
    reachable = 0
    for _, _, cover in usable:
        reachable |= cover
    if reachable != all_pos:
        raise BudgetExceededError(f"no consistent DNF within {max_literals} literals")

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


def membership(u: Instance, v: Instance, lit: Literal, p: int, q: int) -> Fraction:
    """Grade of ``lit`` in the fuzzy set of the pair (u positive, v negative).

    ``~xk`` reads the table for ``xk`` (see ``_grade``) with 0 and 1
    swapped; p and q are the class sizes.
    """
    a, b = u.cell(lit.var - 1), v.cell(lit.var - 1)
    if lit.neg:
        a, b = a.negated, b.negated
    return _grade(a, b, p, q)


def _grade(a: Trit, b: Trit, p: int, q: int) -> Fraction:
    """The per-cell table of README.md: the grade of ``xk`` when u's cell
    is ``a`` and v's cell is ``b``."""
    if (a, b) == (Trit.TRUE, Trit.FALSE):
        return Fraction(1)
    if (a, b) in ((Trit.TRUE, Trit.UNKNOWN), (Trit.UNKNOWN, Trit.FALSE)):
        return Fraction(1, 2 ** (p + q))
    if a is b is Trit.UNKNOWN:
        return Fraction(1, 2 ** (p + q + 1))
    return Fraction(0)


def _check_self_consistency(d: Dataset) -> tuple[tuple[int, int], ...]:
    """Spec of ``trits.check_self_consistency``: every pair of certain rows
    with equal values, as 1-based (i, j), scanned in (i, j) order."""
    full = (1 << d.n) - 1
    violations = []
    for i, u in enumerate(d.positives, start=1):
        if u.known_bits != full:
            continue
        for j, v in enumerate(d.negatives, start=1):
            if v.known_bits == full and v.value_bits == u.value_bits:
                violations.append((i, j))
    return tuple(violations)


def _reduce_uncertainty(d: Dataset) -> Dataset:
    """Spec of ``trits.reduce_uncertainty``, scanning every pair.

    Pairs are scanned in (i, j) order and substitutions apply at once:
    when u and v are certain and equal everywhere but at one coordinate,
    where exactly one of them is Unknown, that Unknown takes the negation
    of the other's cell.  Passes repeat until one makes no substitution.
    """
    full = (1 << d.n) - 1
    pos = list(d.positives)
    neg = list(d.negatives)
    changed = True
    while changed:
        changed = False
        for i, u in enumerate(pos):
            for j in range(len(neg)):
                v = neg[j]
                both_known = u.known_bits & v.known_bits
                if (u.value_bits ^ v.value_bits) & both_known:
                    continue  # a certain disagreement: rule cannot apply
                unk_u = ~u.known_bits & full
                unk_v = ~v.known_bits & full
                either = unk_u | unk_v
                if either == 0 or either & (either - 1):
                    continue  # zero or several uncertain coordinates
                if unk_u & unk_v:
                    continue  # both sides unknown at the coordinate
                k = either.bit_length() - 1
                if unk_u:
                    u = u.with_cell(k, v.cell(k).negated)
                    pos[i] = u
                else:
                    neg[j] = v.with_cell(k, u.cell(k).negated)
                changed = True
    return Dataset(d.n, tuple(pos), tuple(neg))


def reference_learn(d: Dataset) -> LearnResult:
    """Plain reimplementation of ``learn(d, LearnerConfig(trace=True))``.

    The whole method, which has no switches, written out with dicts of
    Fractions: the preprocessing at the start of every outer iteration
    (this module's scans over every pair, and the ``trits`` dedupe), every
    literal graded by the table behind ``membership``, exact relevances
    with first-max ties, erasure and complement striking, positive erasure
    and negative updates.  Returns the same LearnResult, trace included,
    or raises the same ConsistencyAbort.  Shares no code with the learner
    beyond the dedupe, the data and formula types, the rule that names rows
    without an id (``trits._named``), the codes-to-``Term`` converter, and
    the trace's number formatting, so the two can check each other.  In
    particular it erases positives and picks the negatives to update with
    ``Term.possibly_satisfied_by``, which ``learn`` never calls.
    """
    n = d.n
    trace: list[str] = []

    def abort(reason: str, **details) -> None:
        trace.append(f"ABORT {reason}")
        raise ConsistencyAbort(reason, trace=tuple(trace), **details)

    positives = _named(d.positives, "u")
    negatives = _named(d.negatives, "v")
    terms: list[Term] = []
    erased: list[Instance] = []
    while positives:
        work = delete_repetitions(_reduce_uncertainty(Dataset(n, tuple(positives), tuple(negatives))))
        clashes = _check_self_consistency(work)
        if clashes:
            abort("inconsistent-data", pairs=clashes)
        positives, negatives = list(work.positives), list(work.negatives)
        p, q = len(positives), len(negatives)

        # a grade depends on two cells only: tabulate the nonzero ones, and
        # give every row its cell under each literal code, ~xk reading 0
        # and 1 swapped
        table = {(a, b): g for a in Trit for b in Trit if (g := _grade(a, b, p, q))}
        us = [u.cells + tuple(t.negated for t in u.cells) for u in positives]
        vs = [v.cells + tuple(t.negated for t in v.cells) for v in negatives]
        # (i, j) -> {literal code: nonzero grade}; consistent pairs are never empty
        sets: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i, u in enumerate(us, start=1):
            for j, v in enumerate(vs, start=1):
                sets[i, j] = {c: table[ab] for c, ab in enumerate(zip(u, v)) if ab in table}
        codes: list[int] = []
        while sets:
            scores: dict[int, Fraction] = {}
            for grades in sets.values():
                card = sum(grades.values())
                for c, g in grades.items():
                    scores[c] = scores.get(c, Fraction(0)) + g / card
            best = max(scores.values())
            code = min(c for c, score in scores.items() if score == best)
            literal = term_from_codes(n, (code,)).render()
            trace.append(f"SELECT {literal} R={_exact(best / (p * q))}")
            codes.append(code)
            comp = (code + n) % (2 * n)
            covered = {i for (i, _), grades in sets.items() if code in grades}
            trace += [f"ERASE_GROUP {i}" for i in sorted({i for i, _ in sets} - covered)]
            trace += [f"ERASE_SET {i} {j}" for (i, j), grades in sets.items() if code in grades]
            survivors = {}
            for (i, j), grades in sets.items():
                if i in covered and code not in grades:
                    survivors[i, j] = {c: g for c, g in grades.items() if c != comp}
                    if not survivors[i, j]:
                        abort("empty-constraint-set", pairs=((i, j),))
            sets = survivors

        term = term_from_codes(n, codes)
        terms.append(term)
        trace.append(f"TERM {term.render()}")
        kept = []
        for u in positives:
            if term.possibly_satisfied_by(u):
                erased.append(u)
                trace.append(f"POS_ERASED {u.id}")
            else:
                kept.append(u)
        if len(kept) == len(positives):
            abort("no-positive-erased", term=term.render())
        positives = kept

        # a negative the term may cover pins its lowest Unknown on the
        # term's variables against the term's literal there
        signs = {lit.var - 1: lit.neg for lit in term.literals}
        for j, v in enumerate(negatives, start=1):
            if not term.possibly_satisfied_by(v):
                continue
            k = min((k for k in signs if v.cell(k) is Trit.UNKNOWN), default=None)
            if k is None:
                abort("unfalsifiable-negative", instance_id=v.id, term=term.render())
            negatives[j - 1] = v = v.with_cell(k, Trit.TRUE if signs[k] else Trit.FALSE)
            trace.append(f"NEG_UPDATE {v.id} {k + 1} {int(signs[k])}")
            clashes = tuple(
                (i, j) for i, u in enumerate(positives, start=1)
                if v.is_certain and u.cells == v.cells
            )
            if clashes:
                abort("inconsistent-data", pairs=clashes)

    return LearnResult(
        DnfFormula(n, tuple(terms)), Dataset(n, tuple(erased), tuple(negatives)), tuple(trace)
    )


# kept only for the benchmark's workloads; the next benchmark change moves
# them to reference_learn and deletes this alias
def reference_brain(d: Dataset) -> DnfFormula:
    """The formula of ``reference_learn(d)``."""
    return reference_learn(d).formula
