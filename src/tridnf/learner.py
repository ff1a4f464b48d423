"""Greedy learner: builds a DNF formula one term at a time.

Each outer iteration starts with preprocessing of the current working set
(uncertainty reduction, dedupe, consistency check), freezes p and q, grades
every literal against all surviving (positive, negative) constraint sets,
repeatedly picks the literal of maximal total relevance, and erases what
the pick resolves.  A finished term removes every positive it can still
cover and forces each surviving negative to commit one Unknown cell
against the term.

Relevance comparisons are exact.  The hot path avoids building full
rational scores: each live set is the list [F, R, card] of two packed
integers, with one fixed-width field per literal, and its scaled
cardinality, held in one map keyed by the pair (i, j).  Sets are bucketed
by card, and each bucket keeps the [F, R] sums of its sets (see
``_TermEngine``), so adding, removing or shrinking a set is a few
big-integer operations instead of per-literal dictionary updates.  Each
literal gets an integer lower bound sum(floor(num << 64 / card)) whose
error is below one unit per bucket, and only literals whose upper bound
reaches the best lower bound are re-scored with Fractions.  The winner
(ties broken by literal code: x1..xn then ~x1..~xn) is provably the same
literal exact arithmetic would pick.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import ConsistencyAbort
from .formula import DnfFormula, Term, term_from_codes
from .trits import (
    Dataset,
    Instance,
    Trit,
    check_self_consistency,
    delete_repetitions,
    reduce_uncertainty,
)


@dataclass(frozen=True)
class LearnerConfig:
    """The one option of learn(): ``trace`` collects the per-event text log.

    The method itself has no switches; every run reduces uncertainty,
    deletes repetitions and updates the negatives.
    """

    trace: bool = False


@dataclass(frozen=True)
class LearnResult:
    """Formula plus the final working data the formula was checked against.

    ``dataset`` holds the erased positives (in erasure order) and the
    negatives in their final, possibly updated, state.  ``trace`` is empty
    unless the config asked for one.
    """

    formula: DnfFormula
    dataset: Dataset
    trace: tuple[str, ...]
    iterations: int


def _abort(trace: list[str] | None, reason: str, **details) -> None:
    if trace is not None:
        trace.append(f"ABORT {reason}")
        details["trace"] = tuple(trace)
    raise ConsistencyAbort(reason, **details)


def pair_grades(
    u_value: int, u_known: int, v_value: int, v_known: int, full: int, neg_at: int,
) -> tuple[int, int, int]:
    """The full, half and quarter grade masks of the pair (u positive, v negative).

    Takes the value and known bits of u and of v; ``full`` marks every
    variable's bit.  In each mask the bit of variable k grades ``xk`` and
    that bit shifted left by ``neg_at`` grades ``~xk``.  The rule is
    bitwise, so any layout that gives each variable one bit works.
    """
    u_unk = ~u_known & full
    v_unk = ~v_known & full
    u_one, u_zero = u_value, u_known & ~u_value
    v_one, v_zero = v_value, v_known & ~v_value
    pos_half = (u_one & v_unk) | (u_unk & v_zero)
    neg_half = (u_zero & v_unk) | (u_unk & v_one)
    both = u_unk & v_unk
    return (
        (u_one & v_zero) | (u_zero & v_one) << neg_at,
        pos_half | neg_half << neg_at,
        both | both << neg_at,
    )


def _dilate(bits: int, width: int) -> int:
    """``bits`` with bit k moved to bit k*width."""
    out = 0
    while bits:
        low = bits & -bits
        out |= 1 << (low.bit_length() - 1) * width
        bits ^= low
    return out


class _TermEngine:
    """Scoring and erasure state for building one term.

    Rebuilt from the working dataset at the start of every outer
    iteration; p, q, and the grade scale 2^(p+q+1) are frozen here and do
    not drift as sets are erased mid-term.

    Packed layout: literal code c owns the W-bit field that starts at bit
    c*W, with W = (2*p*q).bit_length().  Instance bits are dilated once
    per engine (bit k moves to bit k*W) and graded by ``pair_grades``.
    The live sets sit in ``sets``, keyed (i, j) in trace order, each as
    the list [F, R, card]: field c of F is 1 when the set grades literal
    c full, field c of R is 2 for a half grade and 1 for a quarter, and
    card is the scaled cardinality scale*|full| + 2*|half| + |quarter|.
    Each bucket holds the [F, R] sums over the sets of one card, so the
    literal's scaled grade sum in the bucket is scale*F_c + R_c.  A
    literal has one grade level per set and a bucket has at most p*q sets,
    so F_c <= p*q and R_c <= 2*p*q fit in W bits: no field carries into
    the next, and adding or removing a set is two additions or
    subtractions on the whole bucket.
    """

    def __init__(self, positives, negatives, trace: list[str] | None):
        n = self.n = positives[0].n
        p, q = len(positives), len(negatives)
        self.norm = p * q
        scale = self.scale = 1 << (p + q + 1)
        w = self.width = (2 * p * q).bit_length()
        self.field = (1 << w) - 1
        self.trace = trace
        self.sets: dict[tuple[int, int], list[int]] = {}  # (i, j) -> [F, R, card]
        self.buckets: dict[int, list[int]] = {}  # card -> [F, R]
        full = _dilate((1 << n) - 1, w)
        neg_at = n * w
        dilated = [(_dilate(v.value_bits, w), _dilate(v.known_bits, w)) for v in negatives]

        for i, u in enumerate(positives, start=1):
            u_value, u_known = _dilate(u.value_bits, w), _dilate(u.known_bits, w)
            for j, (v_value, v_known) in enumerate(dilated, start=1):
                f, half, quarter = pair_grades(u_value, u_known, v_value, v_known, full, neg_at)
                # card is nonzero: a pair grades nothing only when both rows
                # are certain and equal, which the consistency check rejected
                s = self.sets[i, j] = [
                    f, (half << 1) + quarter,
                    scale * f.bit_count() + 2 * half.bit_count() + quarter.bit_count(),
                ]
                self._add(s)

    def _add(self, s: list[int]) -> None:
        bucket = self.buckets.get(s[2])
        if bucket is None:
            self.buckets[s[2]] = s[:2]
        else:
            bucket[0] += s[0]
            bucket[1] += s[1]

    def _remove(self, s: list[int]) -> None:
        bucket = self.buckets[s[2]]
        bucket[0] -= s[0]
        bucket[1] -= s[1]
        # every set adds a nonzero field, so zero sums mean no sets are left
        if not (bucket[0] or bucket[1]):
            del self.buckets[s[2]]

    def select(self) -> int:
        """Literal code of maximal total relevance; exact, first-max ties.

        Scores differ from true relevances only by the constant positive
        factor 1/(p*q), which cannot move the argmax; the exact factor is
        applied to the traced value.
        """
        w, field, codes = self.width, self.field, 2 * self.n
        shifted = self.scale << 64
        lower = [0] * codes
        slack = [0] * codes
        for card, (f, r) in self.buckets.items():
            for c in range(codes):
                fc, rc = f & field, r & field
                f >>= w
                r >>= w
                if fc or rc:
                    # (num << 64) // card with num = scale*fc + rc
                    lower[c] += (fc * shifted + (rc << 64)) // card
                    slack[c] += 1
        # while sets are left some bucket has a nonzero field, so some
        # literal is live
        live = [c for c in range(codes) if slack[c]]
        best_lower = max(lower[c] for c in live)
        # every floor lost < 1 unit, so true score < lower + slack
        cluster = [c for c in live if lower[c] + slack[c] > best_lower]
        if len(cluster) == 1 and self.trace is None:
            return cluster[0]
        exact = {c: Fraction(0) for c in cluster}
        for card, (f, r) in self.buckets.items():
            for c in cluster:
                num = self.scale * (f >> c * w & field) + (r >> c * w & field)
                if num:
                    exact[c] += Fraction(num, card)
        best = max(exact.values())
        code = min(c for c in cluster if exact[c] == best)
        if self.trace is not None:
            literal = term_from_codes(self.n, (code,)).render()
            self.trace.append(f"SELECT {literal} R={_exact(best / self.norm)}")
        return code

    def apply(self, code: int) -> None:
        """Erasures for a just-selected literal, against a pre-pick snapshot.

        Groups where the literal occurs nowhere leave the term's scope;
        in the rest, sets holding the literal are satisfied and erased,
        and the complement literal is struck from the sets that remain.
        """
        w = self.width
        comp = code + self.n if code < self.n else code - self.n
        hit = 3 << code * w  # the field bits a held literal sets in F or R
        sets = self.sets
        covered = {i for (i, _), s in sets.items() if (s[0] | s[1]) & hit}
        if self.trace is not None:
            self.trace.extend(f"ERASE_GROUP {i}" for i in sorted({i for i, _ in sets} - covered))
            self.trace.extend(
                f"ERASE_SET {i} {j}" for (i, j), s in sets.items() if (s[0] | s[1]) & hit
            )
        survivors = {}
        for ij, s in sets.items():
            if ij[0] in covered and not (s[0] | s[1]) & hit:
                survivors[ij] = s
            else:
                self._remove(s)
        # the complement can only be at half grade in a survivor.  At full
        # grade u's cell is certain against the pick, so no set of the group
        # holds the pick and the group was erased; at quarter grade the set
        # holds the pick too (quarters come in +/- pairs) and was erased
        half = 2 << comp * w
        for ij, s in survivors.items():
            if s[1] & half:
                self._remove(s)
                s[1] -= half
                s[2] -= 2
                if not s[2]:
                    _abort(self.trace, "empty-constraint-set", pairs=(ij,))
                self._add(s)
        self.sets = survivors


def _exact(value: Fraction) -> str:
    """``str(value)`` past Python's int-to-str digit limit, which exact
    relevances on masked data outgrow.  The caller's limit is restored."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return str(value)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _lowest_unknown_on(inst: Instance, term: Term) -> int | None:
    """0-based coordinate of the lowest Unknown cell among the term's variables."""
    mask = inst.unknowns & (term.pos_mask | term.neg_mask)
    if not mask:
        return None
    return (mask & -mask).bit_length() - 1


def learn(dataset: Dataset, config: LearnerConfig | None = None) -> LearnResult:
    """Learn a DNF formula consistent with the dataset.

    Raises ConsistencyAbort when the data is (or becomes, after negative
    updates) self-contradictory.  Every outer iteration erases at least one
    positive or aborts, so there are at most p of them.
    """
    cfg = config or LearnerConfig()
    trace: list[str] | None = [] if cfg.trace else None

    n = dataset.n
    full = (1 << n) - 1
    # default ids come from input position and then travel with the row
    # through reductions, dedupes, and updates
    positives = [
        inst if inst.id else replace(inst, id=f"u{k}")
        for k, inst in enumerate(dataset.positives, start=1)
    ]
    negatives = [
        inst if inst.id else replace(inst, id=f"v{k}")
        for k, inst in enumerate(dataset.negatives, start=1)
    ]

    terms: list[Term] = []
    erased: list[Instance] = []
    iterations = 0

    while positives:
        iterations += 1
        work = Dataset(n, tuple(positives), tuple(negatives))
        work = delete_repetitions(reduce_uncertainty(work))
        clashes = check_self_consistency(work)
        if clashes:
            _abort(trace, "inconsistent-data", pairs=clashes)
        positives = list(work.positives)
        negatives = list(work.negatives)

        engine = _TermEngine(positives, negatives, trace)
        codes: list[int] = []
        while engine.sets:
            code = engine.select()
            codes.append(code)
            engine.apply(code)
        term = term_from_codes(n, codes)
        terms.append(term)
        if trace is not None:
            trace.append(f"TERM {term.render()}")

        kept: list[Instance] = []
        for inst in positives:
            if term.possibly_satisfied_by(inst):
                erased.append(inst)
                if trace is not None:
                    trace.append(f"POS_ERASED {inst.id}")
            else:
                kept.append(inst)
        if len(kept) == len(positives):
            _abort(trace, "no-positive-erased", term=term.render())
        positives = kept

        for j, inst in enumerate(negatives):
            if not term.possibly_satisfied_by(inst):
                continue
            k = _lowest_unknown_on(inst, term)
            if k is None:
                # every cell on the term's variables is certain and
                # agrees: the term is certainly true on a negative
                _abort(
                    trace, "unfalsifiable-negative",
                    instance_id=inst.id, term=term.render(),
                )
            value = Trit.TRUE if (term.neg_mask >> k) & 1 else Trit.FALSE
            v = inst.with_cell(k, value)
            negatives[j] = v
            if trace is not None:
                trace.append(f"NEG_UPDATE {inst.id} {k + 1} {int(value is Trit.TRUE)}")
            # only this updated row can newly collide with a positive:
            # erasure removes rows and never edits them
            if v.known_bits == full:
                violations = tuple(
                    (i, j + 1)
                    for i, u in enumerate(positives, start=1)
                    if u.known_bits == full and u.value_bits == v.value_bits
                )
                if violations:
                    _abort(trace, "inconsistent-data", pairs=violations)

    formula = DnfFormula(n, tuple(terms))
    final = Dataset(n, tuple(erased), tuple(negatives))
    return LearnResult(formula, final, tuple(trace) if trace is not None else (), iterations)
