"""Greedy learner: builds a DNF formula one term at a time.

Each outer iteration starts with preprocessing of the current working set
(uncertainty reduction, dedupe, consistency check), freezes p and q, grades
every literal against all surviving (positive, negative) constraint sets,
repeatedly picks the literal of maximal total relevance, and erases what
the pick resolves.  A finished term removes every positive it can still
cover and forces each surviving negative to commit one Unknown cell
against the term.

Relevance comparisons are exact.  The hot path avoids building full
rational scores: a (positive, negative) pair's constraint set is two
packed integers F and R, with one fixed-width field per literal, and the
set's full-grade count nf and its half/quarter weight nr.  Sets sit in
buckets keyed (nf, nr), and each bucket keeps the [F, R] sums of its sets
(see ``_TermEngine``), so adding or removing a set is a few big-integer
operations instead of per-literal dictionary updates.

A term's live sets form a rectangle of rows: set (u, v) holds literal c
exactly when u admits c (decides it true or leaves it open) and v admits
c (decides it false or leaves it open), so erasure drops rows, and
striking the pick's complement is one adjustment per positive row.

Selection is adaptive-exact, in the manner of Shewchuk's robust
geometric predicates: a cheap integer estimate with a proven error bound
decides alone when it can, and exact arithmetic settles the rest.  The
estimate is each literal's leading tier, sum F_c/nf over the sets with a
full grade plus sum R_c/nr over the others; at the grade scale
2^(p+q+1) it is within total*2n/scale of the exact score.  Only literals
whose tier is that close to the best are scored with Fractions.  The
winner (ties broken by literal code: x1..xn then ~x1..~xn) is provably
the same literal exact arithmetic would pick.

The sets are graded once per ``learn`` call and kept across outer
iterations: each iteration drops the pairs of rows that were erased,
deduplicated or edited, and grades only the pairs of edited rows.
"""
from __future__ import annotations

import math
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


def _row_masks(inst: Instance, width: int, negative: bool) -> tuple[int, int]:
    """The packed literals a row decides and the literals it leaves open.

    Literal code c (x1..xn, then ~x1..~xn) owns bit c*width of each mask.
    A positive row decides the literals its certain cells make true, a
    negative row those its certain cells make false; an Unknown cell
    leaves both signs of its variable open.
    """
    n = inst.n
    decided = inst.zeros | inst.ones << n if negative else inst.ones | inst.zeros << n
    open_ = _dilate(inst.unknowns, width)
    return _dilate(decided, width), open_ | open_ << n * width


_BYTE_DILATIONS: dict[int, tuple[int, ...]] = {}  # width -> each byte value dilated


def _dilate(bits: int, width: int) -> int:
    """``bits`` with bit k moved to bit k*width, one table lookup per byte."""
    table = _BYTE_DILATIONS.get(width)
    if table is None:
        table = _BYTE_DILATIONS[width] = tuple(
            sum(1 << k * width for k in range(8) if b >> k & 1) for b in range(256)
        )
    out = shift = 0
    while bits:
        out |= table[bits & 0xFF] << shift
        bits >>= 8
        shift += 8 * width
    return out


class _TermEngine:
    """Scoring and erasure state for the terms of one ``learn`` call.

    Built on the first outer iteration's working rows; ``start`` brings it
    to each later iteration's rows and opens a term.  p, q, the grade
    scale 2^(p+q+1) and the norm p*q are set there and do not drift as
    sets are erased mid-term.

    Packed layout: literal code c owns the W-bit field that starts at bit
    c*W, with W = (2*p*q).bit_length() fixed at the first iteration (p
    and q never grow).  Each row's literal masks are dilated once (see
    ``_row_masks``).  A set is the tuple (F, R, (nf, nr)): field c of F
    is 1 when the set grades literal c full, field c of R is 2 for a half
    grade and 1 for a quarter, nf counts the full grades (by counting
    bits) and nr = 2*|half| + |quarter|.  The set's scaled cardinality is
    scale*nf + nr and literal c's scaled grade is scale*F_c + R_c.  Only
    scale depends on p and q, so a set stays valid while its two rows
    stay in the working data.

    ``grid`` holds the set of every (positive, negative) pair, keyed by
    the rows' serials.  A row is known by its content and id: a row that
    reduction or a negative update edits gets a new serial and its pairs
    are graded again.  Rows of one class must be distinct, which
    ``delete_repetitions`` guarantees in ``learn``.  ``base`` holds the
    [F, R] sums of the grid's sets per (nf, nr).  A bucket has at most p*q
    sets, so F_c <= p*q and R_c <= 2*p*q fit in W bits: no field carries
    into the next, and adding a set is two additions on the whole bucket.

    A term's state is its rectangle: ``live_u`` and ``live_v`` list the
    live rows in position order, u as (serial, admit, open, i) and v as
    (serial, admit, j), where admit = decided | open and i, j are the
    1-based positions by which trace lines and aborts name a pair.
    ``cut`` maps a u serial to the R word of the half grades struck from
    its sets and their weight in nr.  Live set (u, v) is grid set (u, v)
    less u's cut; ``buckets`` sums the live sets.
    """

    def __init__(self, positives, negatives, trace: list[str] | None):
        self.n = positives[0].n
        w = self.width = (2 * len(positives) * len(negatives)).bit_length()
        self.field = (1 << w) - 1
        self.trace = trace
        self.serials = 0  # the serial the next new row gets
        self.us: dict[tuple, tuple[int, int, int]] = {}  # row key -> (serial, decided, open)
        self.vs: dict[tuple, tuple[int, int, int]] = {}
        self.grid: dict[tuple[int, int], tuple] = {}  # (u serial, v serial) -> (F, R, (nf, nr))
        self.base: dict[tuple[int, int], list[int]] = {}  # (nf, nr) -> [F sum, R sum]
        self.start(positives, negatives)

    def _rows(self, rows, held, negative: bool) -> dict[tuple, tuple[int, int, int]]:
        """Serial and ``_row_masks`` of each row, kept for the rows already held."""
        out = {}
        for inst in rows:
            key = (inst.value_bits, inst.known_bits, inst.id)
            entry = held.get(key)
            if entry is None:
                entry = (self.serials, *_row_masks(inst, self.width, negative))
                self.serials += 1
            out[key] = entry
        return out

    def start(self, positives, negatives) -> None:
        """Bring the grid to the working rows and open a term on them.

        The pairs of rows that left are dropped and the pairs of new (that
        is, edited) rows graded; every other pair keeps its set.
        """
        p, q = len(positives), len(negatives)
        self.norm = p * q
        self.scale = 1 << (p + q + 1)
        fresh = self.serials
        held_us, held_vs = self.us, self.vs
        us = self.us = self._rows(positives, held_us, False)
        vs = self.vs = self._rows(negatives, held_vs, True)
        grid, base = self.grid, self.base

        every_v = [sv for sv, _, _ in held_vs.values()]
        gone_v = [sv for key, (sv, _, _) in held_vs.items() if key not in vs]
        _remove(base, [
            grid.pop((su, sv))
            for key, (su, _, _) in held_us.items()
            for sv in (gone_v if key in us else every_v)
        ])

        graded = []
        new_vs = [v for v in vs.values() if v[0] >= fresh]
        for su, u_on, u_open in us.values():
            for sv, v_off, v_open in vs.values() if su >= fresh else new_vs:
                # the grade table: full where u makes the literal true and v
                # makes it false, half where one of them leaves it open and
                # the other decides it that way, quarter where both leave it
                # open.  Some literal is graded, since the consistency check
                # rejected every pair of equal certain rows
                f = u_on & v_off
                half = (u_on & v_open) | (u_open & v_off)
                quarter = u_open & v_open
                s = grid[su, sv] = (
                    f, (half << 1) | quarter,
                    (f.bit_count(), 2 * half.bit_count() + quarter.bit_count()),
                )
                graded.append(s)
        _add(base, graded)

        # every row live, nothing struck; apply sums anew, so base can be shared
        self.buckets = base
        self.live_u = [(su, on | op, op, i) for i, (su, on, op) in enumerate(us.values(), 1)]
        self.live_v = [(sv, off | op, j) for j, (sv, off, op) in enumerate(vs.values(), 1)]
        self.cut: dict[int, tuple[int, int]] = {}  # u serial -> (R word, nr) struck

    def select(self) -> int:
        """Literal code of maximal total relevance; exact, first-max ties.

        Scores differ from true relevances only by the constant positive
        factor 1/(p*q), which cannot move the argmax; the exact factor is
        applied to the traced value.

        A literal's leading tier is L_c = sum F_c/nf over the sets with
        nf >= 1 plus sum R_c/nr over the sets with nf = 0.  A set with
        nf = 0 adds its exact share R_c/nr; any other set's share
        (scale*F_c + R_c)/(scale*nf + nr) lies within 2n/scale of F_c/nf.
        So a literal whose tier trails the best by more than twice
        total*2n/scale can neither win nor tie, and only the literals left
        are scored with Fractions.
        """
        w, field, codes = self.width, self.field, 2 * self.n
        # the words of each tier denominator: F words by nf >= 1, R words
        # by nr where nf = 0.  A set adds at most 2 to a field and there
        # are at most p*q sets, so the sums still fit the field
        tiers: dict[int, int] = {}
        for (nf, nr), (f, r) in self.buckets.items():
            if nf:
                tiers[nf] = tiers.get(nf, 0) + f
            else:
                tiers[nr] = tiers.get(nr, 0) + r
        d = math.lcm(*tiers)
        lead = [0] * codes  # L_c * d, an integer
        for t, word in tiers.items():
            m = d // t
            c = 0
            while word:
                lead[c] += (word & field) * m
                word >>= w
                c += 1
        best_lead = max(lead)
        margin = 4 * len(self.live_u) * len(self.live_v) * self.n * d
        shift = self.scale.bit_length() - 1
        cluster = [c for c in range(codes) if (best_lead - lead[c]) << shift <= margin]
        if len(cluster) == 1 and self.trace is None:
            return cluster[0]
        scale = self.scale
        exact = {c: Fraction(0) for c in cluster}
        for (nf, nr), (f, r) in self.buckets.items():
            card = scale * nf + nr
            for c in cluster:
                num = scale * (f >> c * w & field) + (r >> c * w & field)
                if num:
                    exact[c] += Fraction(num, card)
        best = max(exact.values())
        code = min(c for c in cluster if exact[c] == best)
        if self.trace is not None:
            literal = term_from_codes(self.n, (code,)).render()
            self.trace.append(f"SELECT {literal} R={_exact(best / self.norm)}")
        return code

    def apply(self, code: int) -> None:
        """Erasures for a just-selected literal: the u rows that do not
        admit it leave the term (ERASE_GROUP), as do the v rows that admit
        it, whose sets with the kept u rows it satisfies (ERASE_SET).  The
        complement is struck from the survivors, which the buckets re-sum.
        """
        w = self.width
        bit = 1 << code * w
        comp = code + self.n if code < self.n else code - self.n
        live_u = [u for u in self.live_u if u[1] & bit]
        live_v = [v for v in self.live_v if not v[1] & bit]
        if self.trace is not None:
            self.trace.extend(f"ERASE_GROUP {i}" for _, admit, _, i in self.live_u if not admit & bit)
            self.trace.extend(
                f"ERASE_SET {i} {j}" for *_, i in live_u for _, admit, j in self.live_v if admit & bit
            )
        # a kept v's cell makes the pick true and the complement false, so
        # a kept u open there grades the complement half in all its live
        # sets, and a kept certain u cannot hold it: one cut per u row
        cut, grid, buckets = self.cut, self.grid, {}
        for su, _, op, i in live_u:
            r_cut, nr_cut = cut.get(su, (0, 0))
            if op & bit:
                r_cut, nr_cut = cut[su] = (r_cut + (2 << comp * w), nr_cut + 2)
            sets = []
            for sv, _, j in live_v:
                f, r, (nf, nr) = grid[su, sv]
                r -= r_cut
                if not (f or r):
                    _abort(self.trace, "empty-constraint-set", pairs=((i, j),))
                sets.append((f, r, (nf, nr - nr_cut)))
            _add(buckets, sets)
        self.buckets, self.live_u, self.live_v = buckets, live_u, live_v

    def term(self) -> list[int]:
        """Select and apply literals until no v row is live; the picked codes."""
        codes: list[int] = []
        while self.live_v:
            codes.append(self.select())
            self.apply(codes[-1])
        return codes


def _add(buckets: dict[tuple[int, int], list[int]], sets) -> None:
    """Add each set's [F, R] words to the sums of its (nf, nr) bucket."""
    for f, r, key in sets:
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [f, r]
        else:
            bucket[0] += f
            bucket[1] += r


def _remove(buckets: dict[tuple[int, int], list[int]], sets) -> None:
    """Take each set's [F, R] words from the sums of its (nf, nr) bucket."""
    for f, r, key in sets:
        bucket = buckets[key]
        bucket[0] -= f
        bucket[1] -= r
        # every set adds a nonzero field, so zero sums mean no sets are left
        if not (bucket[0] or bucket[1]):
            del buckets[key]


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
    engine: _TermEngine | None = None

    while positives:
        iterations += 1
        work = Dataset(n, tuple(positives), tuple(negatives))
        work = delete_repetitions(reduce_uncertainty(work))
        clashes = check_self_consistency(work)
        if clashes:
            _abort(trace, "inconsistent-data", pairs=clashes)
        positives = list(work.positives)
        negatives = list(work.negatives)

        if engine is None:
            engine = _TermEngine(positives, negatives, trace)
        else:
            engine.start(positives, negatives)
        term = term_from_codes(n, engine.term())
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
