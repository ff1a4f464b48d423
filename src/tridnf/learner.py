"""Greedy learner: builds a DNF formula one term at a time.

Each outer iteration starts with preprocessing of the current working set
(uncertainty reduction, dedupe, consistency check), freezes p and q, grades
every literal against all surviving (positive, negative) constraint sets,
repeatedly picks the literal of maximal total relevance, and erases what
the pick resolves.  A finished term removes every positive it can still
cover and forces each surviving negative to commit one Unknown cell
against the term.

Relevance comparisons are exact.  The hot path never builds a whole
constraint set: a term's live sets form a rectangle of rows, since set
(u, v) holds literal c exactly when u admits c (decides it true or leaves
it open) and v admits c (decides it false or leaves it open).  Erasure
drops rows, and striking the pick's complement clears one bit of each
positive row that is open there.

Selection is adaptive-exact, in the manner of Shewchuk's robust
geometric predicates: a cheap integer estimate with a proven error bound
decides alone when it can, and exact arithmetic settles the rest.  The
estimate is each literal's leading tier: its full grades, each over its
set's count nf of full grades, plus, in the sets with no full grade, its
half and quarter weight over the set's weight nr.  At the grade scale
2^(p+q+1) it is within total*2n/scale of the exact score.  The tiers are
packed integers with one field per literal, 8, 16 or 32 bits wide,
summed anew over the rectangle before every select (see ``_TermEngine``).
Each literal's estimate is read at one fixed scale, d = 2^30, as the
whole number sum of its fields times floor(d/t) over the tiers t, from
64-bit lanes in which every tier's fields are weighted and added at
once; a literal's fields over all tiers hold less than 2^W, so its lane
needs W + 30 <= 62 bits and does not carry into the next (see
``_TermEngine._leads``).  The floors leave each estimate short by less
than the literal's field total, a slack the cluster test adds to the
proven bound.  With no open cell in the live rows every set's share is
exact, so the bound is 0 and the slack alone sets the floor.  Only
literals whose estimate is that close to the best are scored exactly,
from the rows or, with no open cell, from the tiers.  The winner (ties broken by literal code: x1..xn then ~x1..~xn)
is provably the same literal exact arithmetic would pick.

Some picks need no sum at all.  When one literal is decided true by
every live positive and false by every live negative, it is full in
every live set, so it is the pick, and it closes the term.  A term is
one loop: each step of an untraced learn first ANDs the live rows'
masks for such a pick, and only when there is none sums the rectangle
and selects; a traced learn always sums and selects, since its SELECT
line prints the relevance (see ``_TermEngine.term``).

One ``_TermEngine`` serves a whole learn and never sees an ``Instance``:
it works on each row's decided and open masks (``_masks``), which
``learn`` makes with the row, once, and keeps beside it until the row
changes, so one derivation serves the forced-pick test, every opening
and the negative updates of all the terms the row outlives.  ``learn``
makes the engine on its first outer iteration, which fixes the field
width W from the pair count of the deduplicated working rows, which
bounds every later iteration's; a learn of 2^31 or more constraint sets
is refused there.  The engine dilates each 2n-bit mask once, through one memo
keyed by the mask, whichever rows of either class carry it.  A
dilation is one C-level step for every n: the mask's binary digits are
encoded in a codec whose code unit is W bits wide and read back as one
integer (see ``_dilation``).  What depends only on n and W (the word of
every field's low bit, that dilation, the lane masks of ``_leads``) is
made once per (n, W) and kept for every later learn.  A term's
opening sums carry over by value: a positive's sums depend only on its
row and the negatives' rows, so they are kept by the positive's mask,
and when few negatives' masks changed since the last opening, a
positive with a kept mask moves only those negatives between its slots
instead of summing all of them.
"""
from __future__ import annotations

import codecs
import struct
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import cache
from itertools import chain

from .errors import ConsistencyAbort, TridnfError
from .formula import DnfFormula, Term, term_from_codes
from .trits import (
    Dataset,
    Instance,
    _clashes,
    _named,
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

    @property
    def iterations(self) -> int:
        """The outer iterations, each of which learned one of the formula's terms."""
        return len(self.formula.terms)


def _abort(trace: list[str] | None, reason: str, **details) -> None:
    if trace is not None:
        trace.append(f"ABORT {reason}")
        details["trace"] = tuple(trace)
    raise ConsistencyAbort(reason, **details)


_SCALE = 1 << 30  # the leads' scale d: d // t fits one 30-bit CPython digit for every t >= 2
_CODECS = {8: "latin-1", 16: "utf-16-be", 32: "utf-32-be"}  # W -> the codec of W-bit code units


@cache
def _layout(n: int, w: int) -> tuple:
    """The constants of every term engine on n variables at field width
    w, made once per (n, w): the word with the low bit of each of the 2n
    fields, the dilation of the 2n-bit masks (``_dilation``), and the
    lanes of ``_leads``, its phase masks and the ``struct`` that reads a
    phase.  A lead is below 2^W * d = 2^(W+30), at most 2^62, so a lane
    is one 64-bit word."""
    codes, k = 2 * n, 64 // w  # k fields per lane
    dilate = _dilation(codes, w)
    count = -(-codes // k)  # lanes per phase
    mask = sum((1 << w) - 1 << 64 * m for m in range(count))
    lanes = tuple(mask << j * w for j in range(min(k, codes))), struct.Struct(f"<{count}Q")
    return dilate((1 << codes) - 1), dilate, lanes


def _dilation(digits: int, w: int):
    """The function that moves bit k of a mask below 2^digits to bit k*w,
    for w in 8, 16 or 32, in C for every width of mask: the mask is
    written as ``digits`` binary digits, each digit encoded as one
    big-endian w-bit code unit ('0' is 0x30 and '1' is 0x31 in all
    three codecs), and the bytes read back as one integer, less the word
    of the '0' digits, which holds 0x30 in every field."""
    encode, form = codecs.lookup(_CODECS[w]).encode, f"0{digits}b"
    zeros = int.from_bytes(encode("0" * digits)[0], "big")
    return lambda bits: int.from_bytes(encode(format(bits, form))[0], "big") - zeros


def _fraction_sum(terms: list[tuple[int, int]]) -> Fraction:
    """The sum of num/den over the (num, den) pairs, by binary splitting
    (Haible and Papanikolaou, "Fast multiprecision evaluation of series of
    rational numbers", 1998): each half is summed as one unreduced integer
    fraction and the halves joined as a/b + c/d = (ad + cb)/bd, so the
    factors of every product are about the same size, and the one gcd is
    taken when the Fraction is made.  Adding Fractions one by one would
    reduce a growing denominator at every add."""

    def split(lo: int, hi: int) -> tuple[int, int]:
        if hi - lo == 1:
            return terms[lo]
        mid = (lo + hi) >> 1
        (a, b), (c, d) = split(lo, mid), split(mid, hi)
        return a * d + c * b, b * d

    return Fraction(*split(0, len(terms))) if terms else Fraction(0)


def _masks(rows, n: int, negative: bool) -> list[tuple[int, int]]:
    """Each row's decided and open masks, literal code c (x1..xn, then
    ~x1..~xn) owning bit c: a positive decides the literals its certain
    cells make true, a negative those they make false, and an Unknown
    cell leaves both signs of its variable open."""
    full, masks = (1 << n) - 1, []
    for row in rows:
        ones, known = row.value_bits, row.known_bits
        zeros, unknowns = known ^ ones, full ^ known
        masks.append((zeros | ones << n if negative else ones | zeros << n, unknowns | unknowns << n))
    return masks


def _grades(on: int, op: int, off: int, v_op: int) -> tuple[int, int, int]:
    """The one grading rule of set (u, v), from u's decided (on) and open
    (op) masks and v's decided (off) and open (v_op) ones: the literals
    it grades full, which u decides true and v false; half, which one row
    leaves open and the other decides that way; and quarter, which both
    leave open.  Dilation distributes over & and |, so on dilated masks
    it gives the dilated grades."""
    return on & off, on & v_op | op & off, op & v_op


class _TermEngine:
    """Scoring and erasure state of one learn, opened once per term on
    that outer iteration's working rows.  ``open`` sets p, q, the grade
    scale 2^(p+q+1) and the norm p*q, which do not drift as sets are
    erased mid-term.

    Set (u, v) grades each literal full, half or quarter (``_grades``).
    nf counts its full grades and nr = 2*|half| + |quarter|; its scaled
    cardinality is scale*nf + nr and literal c's scaled grade is scale, 2
    or 1.

    A term's state is its rectangle: ``live_u`` and ``live_v`` list the
    live rows in position order, u as (on, open, wide, i), wide being on
    dilated with each bit widened to its field, and v as (off, open,
    dilated off, j), the dilated off word carrying one count bit just
    above the 2n fields (see ``_sum``).  i and j are the 1-based
    positions by which trace lines and aborts name a pair.  Live set
    (u, v) is the set of the two rows, and a struck complement is cleared
    from u's open mask, since every live v decides it false.  Rows need
    not be distinct.  ``term`` and ``open`` take the rows as their
    (decided, open) mask pairs (``_masks``), never as ``Instance``s.
    Every dilation, of a decided or an open mask, goes through
    ``dilated``, the learn's one memo keyed by the 2n-bit mask, so rows
    with equal masks, in one class or across both, share an entry.
    ``term`` hands back, with the picks, the term's cover: the positions
    of the u rows still live, which are exactly the positives that admit
    every pick.

    ``opened`` keeps the ``live_v`` of the last opening that was summed
    and each positive's slot list (see ``_sum``) under its on mask, from
    which ``_carry`` makes the next first sum's lists.  Untraced, a term
    whose rows force its first pick (see ``_forced``) closes with no sum
    at all, so ``opened`` keeps the opening before, whose negatives and
    lists still belong together.

    ``tiers`` maps each tier denominator to a packed word in which literal
    c owns the W-bit field at bit c*W: the full-grade indicators of the
    sets with nf >= 1 summed by nf, and the R words (2 per half grade, 1
    per quarter) of the sets with nf = 0 summed by nr.  A set adds at most
    2 to a field and there are at most p*q sets, so no field carries into
    the next, nor does a literal's sum over all tiers reach 2^W.  W is the
    narrowest of 8, 16 and 32 bits that holds 2*p*q, so a 64-bit word
    holds whole fields: ``select`` weighs every tier's fields by
    floor(d/t) at the fixed scale d = 2^30 and adds them at once in
    64-bit lanes, wide enough that none carries, and reads each lane back
    as one little-endian word (see ``_leads``).  ``unit`` (each field's
    low bit), the dilation that ``dilated`` memoizes (see ``_dilation``)
    and ``lanes`` (the phase masks and ``struct`` of ``_leads``) are the
    constants of (n, W), shared by every engine of that shape (see
    ``_layout``).
    ``learn`` makes the engine on its first outer iteration and passes
    the p and q of the deduplicated working rows: later iterations only
    erase, dedupe or fill rows, so no term's p*q is larger.  A p*q of
    2^31 or more, whose sums could fill a 32-bit field, is refused with a
    ``TridnfError``.
    """

    def __init__(self, n: int, p: int, q: int, trace: list[str] | None):
        w = next((w for w in (8, 16, 32) if not 2 * p * q >> w), None)
        if w is None:
            raise TridnfError(f"{p} positive and {q} negative rows make {p * q} constraint sets, past 2^31 - 1")
        self.n, self.trace = n, trace
        self.width, self.field = w, (1 << w) - 1
        self.unit, dilate, self.lanes = _layout(n, w)
        self.dilated = cache(dilate)  # 2n-bit mask -> the mask dilated
        self.opened = None

    def open(self, us, vs) -> None:
        """Start a term on an outer iteration's working rows, the
        positives' (on, open) and the negatives' (off, open) masks: set
        p, q, the grade scale and the norm, and make the live rows.  A
        negative's dilated off word also carries the count bit, bit 2n*W
        just above the fields, by which ``_sum`` counts the negatives in
        a slot.  Nothing is summed here: ``term`` sums the rectangle
        before each select.
        """
        p, q = len(us), len(vs)
        self.norm, self.scale = p * q, 1 << (p + q + 1)
        dilated, field, count = self.dilated, self.field, 1 << 2 * self.n * self.width
        self.live_u = [(on, op, dilated(on) * field, i) for i, (on, op) in enumerate(us, 1)]
        self.live_v = [(off, op, dilated(off) | count, j) for j, (off, op) in enumerate(vs, 1)]

    def _carry(self) -> dict[int, list[int]]:
        """The slot lists (see ``_sum``) of a term's first sum, carried
        from the last opening that was summed, which this one then
        replaces as ``opened``.

        A positive's slot list depends only on its on mask and the
        negatives' off masks, so the last opening's lists, kept by on
        mask, carry over by value.  Between openings a negative changes
        only where a negative update or reduction put a new row at its
        position; dedupe changes q.  Carrying moves a changed negative's
        dilated off word between two slots of each kept list, 2 steps per
        changed negative, where a fresh sum costs q, so it runs when q is
        unchanged and fewer than q/2 off masks changed.  A positive whose
        on mask was not opened on last time is summed in full.
        """
        live_v, slots = self.live_v, {}
        q = len(live_v)
        if self.opened is not None and len(self.opened[0]) == q:
            old_v, old_slots = self.opened
            moves = [(a[0], a[2], b[0], b[2]) for a, b in zip(old_v, live_v) if a[0] != b[0]]
            if 2 * len(moves) < q:
                for on, *_ in self.live_u:
                    groups = old_slots.get(on)
                    if groups is not None:
                        slots[on] = groups = groups[:]
                        for old_off, old_d, off, d_off in moves:
                            groups[(on & old_off).bit_count()] -= old_d
                            groups[(on & off).bit_count()] += d_off
        self.opened = live_v, slots
        return slots

    def _sum(self, slots) -> dict[int, int]:
        """The tiers of the live rectangle; aborts on its first empty set
        in (i, j) order.

        Per u, the dilated off words of the v rows are added up in a slot
        per nf; ANDing a slot with u's widened on mask keeps the fields of
        u's full grades, which hold at most q, so nothing carries, and
        drops the count above them.  Each off word's count bit makes slot
        0 hold, above the fields, the number of v rows with which u has
        nf = 0, those whose off mask meets none of u's on mask, the
        all-``?`` rows, whose off word is otherwise 0, included.  Only
        when that count is not 0 are the v rows scanned, in position
        order, and those sets graded one by one, by ``_grades`` on
        dilated masks: u's on mask is its widened mask's low bits, a v
        row's off mask is its dilated off word less the count bit, which
        no open mask reaches, and the open masks are dilated through the
        learn's memo ``dilated``.  ``slots`` maps an on mask to its slot
        list: at a term's first sum it holds the lists ``_carry`` carried
        from the last opening, and each list summed here is added to it;
        a carried slot moves whole off words, count bits included, so its
        count stays exact.
        """
        levels, tiers, unit, dilated, live_v = self.n + 1, {}, self.unit, self.dilated, self.live_v
        offs = [(v[0], v[2]) for v in live_v]
        for on, op, wide, i in self.live_u:
            groups = slots.get(on)  # nf -> sum of the dilated off words
            if groups is None:
                groups = slots[on] = [0] * levels
                for off, d_off in offs:
                    groups[(on & off).bit_count()] += d_off
            if groups[0]:
                d_on, d_op = wide & unit, dilated(op)
                for off, v_op, d_off, j in live_v:
                    if on & off:
                        continue
                    _, half, quarter = _grades(d_on, d_op, d_off, dilated(v_op))
                    nr = 2 * half.bit_count() + quarter.bit_count()
                    if not nr:
                        _abort(self.trace, "empty-constraint-set", pairs=((i, j),))
                    tiers[nr] = tiers.get(nr, 0) + (half << 1 | quarter)
            for nf in range(1, levels):
                if groups[nf]:
                    tiers[nf] = tiers.get(nf, 0) + (groups[nf] & wide)
        return tiers

    def scores(self, codes) -> dict[int, Fraction]:
        """Exact scores of the given literal codes, from the live rows that
        admit one of them, graded by ``_grades``: per code, the scaled
        grades are summed as integers per cardinality, and the
        cardinalities' fractions are summed by ``_fraction_sum`` into one
        Fraction."""
        scale, want = self.scale, sum(1 << c for c in codes)
        sums: dict[int, dict[int, int]] = {c: {} for c in codes}  # code -> card -> sum
        bits = [(1 << c, sums[c]) for c in codes]
        live_v = [v for v in self.live_v if (v[0] | v[1]) & want]
        for on, op, _, _ in self.live_u:
            if not (on | op) & want:
                continue
            for off, v_op, _, _ in live_v:
                f, half, quarter = _grades(on, op, off, v_op)
                card = scale * f.bit_count() + 2 * half.bit_count() + quarter.bit_count()
                for b, per_card in bits:
                    num = scale if f & b else 2 if half & b else 1 if quarter & b else 0
                    if num:
                        per_card[card] = per_card.get(card, 0) + num
        return {c: _fraction_sum([(num, card) for card, num in per_card.items()]) for c, per_card in sums.items()}

    def _tier_scores(self, codes) -> dict[int, Fraction]:
        """Exact scores of the given codes when no live row leaves a cell
        open: every set has nr = 0 and adds exactly F_c/nf, so a code's
        score is its fields over their tiers, summed by ``_fraction_sum``."""
        w, field, tiers = self.width, self.field, self.tiers.items()
        return {c: _fraction_sum([(word >> c * w & field, t) for t, word in tiers]) for c in codes}

    def _leads(self) -> list[int]:
        """sum_t F_{c,t} * floor(d/t) for every literal code c, d = 2^30,
        in O(tiers * phases) whole-int steps: L_c * d less the floors'
        rounding, which is below c's field total, at most 2*pairs.

        Over all tiers a code's fields add up to at most 2*pairs < 2^W, so
        its lead is below 2^(W+30) <= 2^62 and fits a 64-bit lane (see
        ``_layout``).  A lane spans k = 64/W fields, and phase j takes
        field j of every lane, codes j, j+k, j+2k, ...: it masks each tier
        word to those fields, adds them up times floor(d/t) and shifts the
        sum down j fields, so each lane holds one code's lead and none
        carries into the next.  A phase is read with one ``struct`` unpack
        of its little-endian 64-bit lanes.
        """
        w, codes, (masks, words) = self.width, 2 * self.n, self.lanes
        terms = [(word, _SCALE // t) for t, word in self.tiers.items()]
        parts = []
        for j, mask in enumerate(masks):
            part = 0
            for word, m in terms:
                part += (word & mask) * m
            parts.append(words.unpack((part >> j * w).to_bytes(words.size, "little")))
        # lane m of phase j holds code m*k + j
        return list(chain.from_iterable(zip(*parts)))[:codes]

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
        are scored exactly.  ``_leads`` gives each L_c * d, d = 2^30, as a
        whole number f_c with f_c <= L_c * d < f_c + slack, the slack
        being 2*pairs over the live sets.  The cluster is every code at
        or above ``floor``: the best lead less the slack and less twice
        the bound at scale d, 4*pairs*n*d/scale, rounded down.  A code
        below the floor has f_best - f_c - slack > 4*pairs*n*d/scale, so
        L_best - L_c is more than twice the bound and c can neither win
        nor tie.  The pick is exact whatever d is; d sets only the
        cluster's size.

        When no live row leaves a cell open, no set has a half or quarter
        grade, so every set has nr = 0 and adds exactly F_c/nf: L_c is
        c's exact score and the bound is 0.  Let b be the code of the best
        lead.  A code c whose score ties or beats the best has L_c >= L_b,
        so f_c > L_c*d - slack >= L_b*d - slack >= f_b - slack, and the
        floor there is the best lead less the slack alone; only an open
        cell, which makes a set's share inexact, needs the bound.  The
        same test sends the cluster to exact scoring: with no open cell
        it is scored from the tiers (``_tier_scores``), not the rows.
        """
        lead = self._leads()
        pairs = len(self.live_u) * len(self.live_v)
        masked = any(u[1] for u in self.live_u) or any(v[1] for v in self.live_v)
        bound = 4 * pairs * self.n * _SCALE >> self.scale.bit_length() - 1 if masked else 0
        floor = max(lead) - 2 * pairs - bound
        cluster = [c for c, x in enumerate(lead) if x >= floor]
        if len(cluster) == 1 and self.trace is None:
            return cluster[0]
        exact = self.scores(cluster) if masked else self._tier_scores(cluster)
        best = max(exact.values())
        code = min(c for c in cluster if exact[c] == best)
        if self.trace is not None:
            literal = term_from_codes(self.n, (code,)).render()
            self.trace.append(f"SELECT {literal} R={_exact(best / self.norm)}")
        return code

    def apply(self, code: int) -> None:
        """Erasures for a just-picked literal: the u rows that do not
        admit it leave the term (ERASE_GROUP), as do the v rows that admit
        it, whose sets with the kept u rows it satisfies (ERASE_SET), and
        the complement is struck from the survivors."""
        bit = 1 << code
        # a kept v's cell makes the pick true and the complement false, so
        # a kept u open there grades the complement half in all its live
        # sets, and a kept certain u cannot hold it: clearing the
        # complement from u's open mask strikes it from all of them
        strike = ~(1 << (code + self.n if code < self.n else code - self.n))
        live_u = [(on, op & strike, wide, i) for on, op, wide, i in self.live_u if (on | op) & bit]
        live_v = [v for v in self.live_v if not (v[0] | v[1]) & bit]
        if self.trace is not None:
            self.trace.extend(f"ERASE_GROUP {u[3]}" for u in self.live_u if not (u[0] | u[1]) & bit)
            erased = [f" {v[3]}" for v in self.live_v if (v[0] | v[1]) & bit]
            for u in live_u:
                head = f"ERASE_SET {u[3]}"
                self.trace.extend(head + j for j in erased)
        self.live_u, self.live_v = live_u, live_v

    def _forced(self) -> int | None:
        """On an untraced learn, the pick when the live rows force it: the
        lowest literal that every live u decides true and every live v
        decides false, else None.  Such a literal is full in every live
        set, so its score is the largest any literal can reach, and only
        literals full there too can tie it; first-max takes the lowest
        code.  It erases every live v and keeps every live u, so it closes
        the term.  Every live set then has nf >= 1 and cannot abort, so
        not summing them is exact.  A traced learn scores it, since its
        SELECT line prints the relevance.  The AND runs over the decided
        masks of the live u rows, then of the live v rows, of which
        ``term`` keeps at least one, and stops at the first row that
        empties it."""
        if self.trace is not None:
            return None
        both = -1
        for row in chain(self.live_u, self.live_v):
            both &= row[0]
            if not both:
                return None
        return (both & -both).bit_length() - 1

    def term(self, us, vs) -> tuple[list[int], list[int]]:
        """Open a term on the rows' masks (see ``open``) and pick literals
        until no v row is live; the picked codes and the cover, the
        ascending 0-based positions of the positives still live.  Each
        pick is the one the live rows force (see ``_forced``), which
        closes the term, or else the one ``select`` finds in the tiers of
        the live rectangle, summed anew for it; the term's first sum
        starts from the lists carried from the last opening (see
        ``_carry``).  ``apply`` then erases what the pick resolves."""
        self.open(us, vs)
        codes: list[int] = []
        while self.live_v:
            code = self._forced()
            if code is None:
                self.tiers = self._sum({} if codes else self._carry())
                code = self.select()
            codes.append(code)
            self.apply(code)
        return codes, [u[3] - 1 for u in self.live_u]


_LEAF_BITS = 3000  # ints this short are made Decimal directly, at quadratic cost


def _decimal(k: int) -> Decimal:
    """``Decimal(k)`` in subquadratic time, as CPython 3.12's
    ``_pylong.int_to_decimal`` makes it: k is split on powers of 2 into
    halves, recursively, whose Decimals are joined as high * 2^w + low in
    a context at ``MAX_PREC``, where every sum and product is exact and
    multiplication is subquadratic.  Each 2^w is made once."""
    if k.bit_length() <= _LEAF_BITS:
        return Decimal(k)
    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:
        x = powers.get(w)
        if x is None:
            x = powers[w] = Decimal(1 << w) if w <= _LEAF_BITS else power(w >> 1) * power(w - (w >> 1))
        return x

    def inner(k: int, w: int) -> Decimal:
        if w <= _LEAF_BITS:
            return Decimal(k)
        half = w >> 1
        high = k >> half
        return inner(k - (high << half), half) + inner(high, w - half) * power(half)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        x = inner(abs(k), k.bit_length())
    return x.copy_negate() if k < 0 else x


def _exact(value: Fraction) -> str:
    """``str(value)``, each integer written through ``_decimal``: exact
    relevances on masked data outgrow Python's int-to-str digit limit,
    which a Decimal made from an int is not subject to."""
    parts = (value.numerator,) if value.denominator == 1 else value.as_integer_ratio()
    return "/".join(str(_decimal(k)) for k in parts)


def learn(dataset: Dataset, config: LearnerConfig | None = None) -> LearnResult:
    """Learn a DNF formula consistent with the dataset.

    Raises ConsistencyAbort when the data is (or becomes, after negative
    updates) self-contradictory.  Every outer iteration erases at least one
    positive or aborts, so there are at most p of them.  Raises
    TridnfError, before any sum, when the first iteration's deduplicated
    rows make 2^31 or more constraint sets (see ``_TermEngine``).

    Each working row's masks (``_masks``) are made with the row and kept
    beside it in ``us`` and ``vs``: all of them again only when
    preprocessing returns new rows, and one negative's when it is
    updated; erasure filters them with their rows.  The positives a
    finished term erases are the cover the engine hands back, which is
    not tested again.  A negative is tested against the term's literal
    mask ``picked`` (bit c for literal code c) through its off and open
    masks: the term may hold on it unless a certain cell contradicts a
    literal, and then its lowest Unknown on the term's variables is
    pinned to falsify it.  Only that updated row can newly clash with a
    positive, since erasure removes rows and never edits them.
    """
    cfg = config or LearnerConfig()
    trace: list[str] | None = [] if cfg.trace else None

    n, full = dataset.n, (1 << dataset.n) - 1
    # default ids come from input position and then travel with the row
    # through reductions, dedupes, and updates
    positives = _named(dataset.positives, "u")
    negatives = _named(dataset.negatives, "v")
    # the rows' masks and the one engine, made on the first outer iteration
    us = vs = engine = None

    terms: list[Term] = []
    erased: list[Instance] = []

    while positives:
        given = Dataset(n, tuple(positives), tuple(negatives))
        work = delete_repetitions(reduce_uncertainty(given))
        engine = engine or _TermEngine(n, work.p, work.q, trace)
        clashes = check_self_consistency(work)
        if clashes:
            _abort(trace, "inconsistent-data", pairs=clashes)
        if work is not given or us is None:
            positives, negatives = list(work.positives), list(work.negatives)
            us, vs = _masks(positives, n, False), _masks(negatives, n, True)

        codes, cover = engine.term(us, vs)
        term = term_from_codes(n, codes)
        terms.append(term)
        if trace is not None:
            trace.append(f"TERM {term.render()}")

        if not cover:
            _abort(trace, "no-positive-erased", term=term.render())
        erased += (positives[i] for i in cover)
        if trace is not None:
            trace.extend(f"POS_ERASED {positives[i].id}" for i in cover)
        covered = set(cover)
        positives = [inst for i, inst in enumerate(positives) if i not in covered]
        us = [mask for i, mask in enumerate(us) if i not in covered]

        picked = sum(1 << c for c in codes)
        on_term = picked | picked >> n
        for j, (inst, (off, op)) in enumerate(zip(negatives, vs)):
            if picked & off:
                continue  # a certain cell contradicts one of the term's literals
            # on_term holds picked's negated half above bit n: keep the row's cells
            pins = full & op & on_term
            if not pins:
                # every cell on the term's variables is certain and
                # agrees: the term is certainly true on a negative
                _abort(
                    trace, "unfalsifiable-negative",
                    instance_id=inst.id, term=term.render(),
                )
            pin = pins & -pins
            k = pin.bit_length() - 1
            one = picked >> n & pin  # a picked ~x falsifies at 1, an x at 0
            v = negatives[j] = Instance(n, inst.value_bits | one, inst.known_bits | pin, inst.label, inst.id)
            vs[j] = _masks((v,), n, True)[0]
            if trace is not None:
                trace.append(f"NEG_UPDATE {inst.id} {k + 1} {one >> k}")
            clashes = _clashes(positives, (v,), n, j + 1)
            if clashes:
                _abort(trace, "inconsistent-data", pairs=clashes)

    formula = DnfFormula(n, tuple(terms))
    final = Dataset(n, tuple(erased), tuple(negatives))
    return LearnResult(formula, final, tuple(trace) if trace is not None else ())
