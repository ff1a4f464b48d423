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
packed integers with one field per literal, 8, 16, 32 or 64 bits wide,
summed anew over the rectangle after every pick (see ``_TermEngine``).
Each literal's estimate is read at one fixed scale, d = 2^30, as the
whole number sum of its fields times floor(d/t) over the tiers t, from
lanes of 64*r bits in which every tier's fields are weighted and added
at once; a literal's fields over all tiers hold less than 2^W, so a lane
of W + 30 bits or more does not carry into the next (see
``_TermEngine._leads``).  The floors leave each estimate short by less
than the literal's field total, a slack the cluster test adds to the
proven bound.  Only literals whose estimate is that close to the best
are scored exactly, from the rows or, with no open cell, from the
tiers.  The winner (ties broken by literal code: x1..xn then ~x1..~xn)
is provably the same literal exact arithmetic would pick.

One ``_TermEngine`` serves a whole learn.  It fixes the field width W
from the input's pair count, which bounds every later iteration's, and
makes a row's packed masks once, so an outer iteration sets up only the
rows that reduction or a negative update has changed since an earlier
one.  What depends only on n and W (the word of every field's low bit,
the tables that dilate a mask, the lane masks of ``_leads``) is made
once per (n, W) and kept at module level for every later learn.  A
term's opening sums carry over by value: a positive's sums depend only
on its row and the negatives' rows, so they are kept by the positive's
mask, and when few negatives' masks changed since the last opening, a
positive with a kept mask moves only those negatives between its slots
instead of summing all of them.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from operator import getitem

from .errors import ConsistencyAbort
from .formula import DnfFormula, Term, term_from_codes
from .trits import (
    Dataset,
    Instance,
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
_LAYOUTS: dict[tuple[int, int], tuple] = {}  # (n, W) -> unit word, dilation tables, lanes


def _layout(n: int, w: int) -> tuple[int, tuple, tuple]:
    """The constants of every term engine on n variables at field width
    w, made once per (n, w): the word with the low bit of each of the 2n
    fields, the dilation tables of the 2n-bit masks, and the lanes of
    ``_leads``, its phase masks and the ``struct`` that reads a phase.
    A lead is below 2^W * d = 2^(W+30), so a lane is 64*r bits, r =
    ceil((W + 30) / 64): one 64-bit word for W <= 32 and two for W = 64.
    There is one table per byte of a 2n-bit mask, at most 8: table k's
    entries reach bit 8*(k+1)*w, so tables for every byte of a wide mask
    would grow with n squared."""
    layout = _LAYOUTS.get((n, w))
    if layout is None:
        byte = [sum(1 << k * w for k in range(8) if b >> k & 1) for b in range(256)]
        tables = tuple(tuple(x << 8 * k * w for x in byte) for k in range(min(8, -(-n // 4))))
        codes, r = 2 * n, -(-(w + _SCALE.bit_length() - 1) // 64)
        k = 64 * r // w  # fields per lane
        count = -(-codes // k)  # lanes per phase
        mask = sum((1 << w) - 1 << 64 * r * m for m in range(count))
        lanes = tuple(mask << j * w for j in range(min(k, codes))), struct.Struct(f"<{count * r}Q")
        layout = _LAYOUTS[n, w] = sum(1 << c * w for c in range(codes)), tables, lanes
    return layout


def _dilate(bits: int, tables: tuple) -> int:
    """``bits`` with bit k moved to bit k*W: one table entry per byte,
    summed, table k holding each byte value dilated and shifted to byte
    k's fields (see ``_layout``).  Bits past the tables' bytes are
    dilated in chunks of that many bytes; W is read off table 0, whose
    entry for byte value 2 is 1 << W."""
    try:
        return sum(map(getitem, tables, bits.to_bytes(len(tables), "little")))
    except OverflowError:
        k, w = 8 * len(tables), tables[0][2].bit_length() - 1
        chunks = range(0, bits.bit_length(), k)
        return sum(_dilate(bits >> s & (1 << k) - 1, tables) << s * w for s in chunks)


class _TermEngine:
    """Scoring and erasure state of one learn, opened once per term on
    that outer iteration's working rows.  ``open`` sets p, q, the grade
    scale 2^(p+q+1) and the norm p*q, which do not drift as sets are
    erased mid-term.

    Set (u, v) grades literal c full when u decides c true and v decides
    it false, half when one of them leaves c open and the other decides it
    that way, and quarter when both leave it open.  nf counts its full
    grades and nr = 2*|half| + |quarter|; its scaled cardinality is
    scale*nf + nr and literal c's scaled grade is scale, 2 or 1.

    A term's state is its rectangle: ``live_u`` and ``live_v`` list the
    live rows in position order, u as (on, open, wide, i), wide being on
    dilated with each bit widened to its field, and v as (off, open,
    dilated off, j), the dilated off word carrying one count bit just
    above the 2n fields (see ``_sum``).  i and j are the 1-based
    positions by which trace lines and aborts name a pair.  Live set
    (u, v) is the set of the two rows, and a struck complement is cleared
    from u's open mask, since every live v decides it false.  Rows need
    not be distinct.  A row's masks are made once per learn and kept per
    class under its ``(value_bits, known_bits)``; a row that reduction or
    a negative update edits is a new key.  ``term`` hands back, with the
    picks, the term's cover: the positions of the u rows still live, which
    are exactly the positives that admit every pick.

    ``opened`` keeps the last opening's ``live_v`` and each positive's
    slot list (see ``_sum``) under its on mask, from which ``open``
    carries the next opening's lists.

    ``tiers`` maps each tier denominator to a packed word in which literal
    c owns the W-bit field at bit c*W: the full-grade indicators of the
    sets with nf >= 1 summed by nf, and the R words (2 per half grade, 1
    per quarter) of the sets with nf = 0 summed by nr.  A set adds at most
    2 to a field and there are at most p*q sets, so no field carries into
    the next, nor does a literal's sum over all tiers reach 2^W.  W is the
    narrowest of 8, 16, 32 and 64 bits that holds 2*pairs, so a 64-bit
    word holds whole fields: ``select`` weighs every tier's fields by
    floor(d/t) at the fixed scale d = 2^30 and adds them at once in lanes
    of 64*r bits, wide enough that none carries, and reads each lane back
    as r little-endian words (see ``_leads``).  ``unit`` (each field's
    low bit), ``tables`` (see ``_dilate``) and ``lanes`` (the phase masks
    and ``struct`` of ``_leads``) are the constants of (n, W), shared by
    every engine of that shape (see ``_layout``).
    ``learn`` passes the input's p*q as ``pairs``: later iterations only
    erase, dedupe or fill rows, so no term's p*q is larger.
    """

    def __init__(self, n: int, pairs: int, trace: list[str] | None):
        w = next((w for w in (8, 16, 32, 64) if not 2 * pairs >> w), None)
        if w is None:
            raise OverflowError(f"{pairs} constraint sets overflow a 64-bit field")
        self.n, self.trace = n, trace
        self.width, self.field = w, (1 << w) - 1
        self.unit, self.tables, self.lanes = _layout(n, w)
        # per class, positives first: (value_bits, known_bits) -> masks
        self.masks: tuple[dict, dict] = ({}, {})
        self.dilated: dict[int, int] = {}  # open mask -> the mask dilated
        self.opened = None

    def _live(self, instances, negative: bool) -> list[tuple[int, int, int, int]]:
        """The rows a term opens on, in the shape of ``live_u`` or ``live_v``.

        A negative's dilated off word also carries the count bit, bit 2n*W
        just above the fields, by which ``_sum`` counts the negatives in a
        slot."""
        cache, n = self.masks[negative], self.n
        full = (1 << n) - 1
        count = 1 << 2 * n * self.width if negative else 0
        live = []
        for k, inst in enumerate(instances, 1):
            key = (inst.value_bits, inst.known_bits)
            masks = cache.get(key)
            if masks is None:
                # literal code c (x1..xn, then ~x1..~xn) owns bit c: a
                # positive decides the literals its certain cells make
                # true, a negative those they make false, and an Unknown
                # cell leaves both signs of its variable open
                ones, known = key
                zeros, unknowns = known ^ ones, full ^ known
                decided = zeros | ones << n if negative else ones | zeros << n
                dilated = _dilate(decided, self.tables) * (1 if negative else self.field) | count
                masks = cache[key] = (decided, unknowns | unknowns << n, dilated)
            live.append((*masks, k))
        return live

    def open(self, positives, negatives) -> None:
        """Start a term on an outer iteration's working rows.

        A positive's slot list (see ``_sum``) depends only on its on mask
        and the negatives' off masks, so the last opening's lists, kept
        by on mask, carry over by value.  Between openings a negative
        changes only where a negative update or reduction put a new row
        at its position; dedupe changes q.  Carrying moves a changed
        negative's dilated off word between two slots of each kept list,
        2 steps per changed negative, where a fresh sum costs q, so it
        runs when q is unchanged and fewer than q/2 off masks changed.
        A positive whose on mask was not opened on last time is summed
        in full.
        """
        p, q = len(positives), len(negatives)
        self.norm = p * q
        self.scale = 1 << (p + q + 1)
        self.live_u = self._live(positives, False)
        live_v = self.live_v = self._live(negatives, True)
        slots = {}
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
        self.tiers = self._sum(self.live_u, live_v, slots)
        self.opened = live_v, slots

    def _sum(self, live_u, live_v, slots) -> dict[int, int]:
        """The tiers of the rectangle live_u x live_v; aborts on its
        first empty set in (i, j) order.

        Per u, the dilated off words of the v rows are added up in a slot
        per nf; ANDing a slot with u's widened on mask keeps the fields of
        u's full grades, which hold at most q, so nothing carries, and
        drops the count above them.  Each off word's count bit makes slot
        0 hold, above the fields, the number of v rows with which u has
        nf = 0, those whose off mask meets none of u's on mask, the
        all-``?`` rows, whose off word is otherwise 0, included.  Only
        when that count is not 0 are the v rows scanned, in position
        order, and those sets graded one by one.  Dilation distributes
        over & and |, so their half and quarter words are made from
        dilated masks: u's on mask is its widened mask's low bits, a v
        row's off mask is its dilated off word less the count bit, which
        no open mask reaches, and the open masks are dilated once per
        learn each, kept by value in ``dilated``.  ``slots`` maps an on
        mask to its slot list: at an opening it holds the lists carried
        from the last one, and each list summed here is added to it; a
        carried slot moves whole off words, count bits included, so its
        count stays exact.
        """
        if not live_v:
            return {}  # the term is closed: nothing left to select
        levels, tiers, tables = self.n + 1, {}, self.tables
        unit, dilated = self.unit, self.dilated
        offs = [(v[0], v[2]) for v in live_v]
        for on, op, wide, i in live_u:
            groups = slots.get(on)  # nf -> sum of the dilated off words
            if groups is None:
                groups = slots[on] = [0] * levels
                for off, d_off in offs:
                    groups[(on & off).bit_count()] += d_off
            if groups[0]:
                d_on = wide & unit
                d_op = dilated.get(op)
                if d_op is None:
                    d_op = dilated[op] = _dilate(op, tables)
                for off, v_op, d_off, j in live_v:
                    if on & off:
                        continue
                    d_v_op = dilated.get(v_op)
                    if d_v_op is None:
                        d_v_op = dilated[v_op] = _dilate(v_op, tables)
                    half = d_on & d_v_op | d_op & d_off
                    quarter = d_op & d_v_op
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
        admit one of them: per code, the scaled grades are summed as
        integers per cardinality before any Fraction is formed."""
        scale, want = self.scale, sum(1 << c for c in codes)
        sums: dict[int, dict[int, int]] = {c: {} for c in codes}  # code -> card -> sum
        bits = [(1 << c, sums[c]) for c in codes]
        live_v = [v for v in self.live_v if (v[0] | v[1]) & want]
        for on, op, _, _ in self.live_u:
            if not (on | op) & want:
                continue
            for off, v_op, _, _ in live_v:
                f = on & off
                half = on & v_op | op & off
                quarter = op & v_op
                card = scale * f.bit_count() + 2 * half.bit_count() + quarter.bit_count()
                for b, per_card in bits:
                    num = scale if f & b else 2 if half & b else 1 if quarter & b else 0
                    if num:
                        per_card[card] = per_card.get(card, 0) + num
        return {
            c: sum((Fraction(num, card) for card, num in per_card.items()), Fraction(0))
            for c, per_card in sums.items()
        }

    def _leads(self) -> list[int]:
        """sum_t F_{c,t} * floor(d/t) for every literal code c, d = 2^30,
        in O(tiers * phases) whole-int steps: L_c * d less the floors'
        rounding, which is below c's field total, at most 2*pairs.

        Over all tiers a code's fields add up to at most 2*pairs < 2^W, so
        its lead is below 2^(W+30) and fits a lane of 64*r bits (see
        ``_layout``).  A lane spans k = 64*r/W fields, and phase j takes
        field j of every lane, codes j, j+k, j+2k, ...: it masks each tier
        word to those fields, adds them up times floor(d/t) and shifts the
        sum down j fields, so each lane holds one code's lead and none
        carries into the next.  A phase is read with one ``struct`` unpack
        of its little-endian 64-bit words, r of which make a lane.
        """
        w, codes, (masks, words) = self.width, 2 * self.n, self.lanes
        terms = [(word, _SCALE // t) for t, word in self.tiers.items()]
        parts = []
        for j, mask in enumerate(masks):
            part = 0
            for word, m in terms:
                part += (word & mask) * m
            lanes = words.unpack((part >> j * w).to_bytes(words.size, "little"))
            if w == 64:  # r = 2: a lane is two words, the low one first
                lanes = [low | high << 64 for low, high in zip(lanes[::2], lanes[1::2])]
            parts.append(lanes)
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
        cluster's size.  When no live row leaves a cell open, every set
        has nr = 0 and adds exactly F_c/nf, so the cluster is scored
        from the tiers, over their lcm, without ``scores``.
        """
        lead = self._leads()
        pairs = len(self.live_u) * len(self.live_v)
        floor = max(lead) - 2 * pairs - (4 * pairs * self.n * _SCALE >> self.scale.bit_length() - 1)
        cluster = [c for c, x in enumerate(lead) if x >= floor]
        if len(cluster) == 1 and self.trace is None:
            return cluster[0]
        if any(u[1] for u in self.live_u) or any(v[1] for v in self.live_v):
            exact = self.scores(cluster)
        else:  # no open cell: every set has nr = 0 and adds exactly F_c/nf
            w, field, den = self.width, self.field, math.lcm(*self.tiers)
            weights = [(word, den // t) for t, word in self.tiers.items()]
            exact = {c: Fraction(sum((word >> c * w & field) * m for word, m in weights), den) for c in cluster}
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
        complement is struck from the survivors, whose tiers are summed
        anew.
        """
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
        self.tiers = self._sum(live_u, live_v, {})
        self.live_u, self.live_v = live_u, live_v

    def term(self, positives, negatives) -> tuple[list[int], list[int]]:
        """Open a term, then select and apply literals until no v row is
        live; the picked codes and the cover, the ascending 0-based
        positions of the positives still live."""
        self.open(positives, negatives)
        codes: list[int] = []
        while self.live_v:
            codes.append(self.select())
            self.apply(codes[-1])
        return codes, [u[3] - 1 for u in self.live_u]


def _exact(value: Fraction) -> str:
    """``str(value)``, each integer written through ``Decimal``: exact
    relevances on masked data outgrow Python's int-to-str digit limit,
    which a Decimal made from an int is not subject to."""
    parts = (value.numerator,) if value.denominator == 1 else value.as_integer_ratio()
    return "/".join(str(Decimal(k)) for k in parts)


def learn(dataset: Dataset, config: LearnerConfig | None = None) -> LearnResult:
    """Learn a DNF formula consistent with the dataset.

    Raises ConsistencyAbort when the data is (or becomes, after negative
    updates) self-contradictory.  Every outer iteration erases at least one
    positive or aborts, so there are at most p of them.

    The positives a finished term erases are the cover the engine hands
    back, which is not tested again.  A negative is tested against the
    term's literal mask ``picked`` (bit c for literal code c): the term
    may hold on it unless a certain cell contradicts a literal, and then
    its lowest Unknown on the term's variables is pinned to falsify it.
    """
    cfg = config or LearnerConfig()
    trace: list[str] | None = [] if cfg.trace else None

    n = dataset.n
    full = (1 << n) - 1
    # default ids come from input position and then travel with the row
    # through reductions, dedupes, and updates
    positives = _named(dataset.positives, "u")
    negatives = _named(dataset.negatives, "v")

    terms: list[Term] = []
    erased: list[Instance] = []
    engine = _TermEngine(n, len(positives) * len(negatives), trace)

    while positives:
        work = Dataset(n, tuple(positives), tuple(negatives))
        work = delete_repetitions(reduce_uncertainty(work))
        clashes = check_self_consistency(work)
        if clashes:
            _abort(trace, "inconsistent-data", pairs=clashes)
        positives = list(work.positives)
        negatives = list(work.negatives)

        codes, cover = engine.term(positives, negatives)
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

        picked = sum(1 << c for c in codes)
        on_term = picked | picked >> n
        for j, inst in enumerate(negatives):
            value, known = inst.value_bits, inst.known_bits
            if picked & ((known ^ value) | value << n):
                continue  # a certain cell contradicts one of the term's literals
            # on_term holds picked's negated half above bit n: keep the row's cells
            pins = full & ~known & on_term
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
            v = Instance(n, value | one, known | pin, inst.label, inst.id)
            negatives[j] = v
            if trace is not None:
                trace.append(f"NEG_UPDATE {inst.id} {k + 1} {one >> k}")
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
    return LearnResult(formula, final, tuple(trace) if trace is not None else ())
