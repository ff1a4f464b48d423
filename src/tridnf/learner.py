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
Only literals whose tier is that close to the best are scored exactly,
from the rows.  The winner (ties broken by literal code: x1..xn then
~x1..~xn) is provably the same literal exact arithmetic would pick.

One ``_TermEngine`` serves a whole learn.  It fixes the field width
from the input's pair count, which bounds every later iteration's, and
makes a row's packed masks once, so an outer iteration sets up only the
rows that reduction or a negative update has changed since an earlier
one.
"""
from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

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


# field width in bits -> the native unsigned format that memoryview.cast
# reads one field with
_FIELD_FORMATS = {struct.calcsize(code) * 8: code for code in "QLIHB"}
# to_bytes in native order puts the top field first on a big-endian machine
_FIELD_ORDER = slice(None, None, -1 if sys.byteorder == "big" else 1)


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
    dilated off, j).  i and j are the 1-based positions by which trace
    lines and aborts name a pair.  Live set (u, v) is the set of the
    two rows, and a struck complement is cleared from u's open mask, since
    every live v decides it false.  Rows need not be distinct.  A row's
    masks are made once per learn and kept per class under its
    ``(value_bits, known_bits)``; a row that reduction or a negative
    update edits is a new key.  When ``term`` returns, ``live_u`` holds
    exactly the positives that admit every pick, which are the ones the
    finished term may cover, and ``learn`` erases them by position.

    ``tiers`` maps each tier denominator to a packed word in which literal
    c owns the W-bit field at bit c*W: the full-grade indicators of the
    sets with nf >= 1 summed by nf, and the R words (2 per half grade, 1
    per quarter) of the sets with nf = 0 summed by nr.  A set adds at most
    2 to a field and there are at most p*q sets, so no field carries into
    the next.  W is the narrowest of 8, 16, 32 and 64 bits that holds
    2*pairs, a whole number of bytes, so ``select`` reads a word's fields
    with one ``memoryview.cast``.  ``learn`` passes the input's p*q as
    ``pairs``: later iterations only erase, dedupe or fill rows, so no
    term's p*q is larger.  A v row's dilated off word also carries a
    sentinel bit above all 2n fields, so that ``_sum`` sees every v with
    nf = 0, even one whose cells are all Unknown and whose off mask is 0.
    """

    def __init__(self, n: int, pairs: int, trace: list[str] | None):
        w = next((w for w in (8, 16, 32, 64) if not 2 * pairs >> w), None)
        if w is None:
            raise OverflowError(f"{pairs} constraint sets overflow a 64-bit field")
        if w not in _FIELD_FORMATS:
            raise RuntimeError(f"no native {w}-bit unsigned format for memoryview.cast")
        self.n, self.trace = n, trace
        self.width, self.format = w, _FIELD_FORMATS[w]
        self.field = (1 << w) - 1
        self.sentinel = 1 << 2 * n * w
        # per class, positives first: (value_bits, known_bits) -> masks
        self.masks: tuple[dict, dict] = ({}, {})

    def _live(self, instances, negative: bool) -> list[tuple[int, int, int, int]]:
        """The rows a term opens on, in the shape of ``live_u`` or ``live_v``."""
        cache, n = self.masks[negative], self.n
        live = []
        for k, inst in enumerate(instances, 1):
            key = (inst.value_bits, inst.known_bits)
            masks = cache.get(key)
            if masks is None:
                # literal code c (x1..xn, then ~x1..~xn) owns bit c: a
                # positive decides the literals its certain cells make
                # true, a negative those they make false, and an Unknown
                # cell leaves both signs of its variable open
                decided = inst.zeros | inst.ones << n if negative else inst.ones | inst.zeros << n
                dilated = _dilate(decided, self.width)
                dilated = dilated | self.sentinel if negative else dilated * self.field
                masks = cache[key] = (decided, inst.unknowns | inst.unknowns << n, dilated)
            live.append((*masks, k))
        return live

    def open(self, positives, negatives) -> None:
        """Start a term on an outer iteration's working rows."""
        p, q = len(positives), len(negatives)
        self.norm = p * q
        self.scale = 1 << (p + q + 1)
        self.live_u = self._live(positives, False)
        self.live_v = self._live(negatives, True)
        self.tiers = self._sum(self.live_u, self.live_v)

    def _sum(self, live_u, live_v) -> dict[int, int]:
        """The tiers of the rectangle live_u x live_v; aborts on its
        first empty set in (i, j) order.

        Per u, the dilated off words of the v rows are added up in a slot
        per nf; ANDing a slot with u's widened on mask keeps the fields of
        u's full grades, which hold at most q, so nothing carries, and
        drops the sentinel bits.  A v row always leaves its sentinel in
        its slot, so a nonzero slot 0 means u has sets with nf = 0, and
        only those are graded in full.
        """
        w, slots, tiers = self.width, self.n + 1, {}
        offs = [(v[0], v[2]) for v in live_v]
        for on, op, wide, i in live_u:
            groups = [0] * slots  # nf -> sum of the dilated off words
            for off, d_off in offs:
                groups[(on & off).bit_count()] += d_off
            if groups[0]:
                for off, v_op, _, j in live_v:
                    if on & off:
                        continue
                    half = on & v_op | op & off
                    quarter = op & v_op
                    nr = 2 * half.bit_count() + quarter.bit_count()
                    if not nr:
                        _abort(self.trace, "empty-constraint-set", pairs=((i, j),))
                    tiers[nr] = tiers.get(nr, 0) + (_dilate(half, w) << 1 | _dilate(quarter, w))
            for nf in range(1, slots):
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
        are scored exactly.
        """
        codes = 2 * self.n
        size = codes * self.width // 8
        d = math.lcm(*self.tiers)
        multipliers = [d // t for t in self.tiers]
        fields = [
            memoryview(word.to_bytes(size, sys.byteorder)).cast(self.format)[_FIELD_ORDER]
            for word in self.tiers.values()
        ]
        lead = [sum(map(mul, column, multipliers)) for column in zip(*fields)]  # L_c * d
        best_lead = max(lead)
        margin = 4 * len(self.live_u) * len(self.live_v) * self.n * d
        shift = self.scale.bit_length() - 1
        cluster = [c for c in range(codes) if (best_lead - lead[c]) << shift <= margin]
        if len(cluster) == 1 and self.trace is None:
            return cluster[0]
        exact = self.scores(cluster)
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
            self.trace.extend(
                f"ERASE_SET {u[3]} {v[3]}" for u in live_u for v in self.live_v if (v[0] | v[1]) & bit
            )
        self.tiers = self._sum(live_u, live_v)
        self.live_u, self.live_v = live_u, live_v

    def term(self, positives, negatives) -> list[int]:
        """Open a term, then select and apply literals until no v row is
        live; the picked codes."""
        self.open(positives, negatives)
        codes: list[int] = []
        while self.live_v:
            codes.append(self.select())
            self.apply(codes[-1])
        return codes


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


def learn(dataset: Dataset, config: LearnerConfig | None = None) -> LearnResult:
    """Learn a DNF formula consistent with the dataset.

    Raises ConsistencyAbort when the data is (or becomes, after negative
    updates) self-contradictory.  Every outer iteration erases at least one
    positive or aborts, so there are at most p of them.

    The positives a finished term erases are the engine's last live u
    rows, which are not tested again.  A negative is tested against the
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
    engine = _TermEngine(n, len(positives) * len(negatives), trace)

    while positives:
        iterations += 1
        work = Dataset(n, tuple(positives), tuple(negatives))
        work = delete_repetitions(reduce_uncertainty(work))
        clashes = check_self_consistency(work)
        if clashes:
            _abort(trace, "inconsistent-data", pairs=clashes)
        positives = list(work.positives)
        negatives = list(work.negatives)

        codes = engine.term(positives, negatives)
        term = term_from_codes(n, codes)
        terms.append(term)
        if trace is not None:
            trace.append(f"TERM {term.render()}")

        if not engine.live_u:
            _abort(trace, "no-positive-erased", term=term.render())
        cover = dict.fromkeys(u[3] - 1 for u in engine.live_u)  # in position order
        erased += (positives[i] for i in cover)
        if trace is not None:
            trace.extend(f"POS_ERASED {positives[i].id}" for i in cover)
        positives = [inst for i, inst in enumerate(positives) if i not in cover]

        picked = sum(1 << c for c in codes)
        on_term = picked | picked >> n
        for j, inst in enumerate(negatives):
            if picked & (inst.zeros | inst.ones << n):
                continue  # a certain cell contradicts one of the term's literals
            pins = inst.unknowns & on_term
            if not pins:
                # every cell on the term's variables is certain and
                # agrees: the term is certainly true on a negative
                _abort(
                    trace, "unfalsifiable-negative",
                    instance_id=inst.id, term=term.render(),
                )
            k = (pins & -pins).bit_length() - 1
            value = Trit.TRUE if picked >> n + k & 1 else Trit.FALSE
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
