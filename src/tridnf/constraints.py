"""Fuzzy constraint sets built from positive/negative instance pairs.

Each pair (u positive, v negative) yields one constraint set: the fuzzy set
of literals that separate u from v.  A literal separates fully (grade 1)
when both cells are certain and disagree the right way, at grade
(1/2)^(p+q) when one side of the disagreement is Unknown, and at grade
(1/2)^(p+q+1) when both cells are Unknown.  p and q are the class sizes at
build time; they are deliberately baked into the sets so later erasures do
not shift the grades.

Grades are stored as six bit masks (full/half/quarter, per literal sign).
All arithmetic on top of them is exact: grade values and cardinalities are
integers scaled by 2^(p+q+1), and relevances are Fractions of those.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import EmptyConstraintError
from .formula import Literal
from .trits import Dataset, Instance


@dataclass(frozen=True)
class ConstraintSet:
    """Fuzzy set of separating literals for one (positive, negative) pair.

    Bit k of ``pos_*`` grades literal ``x(k+1)``, bit k of ``neg_*`` grades
    ``~x(k+1)``.  The two quarter masks start out equal (both signs separate
    a doubly-Unknown cell) but are tracked apart so one sign can be
    discarded without the other.
    """

    n: int
    exponent: int
    positive_index: int
    negative_index: int
    pos_full: int
    pos_half: int
    pos_quarter: int
    neg_full: int
    neg_half: int
    neg_quarter: int

    @property
    def scale(self) -> int:
        """Denominator that turns every grade into an integer."""
        return 1 << (self.exponent + 1)

    def scaled_membership(self, lit: Literal) -> int:
        """Grade of ``lit`` times ``scale``: 0, 1, 2, or ``scale``."""
        bit = 1 << (lit.var - 1)
        if lit.neg:
            full, half, quarter = self.neg_full, self.neg_half, self.neg_quarter
        else:
            full, half, quarter = self.pos_full, self.pos_half, self.pos_quarter
        if full & bit:
            return self.scale
        if half & bit:
            return 2
        if quarter & bit:
            return 1
        return 0

    def membership(self, lit: Literal) -> Fraction:
        return Fraction(self.scaled_membership(lit), self.scale)

    def contains(self, lit: Literal) -> bool:
        return self.scaled_membership(lit) != 0

    @property
    def scaled_cardinality(self) -> int:
        return (
            self.scale * ((self.pos_full | self.neg_full << self.n).bit_count())
            + 2 * ((self.pos_half | self.neg_half << self.n).bit_count())
            + (self.pos_quarter | self.neg_quarter << self.n).bit_count()
        )

    @property
    def cardinality(self) -> Fraction:
        return Fraction(self.scaled_cardinality, self.scale)

    @property
    def is_empty(self) -> bool:
        return not (
            self.pos_full | self.pos_half | self.pos_quarter
            | self.neg_full | self.neg_half | self.neg_quarter
        )

    @property
    def memberships(self) -> dict[Literal, Fraction]:
        """Every literal with a nonzero grade, mapped to its exact grade."""
        out = {}
        for var in range(1, self.n + 1):
            for neg in (False, True):
                lit = Literal(neg, var)
                scaled = self.scaled_membership(lit)
                if scaled:
                    out[lit] = Fraction(scaled, self.scale)
        return out

    def discard(self, lit: Literal) -> "ConstraintSet":
        """Copy with ``lit`` removed (the opposite sign is untouched)."""
        bit = 1 << (lit.var - 1)
        if lit.neg:
            return replace(
                self,
                neg_full=self.neg_full & ~bit,
                neg_half=self.neg_half & ~bit,
                neg_quarter=self.neg_quarter & ~bit,
            )
        return replace(
            self,
            pos_full=self.pos_full & ~bit,
            pos_half=self.pos_half & ~bit,
            pos_quarter=self.pos_quarter & ~bit,
        )


@dataclass(frozen=True)
class ConstraintGroup:
    """All surviving constraint sets that share one positive instance."""

    positive_index: int
    sets: tuple[ConstraintSet, ...]


def pair_grades(
    u_value: int, u_known: int, v_value: int, v_known: int, full: int,
) -> tuple[int, int, int, int, int, int]:
    """The six grade masks of the pair (u positive, v negative).

    Takes the value and known bits of u and of v.  Returns, in
    ``ConstraintSet`` field order, full, half and quarter for ``xk``, then
    the same three for ``~xk``.  ``full`` marks every variable's bit.  The
    rule is bitwise, so any layout that gives each variable one bit works.
    """
    u_unk = ~u_known & full
    v_unk = ~v_known & full
    u_one, u_zero = u_value, u_known & ~u_value
    v_one, v_zero = v_value, v_known & ~v_value
    both = u_unk & v_unk
    return (
        u_one & v_zero,
        (u_one & v_unk) | (u_unk & v_zero),
        both,
        u_zero & v_one,
        (u_zero & v_unk) | (u_unk & v_one),
        both,
    )


def build_membership(
    u: Instance,
    v: Instance,
    p: int,
    q: int,
    origin: tuple[int, int] = (0, 0),
) -> ConstraintSet:
    """Grade every literal against the pair (u positive, v negative)."""
    if u.n != v.n:
        raise ValueError("instances of unequal width")
    grades = pair_grades(u.value_bits, u.known_bits, v.value_bits, v.known_bits, (1 << u.n) - 1)
    return ConstraintSet(u.n, p + q, *origin, *grades)


def build_constraints(dataset: Dataset) -> list[ConstraintGroup]:
    """One group per positive instance, one set per negative instance."""
    p, q = dataset.p, dataset.q
    return [
        ConstraintGroup(i, tuple(
            build_membership(u, v, p, q, origin=(i, j))
            for j, v in enumerate(dataset.negatives, start=1)
        ))
        for i, u in enumerate(dataset.positives, start=1)
    ]


def fuzzy_cardinality(cs: ConstraintSet) -> Fraction:
    return cs.cardinality


def relevance_ij(cs: ConstraintSet, lit: Literal) -> Fraction:
    """Grade of ``lit`` divided by the set's cardinality."""
    card = cs.scaled_cardinality
    if card == 0:
        raise EmptyConstraintError(
            f"constraint set ({cs.positive_index}, {cs.negative_index}) is empty"
        )
    return Fraction(cs.scaled_membership(lit), card)


def relevance_i(group: ConstraintGroup, lit: Literal, q: int) -> Fraction:
    """Mean of ``relevance_ij`` over the group, against the frozen ``q``.

    Erased sets simply no longer appear in ``group.sets``; the divisor stays
    the original negative-class size.
    """
    if q < 1:
        raise ValueError("q must be positive")
    total = sum((relevance_ij(cs, lit) for cs in group.sets), Fraction(0))
    return total / q


def total_relevance(groups: list[ConstraintGroup], lit: Literal, p: int, q: int) -> Fraction:
    """Mean of ``relevance_i`` over all groups, against the frozen ``p``."""
    if p < 1:
        raise ValueError("p must be positive")
    total = sum((relevance_i(g, lit, q) for g in groups), Fraction(0))
    return total / p
