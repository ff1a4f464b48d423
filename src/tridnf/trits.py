"""Ternary training data: three-valued cells, instances, and datasets.

Instances are stored bit-packed: one mask holds the certain-one bits, a
second marks which cells are certain at all.  An Unknown cell has its known
bit clear (and, canonically, its value bit clear too), so pairwise
comparisons reduce to a handful of word-parallel integer operations.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .errors import LengthMismatchError


class Trit(enum.IntEnum):
    """One cell: certain false, unknown, certain true.

    The member values index the cell's character in ``"0?1"``; they are
    not cell values, and no rule compares them.
    """

    FALSE = 0
    UNKNOWN = 1
    TRUE = 2

    @classmethod
    def coerce(cls, value) -> "Trit":
        """Accept 0/1, booleans, 0.5, None, '?', '0', '1', or a Trit."""
        if isinstance(value, Trit):
            return value
        if value in (0, False, "0"):
            return cls.FALSE
        if value in (1, True, "1"):
            return cls.TRUE
        if value is None or value == 0.5 or value == "?":
            return cls.UNKNOWN
        raise ValueError(f"not a ternary cell value: {value!r}")

    @property
    def is_certain(self) -> bool:
        return self is not Trit.UNKNOWN

    @property
    def negated(self) -> "Trit":
        if self is Trit.UNKNOWN:
            return self
        return Trit.FALSE if self is Trit.TRUE else Trit.TRUE

    def __str__(self) -> str:
        return "0?1"[self]


class Label(enum.Enum):
    POSITIVE = "+"
    NEGATIVE = "-"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True, init=False)
class Instance:
    """One training row of ``n`` ternary cells plus a class label.

    ``value_bits`` bit k is set iff cell k is certainly 1; ``known_bits``
    bit k is set iff cell k is certain.  Canonical form requires
    ``value_bits & ~known_bits == 0``.  ``id`` is an opaque source tag
    (animal name, CSV row, ...); duplicates are allowed.

    The constructor is written out because masking and negative updates
    build rows by the thousand: after the canonical-form checks it stores
    the five fields through their slot descriptors, past the frozen
    ``__setattr__`` that a generated ``__init__`` goes through field by
    field.  ``dataclasses.replace``, copies and pickles reach the same
    checks or the same slots.
    """

    n: int
    value_bits: int
    known_bits: int
    label: Label
    id: str = ""

    def __init__(self, n: int, value_bits: int, known_bits: int, label: Label, id: str = ""):
        if value_bits & ~known_bits:
            raise ValueError("unknown cell carries a value bit")
        if (value_bits | known_bits) & ~((1 << n) - 1):
            raise ValueError("mask bits beyond instance width")
        _set_n(self, n)
        _set_value_bits(self, value_bits)
        _set_known_bits(self, known_bits)
        _set_label(self, label)
        _set_id(self, id)

    @classmethod
    def from_cells(cls, cells: Iterable, label: Label, id: str = "") -> "Instance":
        """Build from cells as ``Trit.coerce`` reads them, a compact row
        like ``"1?0"`` included."""
        value = known = 0
        n = 0
        for k, raw in enumerate(cells):
            t = Trit.coerce(raw)
            if t is Trit.TRUE:
                value |= 1 << k
            if t.is_certain:
                known |= 1 << k
            n = k + 1
        return cls(n, value, known, label, id)

    def cell(self, k: int) -> Trit:
        """Cell at 0-based coordinate ``k``."""
        if not 0 <= k < self.n:
            raise IndexError(k)
        if not (self.known_bits >> k) & 1:
            return Trit.UNKNOWN
        return Trit.TRUE if (self.value_bits >> k) & 1 else Trit.FALSE

    @property
    def cells(self) -> tuple[Trit, ...]:
        return tuple(self.cell(k) for k in range(self.n))

    @property
    def text(self) -> str:
        return "".join(str(c) for c in self.cells)

    @property
    def zeros(self) -> int:
        return self.known_bits & ~self.value_bits

    @property
    def unknowns(self) -> int:
        return ~self.known_bits & ((1 << self.n) - 1)

    @property
    def is_certain(self) -> bool:
        return self.known_bits == (1 << self.n) - 1

    @property
    def unknown_count(self) -> int:
        return self.unknowns.bit_count()

    def with_cell(self, k: int, value: Trit) -> "Instance":
        """Copy with coordinate ``k`` replaced."""
        if not 0 <= k < self.n:
            raise IndexError(k)
        bit = 1 << k
        value_bits = self.value_bits & ~bit
        known_bits = self.known_bits & ~bit
        if value is Trit.TRUE:
            value_bits |= bit
        if value.is_certain:
            known_bits |= bit
        return Instance(self.n, value_bits, known_bits, self.label, self.id)

    def __str__(self) -> str:
        return f"{self.text}{self.label}"


# the slot descriptors exist once the dataclass has made the slotted class
_set_n, _set_value_bits, _set_known_bits, _set_label, _set_id = (
    Instance.__dict__[name].__set__ for name in ("n", "value_bits", "known_bits", "label", "id")
)


def _named(rows: Iterable[Instance], prefix: str) -> list[Instance]:
    """The one name rule: ``rows``, each row without an id named
    ``<prefix><k>`` by its 1-based position k in its class (``u`` for
    positives, ``v`` for negatives), as traces, aborts and certificates
    show it."""
    return [inst if inst.id else replace(inst, id=f"{prefix}{k}") for k, inst in enumerate(rows, start=1)]


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of positive and negative instances of equal width."""

    n: int
    positives: tuple[Instance, ...]
    negatives: tuple[Instance, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dataset width must be at least 1")
        for side, rows, label in (
            ("positives", self.positives, Label.POSITIVE),
            ("negatives", self.negatives, Label.NEGATIVE),
        ):
            for inst in rows:
                if inst.n != self.n:
                    raise LengthMismatchError(
                        f"instance {inst.id!r} has width {inst.n}, expected {self.n}"
                    )
                if inst.label is not label:
                    raise ValueError(f"instance {inst.id!r} in {side} carries label {inst.label}")

    @classmethod
    def from_texts(cls, positives: Sequence[str], negatives: Sequence[str]) -> "Dataset":
        """Build from compact rows like ``["1?0", "110"]``, named u1, u2, ...
        and v1, v2, ... as ``_named`` names them.  The width is the first
        row's; the dataset check names any row of another width."""
        pos = tuple(_named((Instance.from_cells(t, Label.POSITIVE) for t in positives), "u"))
        neg = tuple(_named((Instance.from_cells(t, Label.NEGATIVE) for t in negatives), "v"))
        if not pos + neg:
            raise ValueError("no row to take the dataset width from")
        return cls((pos + neg)[0].n, pos, neg)

    @property
    def p(self) -> int:
        return len(self.positives)

    @property
    def q(self) -> int:
        return len(self.negatives)

    @property
    def unknown_count(self) -> int:
        return sum(inst.unknown_count for inst in self.instances())

    def instances(self) -> Iterator[Instance]:
        yield from self.positives
        yield from self.negatives


def check_self_consistency(d: Dataset) -> tuple[tuple[int, int], ...]:
    """Every pair that agrees, with certain equal values, everywhere, as
    1-based (i, j) over positives x negatives, sorted; empty when
    consistent.

    Such a pair has no separating literal: the same fully-certain vector
    appears as both a positive and a negative.  Any Unknown cell (in either
    instance, at any coordinate) makes a pair separable, so only the
    certain rows are compared, through the certain positives' value bits.
    """
    full = (1 << d.n) - 1
    by_value: dict[int, list[int]] = {}
    for i, u in enumerate(d.positives, start=1):
        if u.known_bits == full:
            by_value.setdefault(u.value_bits, []).append(i)
    if not by_value:
        return ()
    violations = []
    for j, v in enumerate(d.negatives, start=1):
        if v.known_bits == full and v.value_bits in by_value:
            violations += [(i, j) for i in by_value[v.value_bits]]
    return tuple(sorted(violations))


def reduce_uncertainty(d: Dataset) -> Dataset:
    """Fill Unknowns that self-consistency forces.

    For a pair (u, v) whose cells are certainly equal at every coordinate
    except a single one where exactly one side is Unknown, that Unknown must
    take the negation of the certain value (otherwise the pair would be an
    inseparable duplicate).  Pairs are scanned in (i, j) ascending order,
    substitutions apply immediately, and passes repeat until one completes
    with no substitution.

    Such a pair has one row with exactly one Unknown and one row with
    none, and a substitution leaves a row certain, so rows with two or
    more Unknowns never take part: the data is returned as it is when no
    row has exactly one Unknown, and otherwise only the rows with at most
    one are scanned.  On those rows the rule is one mask test: with
    ``gap`` a row's unknown bits, a pair fills when exactly one gap is
    nonzero and the rows agree on every bit outside both gaps; the row
    with the gap then takes the negation of the other's value there.
    """
    full = (1 << d.n) - 1
    pos_at = [i for i, u in enumerate(d.positives) if not (gap := full ^ u.known_bits) & (gap - 1)]
    neg_at = [j for j, v in enumerate(d.negatives) if not (gap := full ^ v.known_bits) & (gap - 1)]
    if all(d.positives[i].known_bits == full for i in pos_at) and all(
        d.negatives[j].known_bits == full for j in neg_at
    ):
        return d
    pos = list(d.positives)
    neg = list(d.negatives)
    changed = True
    while changed:
        changed = False
        for i in pos_at:
            for j in neg_at:
                u, v = pos[i], neg[j]
                gap_u, gap_v = full ^ u.known_bits, full ^ v.known_bits
                if bool(gap_u) == bool(gap_v) or (u.value_bits ^ v.value_bits) & ~(gap_u | gap_v):
                    continue
                if gap_u:
                    pos[i] = Instance(d.n, u.value_bits | gap_u & ~v.value_bits, full, u.label, u.id)
                else:
                    neg[j] = Instance(d.n, v.value_bits | gap_v & ~u.value_bits, full, v.label, v.id)
                changed = True
    return Dataset(d.n, tuple(pos), tuple(neg))


def delete_repetitions(d: Dataset) -> Dataset:
    """Drop duplicate rows within each class, keeping the first occurrence.

    Rows are duplicates when their full ternary vectors are equal.
    Duplicates across classes are never dropped here: a certain cross-class
    duplicate is a consistency violation and must stay visible to the check.
    The data is returned as it is when no row repeats.
    """

    def dedupe(instances: tuple[Instance, ...]) -> tuple[Instance, ...]:
        first: dict[tuple[int, int], Instance] = {}
        for inst in instances:
            first.setdefault((inst.value_bits, inst.known_bits), inst)
        return tuple(first.values())

    positives, negatives = dedupe(d.positives), dedupe(d.negatives)
    if len(positives) + len(negatives) == d.p + d.q:
        return d
    return Dataset(d.n, positives, negatives)
