"""Ternary training data: three-valued cells, instances, and datasets.

Instances are stored bit-packed: one mask holds the certain-one bits, a
second marks which cells are certain at all.  An Unknown cell has its known
bit clear (and, canonically, its value bit clear too), so pairwise
comparisons reduce to a handful of word-parallel integer operations.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import LengthMismatchError


class Trit(enum.IntEnum):
    """One cell: certain false, unknown, certain true.

    The member values encode the ordering FALSE < UNKNOWN < TRUE used by the
    membership rules; they are ranks, not cell values.
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


@dataclass(frozen=True)
class Instance:
    """One training row of ``n`` ternary cells plus a class label.

    ``value_bits`` bit k is set iff cell k is certainly 1; ``known_bits``
    bit k is set iff cell k is certain.  Canonical form requires
    ``value_bits & ~known_bits == 0``.  ``id`` is an opaque source tag
    (animal name, CSV row, ...); duplicates are allowed.
    """

    n: int
    value_bits: int
    known_bits: int
    label: Label
    id: str = ""

    def __post_init__(self):
        full = (1 << self.n) - 1
        if self.value_bits & ~self.known_bits:
            raise ValueError("unknown cell carries a value bit")
        if (self.value_bits | self.known_bits) & ~full:
            raise ValueError("mask bits beyond instance width")

    @classmethod
    def from_cells(cls, cells: Iterable, label: Label, id: str = "") -> "Instance":
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

    @classmethod
    def from_text(cls, text: str, label: Label, id: str = "") -> "Instance":
        """Parse a compact row like ``"1?0"``."""
        return cls.from_cells(text, label, id)

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
    def ones(self) -> int:
        return self.value_bits

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


@dataclass(frozen=True)
class Dataset:
    """Immutable bundle of positive and negative instances of equal width."""

    n: int
    positives: tuple[Instance, ...]
    negatives: tuple[Instance, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dataset width must be at least 1")
        for inst in self.positives:
            if inst.n != self.n:
                raise LengthMismatchError(f"instance {inst.id!r} has width {inst.n}, expected {self.n}")
            if inst.label is not Label.POSITIVE:
                raise ValueError(f"instance {inst.id!r} in positives carries label {inst.label}")
        for inst in self.negatives:
            if inst.n != self.n:
                raise LengthMismatchError(f"instance {inst.id!r} has width {inst.n}, expected {self.n}")
            if inst.label is not Label.NEGATIVE:
                raise ValueError(f"instance {inst.id!r} in negatives carries label {inst.label}")

    @classmethod
    def from_texts(
        cls,
        positives: Sequence[str],
        negatives: Sequence[str],
        pos_ids: Sequence[str] | None = None,
        neg_ids: Sequence[str] | None = None,
    ) -> "Dataset":
        """Build from compact rows like ``["1?0", "110"]``."""
        pos = tuple(
            Instance.from_text(t, Label.POSITIVE, pos_ids[i] if pos_ids else f"u{i + 1}")
            for i, t in enumerate(positives)
        )
        neg = tuple(
            Instance.from_text(t, Label.NEGATIVE, neg_ids[i] if neg_ids else f"v{i + 1}")
            for i, t in enumerate(negatives)
        )
        widths = {inst.n for inst in pos + neg}
        if len(widths) != 1:
            raise LengthMismatchError("rows of unequal width")
        return cls(widths.pop(), pos, neg)

    @property
    def p(self) -> int:
        return len(self.positives)

    @property
    def q(self) -> int:
        return len(self.negatives)

    @property
    def all_certain(self) -> bool:
        return all(inst.is_certain for inst in self.instances())

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
    one are scanned.
    """
    full = (1 << d.n) - 1

    def few(rows: tuple[Instance, ...]) -> list[int]:
        """Positions of the rows with at most one Unknown."""
        return [k for k, inst in enumerate(rows) if not (unk := full & ~inst.known_bits) & (unk - 1)]

    pos_at, neg_at = few(d.positives), few(d.negatives)
    if all(d.positives[k].known_bits == full for k in pos_at) and all(
        d.negatives[k].known_bits == full for k in neg_at
    ):
        return d
    pos = list(d.positives)
    neg = list(d.negatives)
    changed = True
    while changed:
        changed = False
        for i in pos_at:
            u = pos[i]
            for j in neg_at:
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


def delete_repetitions(d: Dataset) -> Dataset:
    """Drop duplicate rows within each class, keeping the first occurrence.

    Rows are duplicates when their full ternary vectors are equal.
    Duplicates across classes are never dropped here: a certain cross-class
    duplicate is a consistency violation and must stay visible to the check.
    The data is returned as it is when no row repeats.
    """

    def dedupe(instances: tuple[Instance, ...]) -> tuple[Instance, ...]:
        seen = set()
        kept = []
        for inst in instances:
            key = (inst.value_bits, inst.known_bits)
            if key in seen:
                continue
            seen.add(key)
            kept.append(inst)
        return tuple(kept)

    positives, negatives = dedupe(d.positives), dedupe(d.negatives)
    if len(positives) + len(negatives) == d.p + d.q:
        return d
    return Dataset(d.n, positives, negatives)
