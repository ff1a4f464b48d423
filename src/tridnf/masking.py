"""Deterministic blanking of dataset cells.

A mask is planned first and applied second, so the same plan can be stored,
inspected, and replayed.  Cells are addressed by (row, column): row is the
0-based position in positives-then-negatives order, column the 0-based
variable coordinate.  Row positions are used instead of instance ids because
ids may repeat (the bundled animal data contains two frogs).

Randomness comes from SplitMix64, chosen because it is tiny, fast, and
specified exactly (see README), so plans reproduce across platforms and
implementations.  Selection without replacement is a partial Fisher-Yates
shuffle over the candidate cells in row-major order, each cell held as the
integer row * len(columns) + k for the k-th candidate column.

A plan is applied a row at a time: its cells are checked in plan order
and gathered into one blank mask per row, and each touched row is copied
once with those cells made Unknown.

Step i of the shuffle writes only positions i and j >= i, so after k steps
the first k candidates are final: the plan at any fraction is the sorted
prefix of one shuffle run to the largest fraction.  ``_ladder`` uses
that to mask one dataset at several fractions from a single shuffle, and
returns the dataset itself for a fraction that blanks no cell.

The draws that drive a shuffle depend on the seed alone; only their
reduction modulo ``size - i`` depends on the dataset and mode.  So the
experiment runner draws each seed's stream once, to the largest cell
count, and every ladder of that seed reduces the same draws.  The shuffle
itself depends only on its candidate count, its cell count and the seed,
so the runner makes it once per (candidate count, seed) and every ladder
with that many candidates, such as the random-mode ladders of every
class, walks the same one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CellOutOfRangeError, FractionOutOfRangeError
from .formula import DnfFormula, _check_width
from .trits import Dataset, Instance

MASK64 = (1 << 64) - 1

RANDOM = "random"
TRUSTWORTHY = "trustworthy"


class SplitMix64:
    """SplitMix64 pseudo-random generator (64-bit state, 64-bit output)."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True)
class MaskPlan:
    """A resolved set of cells to blank, plus how it was derived.

    ``requested`` is the rounded cell budget; ``len(cells)`` may fall short
    of it in trustworthy mode when few irrelevant cells exist, in which case
    ``shortfall`` records the gap.
    """

    mode: str
    fraction: Fraction
    seed: int
    cells: tuple[tuple[int, int], ...]
    requested: int
    shortfall: int = 0


def _candidate_columns(dataset: Dataset, mode: str, truth: DnfFormula | None) -> list[int]:
    """The columns a plan draws from, ascending."""
    if mode == RANDOM:
        return list(range(dataset.n))
    if truth is None:
        raise ValueError("trustworthy masking requires a reference formula")
    relevant = set(truth.vars_used)
    return [col for col in range(dataset.n) if col + 1 not in relevant]


def _draws(streams: dict, seed: int, count: int) -> list[int]:
    """At least the first ``count`` SplitMix64 outputs of ``seed``.

    ``streams`` maps a seed to its generator and the outputs drawn so far,
    which grow in place, so callers that share it draw each output once.
    ``_plan`` keeps its shuffles in the same dict, under
    ``(size, count, seed)`` keys.
    """
    if seed not in streams:
        streams[seed] = (SplitMix64(seed).next_u64, [])
    next_u64, drawn = streams[seed]
    drawn.extend(next_u64() for _ in range(count - len(drawn)))
    return drawn


def _shuffle(size: int, count: int, draws: list[int]) -> list[int]:
    """The first ``count`` of ``range(size)`` after ``count`` steps of a
    partial Fisher-Yates shuffle, step i reducing ``draws[i]`` modulo
    ``size - i``; a shorter run gives a prefix of this."""
    cells = list(range(size))
    for i, draw in zip(range(count), draws):
        j = i + draw % (size - i)
        cells[i], cells[j] = cells[j], cells[i]
    return cells[:count]


def _plan(
    dataset: Dataset,
    mode: str,
    fractions: Sequence,
    seed: int,
    truth: DnfFormula | None,
    streams: dict,
) -> tuple[list[tuple[Fraction, int, int]], list[int], list[int]]:
    """Check the arguments and shuffle the candidate cells, for
    ``make_mask`` and ``_ladder`` alike.  A given ``truth`` may name no
    variable the data lacks, in either mode.

    Returns the fraction, requested cell count and capped cell count of
    each of ``fractions``, the candidate columns, and the shuffle run to
    the largest capped count.  That shuffle is made once per ``streams``
    and kept there by its size, count and seed, so callers share it and
    must not change it.
    """
    if mode not in (RANDOM, TRUSTWORTHY):
        raise ValueError(f"mode must be '{RANDOM}' or '{TRUSTWORTHY}', got {mode!r}")
    if not 0 <= seed <= MASK64:
        # SplitMix64 keeps the low 64 bits, so a wider seed would alias
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    rows = dataset.p + dataset.q
    requested = []  # (fraction, requested cell count) of each
    for fraction in fractions:
        value = Fraction(fraction)
        if not 0 <= value <= Fraction(1, 2):
            raise FractionOutOfRangeError(f"mask fraction must be in [0, 1/2], got {fraction!r}")
        requested.append((value, round(value * rows * dataset.n)))
    if truth is not None:
        _check_width(truth, dataset.n)
    columns = _candidate_columns(dataset, mode, truth)
    size = rows * len(columns)
    budgets = [(value, want, min(want, size)) for value, want in requested]
    top = max((count for _, _, count in budgets), default=0)
    shuffled = streams.get((size, top, seed))
    if shuffled is None:
        shuffled = streams[size, top, seed] = _shuffle(size, top, _draws(streams, seed, top))
    return budgets, columns, shuffled


def make_mask(
    dataset: Dataset,
    mode: str,
    fraction,
    seed: int,
    truth: DnfFormula | None = None,
) -> MaskPlan:
    """Plan a blanking of round(fraction * cell count) cells; ``seed``
    is an integer in [0, 2^64).

    Random mode draws from every cell; trustworthy mode draws only from
    columns whose variable does not occur in ``truth``, capping at the
    available candidates.  Same arguments, same plan.
    """
    [(value, requested, count)], columns, shuffled = _plan(
        dataset, mode, [fraction], seed, truth, {}
    )
    width = len(columns)
    return MaskPlan(
        mode=mode,
        fraction=value,
        seed=seed,
        # columns ascend, so the indices sort as their cells do
        cells=tuple((index // width, columns[index % width]) for index in sorted(shuffled)),
        requested=requested,
        shortfall=requested - count,
    )


def _blanked(inst: Instance, bits: int) -> Instance:
    """``inst`` with the cells of ``bits`` made Unknown."""
    return Instance(inst.n, inst.value_bits & ~bits, inst.known_bits & ~bits, inst.label, inst.id)


def apply_mask(dataset: Dataset, plan: MaskPlan) -> Dataset:
    """Blank the plan's cells.  Idempotent; everything else is untouched."""
    rows: list[Instance] = list(dataset.instances())
    blank: dict[int, int] = {}  # row -> bits of its cells to blank
    for row, col in plan.cells:
        if not 0 <= row < len(rows):
            raise CellOutOfRangeError(f"row {row} outside 0..{len(rows) - 1}")
        if not 0 <= col < dataset.n:
            raise CellOutOfRangeError(f"column {col} outside 0..{dataset.n - 1}")
        blank[row] = blank.get(row, 0) | 1 << col
    for row, bits in blank.items():
        rows[row] = _blanked(rows[row], bits)
    return Dataset(dataset.n, tuple(rows[: dataset.p]), tuple(rows[dataset.p :]))


def _ladder(
    dataset: Dataset,
    mode: str,
    fractions: Sequence,
    seed: int,
    truth: DnfFormula | None,
    streams: dict,
) -> list[Dataset]:
    """``apply_mask(dataset, make_mask(dataset, mode, f, seed, truth))`` for
    each ``f`` of ``fractions``, in their order, from one shuffle kept in
    ``streams`` (see ``_plan``; a fresh ``{}`` shuffles anew).

    The shuffle runs to the largest cell count, and its prefix is walked
    once, each index split into its row and column and ORed into the
    row's blank mask.  Going up in count, each step copies only the rows
    its cells touch, each once, from the row of ``dataset`` with all its
    cells so far made Unknown; the other rows are shared with the step
    below.  Fractions of equal count share one dataset, and a count of 0
    gets ``dataset`` itself.  Raises as ``make_mask`` does, checking every
    fraction before the reference formula.
    """
    budgets, columns, shuffled = _plan(dataset, mode, fractions, seed, truth, streams)
    counts = [count for _, _, count in budgets]
    original = list(dataset.instances())
    current = original[:]
    blank = [0] * len(original)  # row -> bits of its cells blanked so far
    width, p = len(columns), dataset.p
    masked = {0: dataset}  # cell count -> dataset
    done = 0
    for count in sorted(set(counts) - {0}):
        touched = set()
        for index in shuffled[done:count]:
            row, k = divmod(index, width)
            blank[row] |= 1 << columns[k]
            touched.add(row)
        for row in touched:
            current[row] = _blanked(original[row], blank[row])
        masked[count] = Dataset(dataset.n, tuple(current[:p]), tuple(current[p:]))
        done = count
    return [masked[count] for count in counts]
