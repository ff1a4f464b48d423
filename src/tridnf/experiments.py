"""End-to-end experiment runner: encode, mask, learn, evaluate, tabulate.

Each run is one (positive type, mode, fraction, seed) cell: the full data is
encoded one-vs-rest, masked, a formula is learned from the masked data, and
its errors are counted against the unmasked data.  The masked datasets of
one (type, mode, seed) come from one shuffle (``masking._ladder``),
every shuffle of one seed reduces the same SplitMix64 draws, made once
per call, and ladders with as many candidate cells share one shuffle.
With no cell blanked, U-BRAIN is BRAIN: the fraction-0 cells of a
type share one learn of its unmasked encoding, the one that gives the
trustworthy reference formula when that mode runs.  That learn may abort
like any other: then the type's fraction-0 and trustworthy cells are ABORT.
Aborted runs stay in the table marked ABORT and are excluded from the mean
error statistics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .datasets import DEFAULT_LEGS_ORDER, ZooRecord, encode_zoo
from .errors import ConsistencyAbort
from .formula import DnfFormula, _check_width
from .learner import learn
from .masking import TRUSTWORTHY, _ladder
# the bench's traced run wraps these two names here, so they stay importable
from .masking import apply_mask, make_mask  # noqa: F401
from .trits import Dataset


@dataclass(frozen=True)
class EvalReport:
    """Misclassification count of a formula on a complete dataset."""

    errors: int
    size: int

    @property
    def rate(self) -> Fraction:
        return Fraction(self.errors, self.size)


def evaluate(formula: DnfFormula, complete: Dataset) -> EvalReport:
    """Count instances whose label the formula gets wrong.

    ``complete`` must have no Unknown cells, so evaluation is plain
    two-valued.  The formula may name no variable the data lacks; one
    that names fewer reads only those.
    """
    _check_width(formula, complete.n)
    full = (1 << complete.n) - 1
    if any(inst.known_bits != full for inst in complete.instances()):
        raise ValueError("evaluation requires a complete dataset")
    wrong = sum(
        1 for inst in complete.positives if not formula.evaluate(inst.value_bits)
    )
    wrong += sum(1 for inst in complete.negatives if formula.evaluate(inst.value_bits))
    return EvalReport(errors=wrong, size=complete.p + complete.q)


@dataclass(frozen=True)
class RunResult:
    """One experiment cell.  ``errors`` and ``formula`` are None when the
    learner aborted; ``abort_reason`` says why."""

    positive_type: int
    mode: str
    fraction: Fraction
    seed: int
    formula: DnfFormula | None
    errors: int | None
    size: int
    abort_reason: str = ""
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.abort_reason == ""

    @property
    def rate(self) -> Fraction | None:
        if self.errors is None:
            return None
        return Fraction(self.errors, self.size)


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate over all types and seeds for one (mode, fraction)."""

    mode: str
    fraction: Fraction
    runs: int
    aborted: int
    aen: Fraction | None
    rate: Fraction | None


@dataclass(frozen=True)
class ExperimentReport:
    runs: tuple[RunResult, ...]
    references: tuple[tuple[int, DnfFormula], ...] = ()

    def reference_for(self, positive_type: int) -> DnfFormula | None:
        for kind, formula in self.references:
            if kind == positive_type:
                return formula
        return None

    def summary(self) -> list[SummaryRow]:
        groups: dict[tuple[str, Fraction], list[RunResult]] = {}
        for run in self.runs:
            groups.setdefault((run.mode, run.fraction), []).append(run)
        rows: list[SummaryRow] = []
        for mode, fraction in sorted(groups):
            members = groups[(mode, fraction)]
            done = [run for run in members if run.ok]
            aen = rate = None
            if done:
                aen = sum((Fraction(run.errors) for run in done), Fraction(0))
                aen /= len(done)
                rate = sum((run.rate for run in done), Fraction(0)) / len(done)
            rows.append(
                SummaryRow(
                    mode=mode,
                    fraction=fraction,
                    runs=len(members),
                    aborted=len(members) - len(done),
                    aen=aen,
                    rate=rate,
                )
            )
        return rows

    def render_summary(self) -> str:
        out = [
            "Summary per mode and fraction over all types and seeds",
            "(AEN = mean error count, R = mean error rate; aborted runs excluded):",
            f"  {'mode':<12} {'missing':>8} {'runs':>5} {'aborts':>7} {'AEN':>7} {'R':>7}",
        ]
        for row in self.summary():
            aen = f"{float(row.aen):.2f}" if row.aen is not None else "-"
            rate = f"{float(row.rate):.3f}" if row.rate is not None else "-"
            out.append(
                f"  {row.mode:<12} {_percent(row.fraction):>8} {row.runs:>5}"
                f" {row.aborted:>7} {aen:>7} {rate:>7}"
            )
        return "\n".join(out)

    def render_text(self) -> str:
        out: list[str] = []
        aborted = sum(1 for run in self.runs if not run.ok)
        out.append("Masked-data learning report")
        out.append(f"runs {len(self.runs)}, aborted {aborted}")
        out.append("")
        out.append(self.render_summary())
        for kind in sorted({run.positive_type for run in self.runs}):
            out.append("")
            reference = self.reference_for(kind)
            title = f"Type {kind}"
            if reference is not None:
                title += f" (reference formula: {reference.render()})"
            out.append(title)
            out.append(f"  {'mode':<12} {'missing':>8} {'seed':>6} {'E':>5}  formula")
            for run in self.runs:
                if run.positive_type != kind:
                    continue
                if run.ok:
                    errors = str(run.errors)
                    detail = run.formula.render()
                else:
                    errors = "ABORT"
                    detail = run.abort_reason
                out.append(
                    f"  {run.mode:<12} {_percent(run.fraction):>8} {run.seed:>6}"
                    f" {errors:>5}  {detail}"
                )
        out.append("")
        return "\n".join(out)

    def csv_rows(self) -> list[list[str]]:
        rows = [
            ["type", "mode", "fraction", "seed", "errors", "rate", "abort", "seconds", "formula"]
        ]
        for run in self.runs:
            rows.append(
                [
                    str(run.positive_type),
                    run.mode,
                    str(run.fraction),
                    str(run.seed),
                    "" if run.errors is None else str(run.errors),
                    "" if run.rate is None else str(run.rate),
                    run.abort_reason,
                    f"{run.seconds:.4f}",
                    run.formula.render() if run.formula is not None else "",
                ]
            )
        return rows


def _percent(fraction: Fraction) -> str:
    return f"{float(fraction) * 100:g}%"


def run_experiment(
    records: list[ZooRecord],
    types: Sequence[int],
    fractions: Sequence,
    modes: Sequence[str],
    seeds: Sequence[int],
    legs_order: tuple[int, ...] = DEFAULT_LEGS_ORDER,
) -> ExperimentReport:
    """Run the full (type, mode, fraction, seed) grid.

    Each distinct type, mode, fraction and seed is run once: types and
    fractions in ascending order, modes and seeds in order of first
    appearance.

    Trustworthy masking needs a reference formula per type: the formula
    learned from the unmasked encoding, reported alongside the table.
    The unmasked encoding is learned at most once per type, by
    ``_outcome`` as every cell is: untimed before the modes when
    trustworthy mode runs, or else by the first fraction-0 cell.  That
    outcome serves every fraction-0 cell, whose ``seconds`` is then the
    time of that lookup.  When that learn aborts, the type gets no
    reference and no trustworthy ladder: its trustworthy cells, and its
    fraction-0 cells in every mode, report the abort's reason, and the
    run goes on to the next type.  Each seed's SplitMix64 draws are made
    once per call and shared by all its ladders, and each shuffle once
    per (candidate count, cell count, seed).  A type's errors are
    counted once per distinct formula learned for it, so a cell's
    ``seconds`` includes evaluation only when its formula is new to its
    type.
    """
    kinds = sorted(set(types))
    fracs = sorted({Fraction(f) for f in fractions})
    mode_list = list(dict.fromkeys(modes))
    seed_list = list(dict.fromkeys(seeds))
    runs: list[RunResult] = []
    references: list[tuple[int, DnfFormula]] = []
    streams: dict = {}  # each seed's SplitMix64 draws and shuffles, shared by all ladders
    for kind in kinds:
        complete = encode_zoo(records, kind, legs_order)
        counted: dict[DnfFormula, int] = {}  # formula -> its errors on complete
        unmasked = None  # (formula, errors, abort reason) of learning complete
        if TRUSTWORTHY in mode_list:
            unmasked = _outcome(complete, complete, counted)
            if unmasked[0] is not None:
                references.append((kind, unmasked[0]))
        for mode in mode_list:
            given = unmasked[0] if mode == TRUSTWORTHY else None
            if mode == TRUSTWORTHY and given is None:
                # an aborted reference leaves nothing to mask against, so
                # every cell is the unmasked learn and reports its abort
                ladders = dict.fromkeys(seed_list, [complete] * len(fracs))
            else:
                ladders = {
                    seed: _ladder(complete, mode, fracs, seed, given, streams) for seed in seed_list
                }
            for index, fraction in enumerate(fracs):
                for seed in seed_list:
                    masked = ladders[seed][index]
                    start = time.perf_counter()
                    # a ladder hands back complete itself where it blanks
                    # no cell, and that data is learned once per class
                    if masked is complete:
                        if unmasked is None:
                            unmasked = _outcome(complete, complete, counted)
                        formula, errors, reason = unmasked
                    else:
                        formula, errors, reason = _outcome(masked, complete, counted)
                    runs.append(
                        RunResult(
                            positive_type=kind,
                            mode=mode,
                            fraction=fraction,
                            seed=seed,
                            formula=formula,
                            errors=errors,
                            size=complete.p + complete.q,
                            abort_reason=reason,
                            seconds=time.perf_counter() - start,
                        )
                    )
    return ExperimentReport(runs=tuple(runs), references=tuple(references))


def _outcome(
    masked: Dataset, complete: Dataset, counted: dict[DnfFormula, int]
) -> tuple[DnfFormula | None, int | None, str]:
    """Formula, error count on ``complete`` and abort reason of learning
    from ``masked``: the one learn of a cell, or of a class's unmasked
    data, where a ConsistencyAbort is an outcome like any other.  A
    formula's errors are counted once per class, the first time it is
    learned, and kept in ``counted``."""
    try:
        formula = learn(masked).formula
    except ConsistencyAbort as abort:
        return None, None, abort.reason
    if formula not in counted:
        counted[formula] = evaluate(formula, complete).errors
    return formula, counted[formula], ""
