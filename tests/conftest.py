"""Shared fixtures, the acceptance-summary reporter, and the learner's
term loop without its safeguards.

The ``sweep`` fixture materializes the full masked-run grid once per
session; the acceptance tests slice it for statistics, certificates,
and the iteration bound so the expensive part runs exactly once.
"""

import re
import time
import warnings
from dataclasses import dataclass
from fractions import Fraction

import pytest

from tridnf import (
    ConsistencyAbort,
    Dataset,
    DnfFormula,
    Instance,
    Label,
    Verdict,
    apply_mask,
    bundled_zoo_path,
    encode_zoo,
    evaluate,
    learn,
    load_zoo,
    make_mask,
    verify_consistency,
)
from tridnf.formula import term_from_codes
from tridnf.learner import _masks, _TermEngine
from tridnf.masking import RANDOM, TRUSTWORTHY

# Hypothesis imports this module to report a failing example.  Where libcst
# is installed the import raises a DeprecationWarning (from mypy_extensions),
# which under ``-W error`` ends the session in INTERNALERROR before the
# example is printed, so it is imported here with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

ZOO_TYPES = (1, 2, 3, 4, 5, 6, 7)
SWEEP_FRACTIONS = tuple(Fraction(k, 10) for k in range(1, 6))
SWEEP_SEEDS = tuple(range(10))


def row_masks(d: Dataset) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The positives' and the negatives' masks, as ``learn`` hands them to
    its term engine."""
    return _masks(d.positives, d.n, False), _masks(d.negatives, d.n, True)


def certain_rows(n: int, values: list[int], p: int) -> Dataset:
    """Certain rows of width n with the given values, the first p positive,
    built as ``Instance``s directly, which is fast for many rows."""
    full = (1 << n) - 1
    return Dataset(
        n,
        tuple(Instance(n, x, full, Label.POSITIVE) for x in values[:p]),
        tuple(Instance(n, x, full, Label.NEGATIVE) for x in values[p:]),
    )


def summed(engine: _TermEngine, d: Dataset | None = None) -> _TermEngine:
    """``engine`` with the tiers of its live rectangle summed from fresh
    slot lists, as ``term`` sums them before a select; opened first on
    ``d``'s rows when ``d`` is given."""
    if d is not None:
        engine.open(*row_masks(d))
    engine.tiers = engine._sum({})
    return engine


def without_safeguards(d: Dataset) -> DnfFormula:
    """The term loop of ``learn`` with no uncertainty reduction, no dedupe,
    no consistency check and no negative updates."""
    (us, vs), terms = row_masks(d), []
    engine = _TermEngine(d.n, d.p, d.q, None)
    while us:
        codes, cover = engine.term(us, vs)
        terms.append(term_from_codes(d.n, codes))
        assert cover, terms[-1].render()
        us = [u for i, u in enumerate(us) if i not in cover]
    return DnfFormula(d.n, tuple(terms))


@pytest.fixture(scope="session")
def zoo_records():
    return load_zoo(bundled_zoo_path())


@pytest.fixture(scope="session")
def zoo_datasets(zoo_records) -> dict[int, Dataset]:
    return {kind: encode_zoo(zoo_records, kind) for kind in ZOO_TYPES}


@pytest.fixture(scope="session")
def zoo_truths(zoo_datasets) -> dict[int, DnfFormula]:
    """Formula learned per type on unmasked data; the trustworthy anchor."""
    return {kind: learn(d).formula for kind, d in zoo_datasets.items()}


@dataclass(frozen=True)
class SweepRun:
    kind: int
    mode: str
    fraction: Fraction
    seed: int
    ok: bool
    errors: int | None
    size: int
    violated: int
    iterations: int
    masked_p: int
    abort_reason: str


@dataclass(frozen=True)
class Sweep:
    runs: tuple[SweepRun, ...]
    elapsed: float

    def mean_rate(self, mode: str, fraction: Fraction) -> Fraction:
        rates = [
            Fraction(r.errors, r.size)
            for r in self.runs
            if r.ok and r.mode == mode and r.fraction == fraction
        ]
        assert rates, f"no completed runs for {mode} at {fraction}"
        return sum(rates, Fraction(0)) / len(rates)


@pytest.fixture(scope="session")
def sweep(zoo_datasets, zoo_truths) -> Sweep:
    """7 types x 2 modes x 5 fractions x 10 seeds, with consistency audit."""
    runs = []
    started = time.perf_counter()
    for kind in ZOO_TYPES:
        complete = zoo_datasets[kind]
        for mode in (RANDOM, TRUSTWORTHY):
            truth = zoo_truths[kind] if mode == TRUSTWORTHY else None
            for fraction in SWEEP_FRACTIONS:
                for seed in SWEEP_SEEDS:
                    plan = make_mask(complete, mode, fraction, seed, truth=truth)
                    masked = apply_mask(complete, plan)
                    try:
                        result = learn(masked)
                    except ConsistencyAbort as abort:
                        runs.append(
                            SweepRun(
                                kind, mode, fraction, seed,
                                ok=False, errors=None, size=complete.p + complete.q,
                                violated=0, iterations=0, masked_p=masked.p,
                                abort_reason=abort.reason,
                            )
                        )
                        continue
                    report = evaluate(result.formula, complete)
                    certs = verify_consistency(result.formula, result.dataset)
                    violated = sum(c.verdict is Verdict.VIOLATED for c in certs)
                    runs.append(
                        SweepRun(
                            kind, mode, fraction, seed,
                            ok=True, errors=report.errors, size=report.size,
                            violated=violated, iterations=result.iterations,
                            masked_p=masked.p, abort_reason="",
                        )
                    )
    return Sweep(tuple(runs), time.perf_counter() - started)


# --- acceptance summary lines ------------------------------------------

_ACCEPTANCE: dict[str, str] = {}
_CRITERION = re.compile(r"test_criterion_(\d+)(_noted\w*)?")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    m = _CRITERION.match(item.name)
    if not m:
        return
    key = m.group(1) + (" (noted discrepancy)" if m.group(2) else "")
    if hasattr(report, "wasxfail"):
        word = "XFAIL" if report.skipped else "XPASS"
    else:
        word = "PASS" if report.passed else "FAIL"
    _ACCEPTANCE[key] = word


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for key in sorted(_ACCEPTANCE, key=lambda k: (int(k.split()[0]), k)):
        terminalreporter.write_line(f"  ACCEPTANCE {key}: {_ACCEPTANCE[key]}")
