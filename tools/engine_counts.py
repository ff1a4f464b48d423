"""Count the term engine's work on the default Zoo sweep (stdlib only).

    PYTHONPATH=src python tools/engine_counts.py

Runs ``run_experiment`` once over the grid ``tridnf experiment`` runs by
default (classes 1-7, random and trustworthy masking, 0-50% in steps of
10%, seeds 1 and 2), with ``learner._TermEngine``'s constructor, ``term``,
``select`` and ``_sum`` wrapped, and prints one line per count:

- learns: term engines made, one per ``learn``;
- terms: ``term`` calls;
- picks: the literal codes those calls return;
- forced picks: picks made without a select, at a term's opening or after
  its picks;
- selects, sums, sums over an empty rectangle, and the pairs summed (the
  live positives times the live negatives of each sum);
- dilations: calls of the function that each engine's ``dilated`` memo
  wraps, one per distinct 2n-bit mask of a learn.

Counts do not drift with the machine, so they pin the engine's work where
a timing cannot.  The wrappers are removed when the run ends.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from tridnf import bundled_zoo_path, load_zoo, run_experiment
from tridnf.learner import _TermEngine

GRID = dict(
    types=tuple(range(1, 8)),
    fractions=tuple(Fraction(k, 10) for k in range(6)),
    modes=("random", "trustworthy"),
    seeds=(1, 2),
)
NAMES = (
    "learns", "terms", "picks", "forced picks at openings", "forced picks after picks",
    "selects", "sums", "sums on an empty rectangle", "pairs summed", "dilations",
)


def engine_counts() -> dict[str, int]:
    """The counts of one default sweep, in the order they are printed."""
    counts = dict.fromkeys(NAMES, 0)
    real = {name: getattr(_TermEngine, name) for name in ("__init__", "term", "select", "_sum")}

    def init(self, *args):
        counts["learns"] += 1
        real["__init__"](self, *args)
        dilate = self.dilated.__wrapped__

        def counted(bits):
            counts["dilations"] += 1
            return dilate(bits)

        self.dilated = cache(counted)

    def term(self, us, vs):
        before = counts["selects"]
        codes, cover = real["term"](self, us, vs)
        selects = counts["selects"] - before
        counts["terms"] += 1
        counts["picks"] += len(codes)
        counts["forced picks after picks" if selects else "forced picks at openings"] += len(codes) - selects
        return codes, cover

    def select(self):
        counts["selects"] += 1
        return real["select"](self)

    def sum_(self, slots):
        counts["sums"] += 1
        counts["sums on an empty rectangle"] += not (self.live_u and self.live_v)
        counts["pairs summed"] += len(self.live_u) * len(self.live_v)
        return real["_sum"](self, slots)

    wrappers = {"__init__": init, "term": term, "select": select, "_sum": sum_}
    try:
        for name, wrapper in wrappers.items():
            setattr(_TermEngine, name, wrapper)
        run_experiment(load_zoo(bundled_zoo_path()), **GRID)
    finally:
        for name, method in real.items():
            setattr(_TermEngine, name, method)
    return counts


def main() -> int:
    for name, value in engine_counts().items():
        print(f"{value:9,d}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
