"""Command-line interface.

Subcommands: learn, mask, eval, experiment, verify.  Reports go to stdout,
diagnostics to stderr.  Exit codes: 0 success, 1 usage error, 2 data error,
3 consistency failure.  Every command takes --json for machine-readable
output, and every run is fully determined by its arguments and input files,
except for timings: the ``seconds`` column of the experiment CSV is the only
timing written to a file.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .datasets import (
    DEFAULT_LEGS_ORDER,
    bundled_zoo_path,
    encode_zoo,
    load_ternary_csv,
    load_zoo,
    read_text,
    save_ternary_csv,
)
from .errors import (
    BudgetExceededError,
    ConsistencyAbort,
    ParseError,
    TridnfError,
)
from .experiments import evaluate, run_experiment
from .formula import DnfFormula, parse_formula
from .learner import LearnerConfig, learn
from .masking import MASK64, RANDOM, TRUSTWORTHY, apply_mask, make_mask
from .oracle import Verdict, minimal_dnf_exhaustive, verify_consistency
from .trits import Dataset, Label

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INCONSISTENT = 3


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; the contract says 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(token: str) -> Fraction:
    """An argparse type: a masking fraction in [0, 1/2], written 0.1,
    1/10, 10% or a bare percentage like 10 (values above 1 are read as
    percentages).  Exponent notation is refused: Fraction would build
    10^|exponent|, which for 1e-99999999 does not finish."""
    text = token.strip()
    percent = text.endswith("%")
    if percent:
        text = text[:-1].strip()
    if "e" in text or "E" in text:
        raise argparse.ArgumentTypeError(f"cannot parse fraction {token!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse fraction {token!r}") from None
    if percent or value > 1:
        value /= 100
    if not 0 <= value <= Fraction(1, 2):
        raise argparse.ArgumentTypeError(f"must be in [0, 1/2], got {token!r}")
    return value


def _int_in(low: int, high: int | None = None, span: str = ""):
    """An argparse type: a decimal integer in [low, high), described by
    span, or at least low when high is None.  argparse names the flag in
    the error (exit 1)."""
    span = span or f"at least {low}"

    def parse(token: str) -> int:
        try:
            value = int(token)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {token!r}") from None
        if value < low or high is not None and value >= high:
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return parse


def _list_of(parse_entry):
    """An argparse type: comma-separated entries, each read by parse_entry."""

    def parse(text: str) -> list:
        entries = []
        for k, token in enumerate(text.split(","), 1):
            try:
                entries.append(parse_entry(token))
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise argparse.ArgumentTypeError(f"entry {k} of {text!r}: {exc}") from None
        return entries

    return parse


_seed = _int_in(0, MASK64 + 1, "in [0, 2^64)")  # make_mask's range
_type = _int_in(1, 8, "1..7")
_type_list = _list_of(_type)


def _types(text: str) -> list[int]:
    return list(range(1, 8)) if text == "all" else _type_list(text)


def _mode(token: str) -> str:
    mode = token.strip()
    if mode not in (RANDOM, TRUSTWORTHY):
        raise ValueError(f"unknown mode {token!r}")
    return mode


def _encoding(text: str) -> tuple[int, ...]:
    """An argparse type: a permutation of the leg counts 2, 4, 5, 6 and 8."""
    try:
        order = tuple(int(token) for token in text.split(","))
    except ValueError:
        order = ()
    if sorted(order) != sorted(DEFAULT_LEGS_ORDER):
        raise argparse.ArgumentTypeError(f"must be a permutation of 2,4,5,6,8, got {text!r}")
    return order


def _load_dataset(args) -> Dataset:
    if args.format == "zoo":
        if args.positive_type is None:
            raise ValueError("--positive-type is required with --format zoo")
        if args.positive_label is not None:
            raise ValueError("--positive-label applies only to --format csv")
        path = args.input or bundled_zoo_path()
        records = load_zoo(path)
        return encode_zoo(records, args.positive_type, args.encoding or DEFAULT_LEGS_ORDER)
    if args.input is None:
        raise ValueError("--input is required with --format csv")
    if args.positive_type is not None:
        raise ValueError("--positive-type applies only to --format zoo")
    if args.encoding is not None:
        raise ValueError("--encoding applies only to --format zoo")
    dataset = load_ternary_csv(args.input)
    if args.positive_label == "-":
        dataset = Dataset(
            n=dataset.n,
            positives=tuple(replace(i, label=Label.POSITIVE) for i in dataset.negatives),
            negatives=tuple(replace(i, label=Label.NEGATIVE) for i in dataset.positives),
        )
    return dataset


def _read_formula_file(path: str) -> DnfFormula:
    text = read_text(path).strip()
    if text.startswith("{"):
        return DnfFormula.from_json(text)
    return parse_formula(text)


def _parse_truth(token: str) -> DnfFormula:
    """--truth accepts inline formula text or a path to a formula file."""
    try:
        return parse_formula(token)
    except ParseError:
        if Path(token).exists():
            return _read_formula_file(token)
        raise


def _fit_width(formula: DnfFormula, n: int) -> DnfFormula:
    if formula.n == n:
        return formula
    if formula.n < n:
        return DnfFormula(n=n, terms=formula.terms)
    raise ValueError(
        f"formula names x{formula.n} but the data has only {n} variables"
    )


def _formula_paths(out: Path) -> tuple[Path, Path]:
    if out.suffix == ".json":
        return out.with_suffix(".txt"), out
    return out, out.with_suffix(out.suffix + ".json" if out.suffix == "" else ".json")


def cmd_learn(args) -> int:
    dataset = _load_dataset(args)
    config = LearnerConfig(trace=args.trace is not None)
    try:
        result = learn(dataset, config)
    except ConsistencyAbort as abort:
        if args.trace is not None and abort.trace:
            Path(args.trace).write_text("\n".join(abort.trace) + "\n", encoding="utf-8")
        raise
    if args.trace is not None:
        body = "\n".join(result.trace)
        Path(args.trace).write_text(body + "\n" if body else "", encoding="utf-8")
    text_path, json_path = _formula_paths(Path(args.output))
    text_path.write_text(result.formula.render() + "\n", encoding="utf-8")
    json_path.write_text(result.formula.to_json() + "\n", encoding="utf-8")
    if args.json:
        print(
            json.dumps(
                {
                    "formula": result.formula.render(),
                    "terms": len(result.formula.terms),
                    "literals": result.formula.literal_count,
                    "iterations": result.iterations,
                    "text_path": str(text_path),
                    "json_path": str(json_path),
                }
            )
        )
    else:
        print(f"f* = {result.formula.render()}")
        print(f"terms={len(result.formula.terms)} literals={result.formula.literal_count}")
    return EXIT_OK


def cmd_mask(args) -> int:
    dataset = _load_dataset(args)
    truth = _parse_truth(args.truth) if args.truth else None
    if args.mode == TRUSTWORTHY and truth is None:
        raise ValueError("--truth is required for trustworthy masking")
    if truth is not None:
        truth = _fit_width(truth, dataset.n)
    plan = make_mask(dataset, args.mode, args.fraction, args.seed, truth)
    masked = apply_mask(dataset, plan)
    save_ternary_csv(masked, args.output)
    if args.json:
        print(
            json.dumps(
                {
                    "cells": len(plan.cells),
                    "requested": plan.requested,
                    "shortfall": plan.shortfall,
                    "output": str(args.output),
                }
            )
        )
    else:
        note = f" (shortfall {plan.shortfall})" if plan.shortfall else ""
        print(f"masked {len(plan.cells)} cells -> {args.output}{note}")
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = _load_dataset(args)
    formula = _fit_width(_read_formula_file(args.formula), dataset.n)
    report = evaluate(formula, dataset)
    if args.json:
        print(
            json.dumps(
                {
                    "errors": report.errors,
                    "size": report.size,
                    "rate": float(report.rate),
                }
            )
        )
    else:
        print(f"E={report.errors} R={float(report.rate):.3f}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    records = load_zoo(args.dataset or bundled_zoo_path())
    report = run_experiment(
        records,
        args.types,
        args.fractions,
        args.modes,
        args.seeds,
        legs_order=args.encoding,
    )
    report_path = Path(args.report)
    report_path.write_text(report.render_text(), encoding="utf-8")
    csv_path = report_path.with_suffix(".csv")
    if csv_path == report_path:
        csv_path = report_path.with_suffix(".runs.csv")
    import csv as _csv

    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        _csv.writer(handle).writerows(report.csv_rows())
    if args.json:
        print(
            json.dumps(
                {
                    "report": str(report_path),
                    "csv": str(csv_path),
                    "summary": [
                        {
                            "mode": row.mode,
                            "fraction": str(row.fraction),
                            "runs": row.runs,
                            "aborted": row.aborted,
                            "aen": None if row.aen is None else float(row.aen),
                            "rate": None if row.rate is None else float(row.rate),
                        }
                        for row in report.summary()
                    ],
                }
            )
        )
    else:
        print(report.render_summary())
        print(f"learning time {sum(run.seconds for run in report.runs):.2f}s")
        print(f"report: {report_path}")
        print(f"runs csv: {csv_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    dataset = _load_dataset(args)
    formula = _fit_width(_read_formula_file(args.formula), dataset.n)
    certificates = verify_consistency(formula, dataset, budget=args.budget)
    violations = sum(1 for c in certificates if c.verdict is Verdict.VIOLATED)
    minimal = None
    if args.exhaustive_min:
        minimal = minimal_dnf_exhaustive(dataset, max_literals=args.max_literals)
    if args.json:
        payload = {
            "certificates": [
                {
                    "id": c.instance_id,
                    "verdict": c.verdict.value,
                    "witness": None if c.witness is None else "".join(map(str, c.witness)),
                }
                for c in certificates
            ],
            "violations": violations,
        }
        if minimal is not None:
            payload["minimal"] = {
                "formula": minimal.render(),
                "literals": minimal.literal_count,
            }
        print(json.dumps(payload))
    else:
        for c in certificates:
            line = f"{c.instance_id} {c.verdict.value}"
            if c.witness is not None:
                line += f" witness={''.join(map(str, c.witness))}"
            print(line)
        print(f"violations={violations} of {len(certificates)}")
        if minimal is not None:
            print(f"minimal: {minimal.render()} ({minimal.literal_count} literals)")
    return EXIT_INCONSISTENT if violations else EXIT_OK


def _add_dataset_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="data file (defaults to the bundled animal data for --format zoo)")
    sub.add_argument("--format", choices=["zoo", "csv"], required=True)
    sub.add_argument("--positive-type", type=_type, help="class code 1..7 (zoo format)")
    sub.add_argument(
        "--positive-label",
        choices=["+", "-"],
        help="which CSV label counts as positive, + by default (csv format)",
    )
    sub.add_argument(
        "--encoding",
        type=_encoding,
        help="leg-count order for x13..x17, e.g. 8,6,5,4,2 (zoo format)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tridnf", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    learn_p = subparsers.add_parser("learn", help="learn a DNF formula from data")
    _add_dataset_arguments(learn_p)
    learn_p.add_argument("--trace", help="write the per-step trace to this file")
    learn_p.add_argument("--output", required=True, help="formula file (text; a .json sibling is written too)")
    learn_p.add_argument("--json", action="store_true")
    learn_p.set_defaults(func=cmd_learn)

    mask_p = subparsers.add_parser("mask", help="blank cells of a dataset")
    _add_dataset_arguments(mask_p)
    mask_p.add_argument("--mode", choices=[RANDOM, TRUSTWORTHY], required=True)
    mask_p.add_argument("--fraction", type=_fraction, required=True, help="share of cells to blank, at most 1/2")
    mask_p.add_argument("--seed", type=_seed, required=True, help="integer in [0, 2^64)")
    mask_p.add_argument("--truth", help="reference formula (text or file); required for trustworthy mode")
    mask_p.add_argument("--output", required=True, help="masked dataset (ternary CSV)")
    mask_p.add_argument("--json", action="store_true")
    mask_p.set_defaults(func=cmd_mask)

    eval_p = subparsers.add_parser("eval", help="count a formula's errors on complete data")
    eval_p.add_argument("--formula", required=True, help="formula file (text or JSON)")
    _add_dataset_arguments(eval_p)
    eval_p.add_argument("--json", action="store_true")
    eval_p.set_defaults(func=cmd_eval)

    exp_p = subparsers.add_parser("experiment", help="run the masking sweep and write report tables")
    exp_p.add_argument("--dataset", help="animal data file (defaults to the bundled copy)")
    exp_p.add_argument("--types", type=_types, default="all", help="'all' or comma-separated class codes 1..7")
    exp_p.add_argument("--fractions", type=_list_of(_fraction), default="0,10,20,30,40,50")
    exp_p.add_argument("--modes", type=_list_of(_mode), default="random,trustworthy")
    exp_p.add_argument("--seeds", type=_list_of(_seed), default="1,2", help="integers in [0, 2^64)")
    exp_p.add_argument("--report", required=True, help="report text file (a CSV sibling is written too)")
    exp_p.add_argument("--encoding", type=_encoding, default=DEFAULT_LEGS_ORDER, help="leg-count order for x13..x17")
    exp_p.add_argument("--json", action="store_true")
    exp_p.set_defaults(func=cmd_experiment)

    verify_p = subparsers.add_parser("verify", help="check a formula against data, instance by instance")
    verify_p.add_argument("--formula", required=True)
    _add_dataset_arguments(verify_p)
    verify_p.add_argument("--exhaustive-min", action="store_true", help="also search for a smallest consistent formula")
    verify_p.add_argument("--max-literals", type=_int_in(0), default=12)
    verify_p.add_argument(
        "--budget", type=_int_in(1), default=1 << 24, help="completion-enumeration cap per instance, at least 1"
    )
    verify_p.add_argument("--json", action="store_true")
    verify_p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConsistencyAbort as exc:
        print(f"inconsistent: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ValueError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TridnfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
