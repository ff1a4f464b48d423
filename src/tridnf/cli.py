"""Command-line interface.

Subcommands: learn, mask, eval, experiment, verify.  Reports go to stdout,
diagnostics (warnings included) to stderr.  Exit codes: 0 success, 1 usage
error, 2 data error, 3 consistency failure.  Every command takes --json for
machine-readable output, and every run is fully determined by its arguments
and input files, except for timings: the ``seconds`` column of the
experiment CSV is the only timing written to a file.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import os
import re
import sys
import warnings
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
    CountWarning,
    ParseError,
    TridnfError,
)
from .experiments import evaluate, run_experiment
from .formula import DnfFormula, _clip, _integer, parse_formula
from .learner import LearnerConfig, learn
from .masking import MASK64, RANDOM, TRUSTWORTHY, apply_mask, make_mask
from .oracle import Verdict, minimal_dnf_exhaustive, verify_consistency
from .trits import Dataset, Label

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INCONSISTENT = 3

# the exit code of an error is that of the first class it belongs to
_EXIT_CODES = {
    ParseError: EXIT_DATA,
    ConsistencyAbort: EXIT_INCONSISTENT,
    ValueError: EXIT_USAGE,
    BudgetExceededError: EXIT_USAGE,
    TridnfError: EXIT_DATA,
    OSError: EXIT_DATA,
}

# the longest file name an OS error shows whole, the usual limit on one
# path component; a longer one is shown through _clip
_NAME_MAX = 255

# the flag each --format requires, then the dataset flags only one format
# takes, in the order they are checked
_REQUIRED = {"zoo": "--positive-type", "csv": "--input"}
_FORMAT_ONLY = {"--positive-type": "zoo", "--encoding": "zoo", "--positive-label": "csv"}

# numbers on the command line are written in the ASCII digits 0-9, as in
# data files: int and Fraction alone would also take other scripts'
# digits and "_", and Fraction exponents
_INTEGER = re.compile(r"\s*[+-]?[0-9]+\s*")
_FRACTION = re.compile(r"[+-]?[0-9./]+")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; the contract says 1.
    argparse echoes a token itself (an unknown command, an argument left
    over, an ambiguous ``--flag=value``) or a tail of one (the explicit
    argument a flag ignores, from its short flag or its first ``=`` on,
    past any short flags that follow), so one rule covers them all:
    ``parse_known_args`` records its tokens, and ``error`` shows the
    longest of those echoes, over 20 characters, that the message holds,
    through ``_clip``, in its ``repr`` form and raw."""

    tokens: tuple[str, ...] = ()  # the last parse's, or none before one

    def parse_known_args(self, args=None, namespace=None):
        self.tokens = args = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        options = self._option_string_actions
        # longest first, so no token is clipped inside a longer one
        for token in sorted(dict.fromkeys(self.tokens), key=len, reverse=True):
            # argparse reads what follows a short flag or the first "=" as
            # more short flags up to the first that is not one, and echoes
            # it from either end of that run ("-h-xxx" echoes "-xxx")
            tails = {token}
            for k in (2 if token[:2] in options else len(token), token.find("=") + 1 or len(token)):
                tails.add(token[k:])
                while "-" + token[k : k + 1] in options:
                    k += 1
                tails.add(token[k:])
            for text in sorted(tails, key=len, reverse=True):
                if len(text) > 20 and (repr(text) in message or text in message):
                    message = message.replace(repr(text), repr(_clip(text))).replace(text, _clip(text))
                    break
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fraction(token: str) -> Fraction:
    """An argparse type: a masking fraction in [0, 1/2], written 0.1,
    1/10, 10% or a bare percentage like 10 (values above 1 are read as
    percentages), in the digits 0-9.  Exponent notation is refused:
    Fraction would build 10^|exponent|, which for 1e-99999999 does not
    finish."""
    text = token.strip()
    percent = text.endswith("%")
    if percent:
        text = text[:-1].strip()
    if not _FRACTION.fullmatch(text):
        raise argparse.ArgumentTypeError(f"cannot parse fraction {_clip(token)!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse fraction {_clip(token)!r}") from None
    if percent or value > 1:
        value /= 100
    if not 0 <= value <= Fraction(1, 2):
        raise argparse.ArgumentTypeError(f"must be in [0, 1/2], got {_clip(token)!r}")
    return value


def _int_in(low: int, high: int | None = None, span: str = ""):
    """An argparse type: an integer in [low, high), written in the
    digits 0-9 with an optional sign, described by span, or at least low
    when high is None.  argparse names the flag in the error (exit 1).
    Such a token that int refuses is past its digit limit."""
    span = span or f"at least {low}"

    def parse(token: str) -> int:
        if not _INTEGER.fullmatch(token):
            raise argparse.ArgumentTypeError(f"expected an integer in the digits 0-9, got {_clip(token)!r}")
        try:
            value = _integer(token, token)
        except ParseError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if value < low or high is not None and value >= high:
            raise argparse.ArgumentTypeError(f"must be {span}, got {_clip(str(value))}")
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
                raise argparse.ArgumentTypeError(f"entry {k} of {_clip(text)!r}: {exc}") from None
        return entries

    return parse


_seed = _int_in(0, MASK64 + 1, "in [0, 2^64)")  # make_mask's range
_type = _int_in(1, 8, "1..7")
_type_list = _list_of(_type)


def _types(text: str) -> list[int]:
    return list(range(1, 8)) if text == "all" else _type_list(text)


def _choice(*values: str):
    """An argparse type: one of ``values``, surrounding spaces aside, as
    ``int`` reads a number; refused in argparse's words for ``choices``,
    with the token shown clipped."""

    def parse(token: str) -> str:
        choice = token.strip()
        if choice not in values:
            listed = ", ".join(map(repr, values))
            raise argparse.ArgumentTypeError(f"invalid choice: {_clip(token)!r} (choose from {listed})")
        return choice

    return parse


_mode = _choice(RANDOM, TRUSTWORTHY)


def _encoding(text: str) -> tuple[int, ...]:
    """An argparse type: a permutation of the leg counts 2, 4, 5, 6 and 8,
    written in the digits 0-9."""
    tokens = text.split(",")
    try:
        order = tuple(map(int, tokens)) if all(map(_INTEGER.fullmatch, tokens)) else ()
    except ValueError:  # past the int-to-str digit limit
        order = ()
    if sorted(order) != sorted(DEFAULT_LEGS_ORDER):
        raise argparse.ArgumentTypeError(f"must be a permutation of 2,4,5,6,8, got {_clip(text)!r}")
    return order


def _flag(args, flag: str):
    return getattr(args, flag[2:].replace("-", "_"))


def _load_dataset(args) -> Dataset:
    required = _REQUIRED[args.format]
    if _flag(args, required) is None:
        raise ValueError(f"{required} is required with --format {args.format}")
    for flag, owner in _FORMAT_ONLY.items():
        if owner != args.format and _flag(args, flag) is not None:
            raise ValueError(f"{flag} applies only to --format {owner}")
    if args.format == "zoo":
        records = load_zoo(args.input or bundled_zoo_path())
        return encode_zoo(records, args.positive_type, args.encoding or DEFAULT_LEGS_ORDER)
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
    """--truth accepts inline formula text or a path to a formula file.
    ``os.path.exists`` is False for a token no file can be named by (too
    long, say), so such a token reports its parse error."""
    try:
        return parse_formula(token)
    except ParseError:
        if os.path.exists(token):
            return _read_formula_file(token)
        raise


def _writable(*paths) -> None:
    """Refuse, before any work, each output path that ``open(path, "w")``
    would refuse for what it names, raising the ``OSError`` open would
    raise, so the message is the OS's: an empty path (ENOENT), a
    directory or a path that ends in a separator (EISDIR), or a parent
    directory that is missing or is not one, refused as the lookup of
    the parent itself is (ENOENT, ENOTDIR).  Other refusals, such as a
    file name too long, still come when the file is written."""
    for path in map(os.fspath, paths):
        if path.endswith(os.sep) or os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        try:  # the parent's lookup; for '' the lookup of '', which fails as open('') does
            os.stat(os.path.join(os.path.dirname(path), ".") if path else path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


def _output_paths(out: str, sibling: str, clash: str) -> tuple[Path, Path]:
    """The two files of ``learn --output`` and ``experiment --report``:
    ``out``, and ``out`` with the suffix ``sibling``, or with ``clash``
    when ``out`` already has that suffix; each is checked by
    ``_writable``.  ``out`` is checked first and as typed, before ``Path``
    drops a trailing separator or reads '' as '.': 'new/' is refused as
    a directory and '' as missing, and a path with no file name, which
    has no suffix to change, in the OS's words, as for --trace."""
    _writable(out)
    path = Path(out)
    paths = path, path.with_suffix(clash if path.suffix == sibling else sibling)
    _writable(*paths)
    return paths


def _report(args, payload: dict, lines: list[str]) -> None:
    """Print a command's report: ``payload`` as one JSON object under
    --json, otherwise ``lines``."""
    print(json.dumps(payload) if args.json else "\n".join(lines))


def cmd_learn(args) -> int:
    dataset = _load_dataset(args)
    if args.trace is not None:
        _writable(args.trace)
    out, sibling = _output_paths(args.output, ".json", ".txt")
    text_path, json_path = (sibling, out) if out.suffix == ".json" else (out, sibling)
    try:
        result = learn(dataset, LearnerConfig(trace=args.trace is not None))
    except ConsistencyAbort as abort:
        result = abort  # the trace is written as for a result, then the abort raised
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.writelines(f"{line}\n" for line in result.trace)
    if isinstance(result, ConsistencyAbort):
        raise result
    formula = result.formula.render()
    text_path.write_text(formula + "\n", encoding="utf-8")
    json_path.write_text(result.formula.to_json() + "\n", encoding="utf-8")
    terms, literals = len(result.formula.terms), result.formula.literal_count
    payload = {
        "formula": formula,
        "terms": terms,
        "literals": literals,
        "iterations": result.iterations,
        "text_path": str(text_path),
        "json_path": str(json_path),
    }
    _report(args, payload, [f"f* = {formula}", f"terms={terms} literals={literals}"])
    return EXIT_OK


def cmd_mask(args) -> int:
    if args.truth and args.mode != TRUSTWORTHY:
        raise ValueError("--truth applies only to --mode trustworthy")
    dataset = _load_dataset(args)
    truth = _parse_truth(args.truth) if args.truth else None
    if args.mode == TRUSTWORTHY and truth is None:
        raise ValueError("--truth is required for trustworthy masking")
    _writable(args.output)
    plan = make_mask(dataset, args.mode, args.fraction, args.seed, truth)
    masked = apply_mask(dataset, plan)
    save_ternary_csv(masked, args.output)
    payload = {
        "cells": len(plan.cells),
        "requested": plan.requested,
        "shortfall": plan.shortfall,
        "output": str(args.output),
    }
    note = f" (shortfall {plan.shortfall})" if plan.shortfall else ""
    _report(args, payload, [f"masked {len(plan.cells)} cells -> {args.output}{note}"])
    return EXIT_OK


def cmd_eval(args) -> int:
    dataset = _load_dataset(args)
    report = evaluate(_read_formula_file(args.formula), dataset)
    payload = {"errors": report.errors, "size": report.size, "rate": float(report.rate)}
    _report(args, payload, [f"E={report.errors} R={float(report.rate):.3f}"])
    return EXIT_OK


def cmd_experiment(args) -> int:
    records = load_zoo(args.dataset or bundled_zoo_path())
    report_path, csv_path = _output_paths(args.report, ".csv", ".runs.csv")
    report = run_experiment(
        records,
        args.types,
        args.fractions,
        args.modes,
        args.seeds,
        legs_order=args.encoding,
    )
    report_path.write_text(report.render_text(), encoding="utf-8")
    with open(csv_path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(report.csv_rows())
    summary = [
        {
            "mode": row.mode,
            "fraction": str(row.fraction),
            "runs": row.runs,
            "aborted": row.aborted,
            "aen": None if row.aen is None else float(row.aen),
            "rate": None if row.rate is None else float(row.rate),
        }
        for row in report.summary()
    ]
    lines = [
        report.render_summary(),
        f"learning time {sum(run.seconds for run in report.runs):.2f}s",
        f"report: {report_path}",
        f"runs csv: {csv_path}",
    ]
    _report(args, {"report": str(report_path), "csv": str(csv_path), "summary": summary}, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    dataset = _load_dataset(args)
    formula = _read_formula_file(args.formula)
    certificates = verify_consistency(formula, dataset, budget=args.budget)
    violations = sum(1 for c in certificates if c.verdict is Verdict.VIOLATED)
    minimal = None
    if args.exhaustive_min:
        minimal = minimal_dnf_exhaustive(dataset, max_literals=args.max_literals)
    rows = [
        {
            "id": c.instance_id,
            "verdict": c.verdict.value,
            "witness": None if c.witness is None else "".join(map(str, c.witness)),
        }
        for c in certificates
    ]
    payload = {"certificates": rows, "violations": violations}
    lines = [
        f"{row['id']} {row['verdict']}"
        + ("" if row["witness"] is None else f" witness={row['witness']}")
        for row in rows
    ]
    lines.append(f"violations={violations} of {len(certificates)}")
    if minimal is not None:
        payload["minimal"] = {"formula": minimal.render(), "literals": minimal.literal_count}
        lines.append(f"minimal: {minimal.render()} ({minimal.literal_count} literals)")
    _report(args, payload, lines)
    return EXIT_INCONSISTENT if violations else EXIT_OK


def _add_dataset_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", help="data file (defaults to the bundled animal data for --format zoo)")
    sub.add_argument("--format", type=_choice("zoo", "csv"), required=True, metavar="{zoo,csv}")
    sub.add_argument("--positive-type", type=_type, help="class code 1..7 (zoo format)")
    sub.add_argument(
        "--positive-label",
        type=_choice("+", "-"),
        metavar="{+,-}",
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
    learn_p.set_defaults(func=cmd_learn)

    mask_p = subparsers.add_parser("mask", help="blank cells of a dataset")
    _add_dataset_arguments(mask_p)
    mask_p.add_argument("--mode", type=_mode, required=True, metavar="{random,trustworthy}")
    mask_p.add_argument("--fraction", type=_fraction, required=True, help="share of cells to blank, at most 1/2")
    mask_p.add_argument("--seed", type=_seed, required=True, help="integer in [0, 2^64)")
    mask_p.add_argument("--truth", help="reference formula (text or file); required for trustworthy mode")
    mask_p.add_argument("--output", required=True, help="masked dataset (ternary CSV)")
    mask_p.set_defaults(func=cmd_mask)

    eval_p = subparsers.add_parser("eval", help="count a formula's errors on complete data")
    eval_p.add_argument("--formula", required=True, help="formula file (text or JSON)")
    _add_dataset_arguments(eval_p)
    eval_p.set_defaults(func=cmd_eval)

    exp_p = subparsers.add_parser("experiment", help="run the masking sweep and write report tables")
    exp_p.add_argument("--dataset", help="animal data file (defaults to the bundled copy)")
    exp_p.add_argument("--types", type=_types, default="all", help="'all' or comma-separated class codes 1..7")
    exp_p.add_argument("--fractions", type=_list_of(_fraction), default="0,10,20,30,40,50")
    exp_p.add_argument("--modes", type=_list_of(_mode), default="random,trustworthy")
    exp_p.add_argument("--seeds", type=_list_of(_seed), default="1,2", help="integers in [0, 2^64)")
    exp_p.add_argument("--report", required=True, help="report text file (a CSV sibling is written too)")
    exp_p.add_argument("--encoding", type=_encoding, default=DEFAULT_LEGS_ORDER, help="leg-count order for x13..x17")
    exp_p.set_defaults(func=cmd_experiment)

    verify_p = subparsers.add_parser("verify", help="check a formula against data, instance by instance")
    verify_p.add_argument("--formula", required=True)
    _add_dataset_arguments(verify_p)
    verify_p.add_argument("--exhaustive-min", action="store_true", help="also search for a smallest consistent formula")
    verify_p.add_argument("--max-literals", type=_int_in(0), default=12)
    verify_p.add_argument(
        "--budget", type=_int_in(1), default=1 << 24, help="completion-enumeration cap per instance, at least 1"
    )
    verify_p.set_defaults(func=cmd_verify)
    for sub in subparsers.choices.values():
        sub.add_argument("--json", action="store_true")  # last, where usage text lists it
    return parser


def _print_warning(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a record-count warning is a diagnostic line, whatever the
        # interpreter's warning filters say
        warnings.simplefilter("always", CountWarning)
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except tuple(_EXIT_CODES) as exc:
            code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
            message = str(exc)
            # OSError's own text, and the "(at ...)" of a file read_text
            # could not decode, hold the file name whole, however long
            if isinstance(exc, OSError) and len(name := str(exc.filename or "")) > _NAME_MAX:
                if exc.errno == errno.ENAMETOOLONG:
                    message = f"file name too long: {_clip(name)!r} has {len(name)} characters"
                else:
                    message = f"[Errno {exc.errno}] {exc.strerror}: {_clip(name)!r}"
            elif isinstance(exc, ParseError) and len(name := str(exc.where)) > _NAME_MAX:
                message = f"{message.removesuffix(f'(at {name})')}(at {_clip(name)})"
            print(f"{'inconsistent' if code == EXIT_INCONSISTENT else 'error'}: {message}", file=sys.stderr)
            return code


if __name__ == "__main__":
    sys.exit(main())
