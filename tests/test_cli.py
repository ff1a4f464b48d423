"""Command-line behavior: outputs, file products, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import tridnf
from tridnf import (
    CountWarning,
    Dataset,
    LearnerConfig,
    bundled_zoo_path,
    cli,
    learn,
    load_ternary_csv,
    load_zoo,
    parse_formula,
    save_ternary_csv,
)
from tridnf.cli import main
from tridnf.errors import (
    BudgetExceededError,
    ConsistencyAbort,
    LengthMismatchError,
    ParseError,
    TridnfError,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_learn_zoo_type_1(tmp_path, capsys):
    out = tmp_path / "f.txt"
    code, stdout, _ = run(
        capsys, "learn", "--format", "zoo", "--positive-type", "1",
        "--output", str(out),
    )
    assert code == 0
    assert stdout.splitlines() == ["f* = x4", "terms=1 literals=1"]
    assert out.read_text(encoding="utf-8") == "x4\n"
    sibling = json.loads((tmp_path / "f.json").read_text(encoding="utf-8"))
    assert sibling == {"n": 20, "terms": [[{"var": 4, "neg": False}]]}


def test_learn_zoo_type_7(tmp_path, capsys):
    out = tmp_path / "f.txt"
    code, stdout, _ = run(
        capsys, "learn", "--format", "zoo", "--positive-type", "7",
        "--output", str(out),
    )
    assert code == 0
    assert stdout.splitlines()[0] == "f* = ~x9 ~x14 | ~x10 x14"


def test_learn_json_and_trace(tmp_path, capsys):
    out = tmp_path / "f.txt"
    trace = tmp_path / "f.trace"
    code, stdout, _ = run(
        capsys, "learn", "--format", "zoo", "--positive-type", "2",
        "--output", str(out), "--trace", str(trace), "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["formula"] == "x2"
    assert payload["iterations"] >= 1
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("SELECT x2 R=")
    assert "TERM x2" in lines


def test_eval_round_trip_is_zero_errors(tmp_path, capsys):
    out = tmp_path / "f.txt"
    run(capsys, "learn", "--format", "zoo", "--positive-type", "3", "--output", str(out))
    code, stdout, _ = run(
        capsys, "eval", "--formula", str(out), "--format", "zoo", "--positive-type", "3",
    )
    assert code == 0
    assert stdout == "E=0 R=0.000\n"


def test_eval_published_formula(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("~x3 ~x11 | x16 x19\n", encoding="utf-8")
    code, stdout, _ = run(
        capsys, "eval", "--formula", str(f), "--format", "zoo", "--positive-type", "1",
        "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["errors"] == 1
    assert payload["size"] == 101


def test_eval_reads_json_formula_files(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text('{"n": 20, "terms": [[{"var": 4, "neg": false}]]}', encoding="utf-8")
    code, stdout, _ = run(
        capsys, "eval", "--formula", str(f), "--format", "zoo", "--positive-type", "1",
    )
    assert code == 0
    assert stdout == "E=0 R=0.000\n"


def test_mask_fraction_zero_keeps_file_byte_identical(tmp_path, capsys):
    masked = tmp_path / "masked.csv"
    code, _, _ = run(
        capsys, "mask", "--format", "zoo", "--positive-type", "1",
        "--mode", "random", "--fraction", "0", "--seed", "3",
        "--output", str(masked),
    )
    assert code == 0
    plain = tmp_path / "plain.csv"
    save_ternary_csv(load_ternary_csv(masked), plain)
    assert masked.read_bytes() == plain.read_bytes()


def test_mask_fraction_spellings_agree(tmp_path, capsys):
    files = []
    for name, token in (("a", "30%"), ("b", "0.3"), ("c", "30"), ("d", "3/10")):
        path = tmp_path / f"{name}.csv"
        code, _, _ = run(
            capsys, "mask", "--format", "zoo", "--positive-type", "1",
            "--mode", "random", "--fraction", token, "--seed", "7",
            "--output", str(path),
        )
        assert code == 0
        files.append(path.read_bytes())
    assert len(set(files)) == 1


def test_mask_fraction_refuses_exponent_notation(tmp_path, capsys):
    # Fraction would build 10^99999999 before the range check could run
    for token in ("1e-99999999", "3E-1"):
        code, err = refused(
            capsys, "mask", "--format", "zoo", "--positive-type", "1",
            "--mode", "random", "--fraction", token, "--seed", "7",
            "--output", str(tmp_path / "m.csv"),
        )
        assert code == 1 and "argument --fraction: cannot parse fraction" in err


def test_mask_then_learn_then_verify(tmp_path, capsys):
    masked = tmp_path / "masked.csv"
    run(
        capsys, "mask", "--format", "zoo", "--positive-type", "1",
        "--mode", "random", "--fraction", "20%", "--seed", "11",
        "--output", str(masked),
    )
    out = tmp_path / "f.txt"
    code, _, _ = run(
        capsys, "learn", "--format", "csv", "--input", str(masked),
        "--output", str(out),
    )
    assert code == 0
    code, stdout, _ = run(
        capsys, "verify", "--formula", str(out), "--format", "csv",
        "--input", str(masked),
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "violations=0 of 101"


def test_mask_trustworthy_takes_inline_truth(tmp_path, capsys):
    masked = tmp_path / "masked.csv"
    code, stdout, _ = run(
        capsys, "mask", "--format", "zoo", "--positive-type", "1",
        "--mode", "trustworthy", "--fraction", "40%", "--seed", "1",
        "--truth", "x4", "--output", str(masked), "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["requested"] == 808
    d = load_ternary_csv(masked)
    # column x4 is certain everywhere
    assert all(inst.cell(3).is_certain for inst in d.instances())


def test_verify_reports_violations_with_exit_3(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11", "10"], ["01"]), data)
    f = tmp_path / "f.txt"
    f.write_text("x2\n", encoding="utf-8")
    code, stdout, _ = run(capsys, "verify", "--formula", str(f), "--format", "csv", "--input", str(data))
    assert code == 3
    lines = stdout.splitlines()
    assert "r2 violated" in lines
    assert lines[-1] == "violations=2 of 3"


def test_verify_exhaustive_min(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["01", "10", "00"]), data)
    f = tmp_path / "f.txt"
    f.write_text("x1 x2\n", encoding="utf-8")
    code, stdout, _ = run(
        capsys, "verify", "--formula", str(f), "--format", "csv",
        "--input", str(data), "--exhaustive-min",
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "minimal: x1 x2 (2 literals)"


def test_verify_exhaustive_min_refuses_inconsistent_data_at_once(tmp_path):
    # row 101100 is both positive and negative, so no DNF of any size is
    # consistent; seven positives and two negatives leave enough usable
    # terms that a search through every size takes seconds per size, so
    # the run is a subprocess with a timeout
    data = tmp_path / "inc6.csv"
    rows = ["101100+", "011010+", "110001+", "000111+", "010101+", "111000+", "001001+", "101100-", "100010-"]
    lines = ["x1,x2,x3,x4,x5,x6,label", *(",".join(row) for row in rows)]
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    f = tmp_path / "f.txt"
    f.write_text("x1\n", encoding="utf-8")
    src = str(Path(tridnf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "tridnf.cli", "verify", "--formula", str(f), "--format", "csv",
            "--input", str(data), "--exhaustive-min", "--max-literals", "1000000",
        ],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: no consistent DNF within 1000000 literals\n"


def test_verify_budget_exceeded_exits_1(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["???"], []), data)
    f = tmp_path / "f.txt"
    f.write_text("x1 x2 | x3\n", encoding="utf-8")
    code, _, err = run(
        capsys, "verify", "--formula", str(f), "--format", "csv",
        "--input", str(data), "--budget", "1",
    )
    assert code == 1 and "budget" in err


def test_experiment_writes_report_and_csv(tmp_path, capsys):
    report = tmp_path / "sweep.txt"
    code, stdout, _ = run(
        capsys, "experiment", "--types", "1", "--modes", "random",
        "--fractions", "10,20", "--seeds", "0,1", "--report", str(report),
    )
    assert code == 0
    assert report.exists()
    csv_path = tmp_path / "sweep.csv"
    assert csv_path.exists()
    assert "10%" in stdout
    assert "learning time" in stdout
    assert "learning time" not in report.read_text(encoding="utf-8")
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("type,mode,fraction,seed")


def test_experiment_json_summary(tmp_path, capsys):
    report = tmp_path / "sweep.txt"
    code, stdout, _ = run(
        capsys, "experiment", "--types", "2", "--modes", "random",
        "--fractions", "10", "--seeds", "0", "--report", str(report), "--json",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["summary"][0]["runs"] == 1


def test_experiment_runs_a_repeated_seed_once(tmp_path, capsys):
    report = tmp_path / "sweep.txt"
    code, stdout, _ = run(
        capsys, "experiment", "--types", "3", "--modes", "random",
        "--fractions", "20", "--seeds", "1,1", "--report", str(report),
    )
    assert code == 0
    row = next(line.split() for line in stdout.splitlines() if line.lstrip().startswith("random"))
    assert row[:3] == ["random", "20%", "1"]
    assert "runs 1," in report.read_text(encoding="utf-8")
    assert len((tmp_path / "sweep.csv").read_text(encoding="utf-8").splitlines()) == 2


def test_usage_errors_exit_1(tmp_path, capsys):
    masked = tmp_path / "m.csv"
    # fraction above the permitted half
    code, err = refused(
        capsys, "mask", "--format", "zoo", "--positive-type", "1",
        "--mode", "random", "--fraction", "0.9", "--seed", "0",
        "--output", str(masked),
    )
    assert code == 1 and "error" in err

    # trustworthy without a reference formula
    code, _, err = run(
        capsys, "mask", "--format", "zoo", "--positive-type", "1",
        "--mode", "trustworthy", "--fraction", "10%", "--seed", "0",
        "--output", str(masked),
    )
    assert code == 1 and "--truth" in err

    # zoo without a class code
    code, _, err = run(capsys, "learn", "--format", "zoo", "--output", str(tmp_path / "f.txt"))
    assert code == 1 and "--positive-type" in err


def test_argparse_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["experiment", "--types", "1"])
    assert stop.value.code == 1
    with pytest.raises(SystemExit) as stop:
        main(["learn", "--format", "parquet", "--output", "f.txt"])
    assert stop.value.code == 1
    with pytest.raises(SystemExit) as stop:
        main(["learn", "--format", "zoo", "--positive-type", "1",
              "--output", "f.txt", "--threads", "2"])
    assert stop.value.code == 1
    with pytest.raises(SystemExit) as stop:
        main(["learn", "--format", "zoo", "--positive-type", "1",
              "--output", "f.txt", "--dedupe", "exact"])
    assert stop.value.code == 1


def test_data_errors_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "learn", "--format", "csv", "--input", str(tmp_path / "absent.csv"),
        "--output", str(tmp_path / "f.txt"),
    )
    assert code == 2

    bad = tmp_path / "bad.csv"
    bad.write_text("x1,x2,label\n1,2,+\n", encoding="utf-8")
    code, _, err = run(
        capsys, "learn", "--format", "csv", "--input", str(bad),
        "--output", str(tmp_path / "f.txt"),
    )
    assert code == 2 and "line 2" in err

    # an empty cell is not absorbed by its neighbour
    bad.write_text("x1,x2,label\n,11,+\n", encoding="utf-8")
    code, _, err = run(
        capsys, "learn", "--format", "csv", "--input", str(bad),
        "--output", str(tmp_path / "f.txt"),
    )
    assert code == 2 and "line 2, column 1" in err


def test_long_csv_tokens_are_shown_clipped(tmp_path, capsys):
    # a 5,000-character cell or label is named by its first 16 characters;
    # a short one is shown whole, as before
    bad = tmp_path / "bad.csv"
    cases = [
        ("z" * 5000 + ",+", "cell must be '0', '1' or '?', got 'zzzzzzzzzzzzzzzz...' (at line 2, column 1)"),
        ("1," + "z" * 5000, "label must be '+' or '-', got 'zzzzzzzzzzzzzzzz...' (at line 2)"),
        ("2,+", "cell must be '0', '1' or '?', got '2' (at line 2, column 1)"),
        ("1,*", "label must be '+' or '-', got '*' (at line 2)"),
    ]
    for row, message in cases:
        bad.write_text(f"x1,label\n{row}\n", encoding="utf-8")
        code, stdout, err = run(
            capsys, "learn", "--format", "csv", "--input", str(bad), "--output", str(tmp_path / "f.txt"),
        )
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert len(err.encode()) < 120


@pytest.mark.parametrize("legs, kind", [("\u0664", "1"), ("4", "\u0661"), ("+4", "1"), ("0_4", "1")])
def test_zoo_counts_in_other_digits_exit_2(tmp_path, capsys, legs, kind):
    bad = tmp_path / "zoo.data"
    bad.write_text(f"aardvark,1,0,0,1,0,0,1,1,1,1,0,0,{legs},0,0,1,{kind}\n", encoding="utf-8")
    code, _, err = run(
        capsys, "learn", "--format", "zoo", "--positive-type", "1", "--input", str(bad),
        "--output", str(tmp_path / "f.txt"),
    )
    token = legs if legs != "4" else kind
    assert code == 2 and "line 1" in err and repr(token) in err, err


def test_csv_cell_past_the_field_limit_exits_2(tmp_path, capsys):
    # csv refuses a field longer than 131,072 characters
    big = tmp_path / "big.csv"
    big.write_text("x1,label\n0,-\n" + "1" * 200_000 + ",+\n", encoding="utf-8")
    code, _, err = run(
        capsys, "learn", "--format", "csv", "--input", str(big),
        "--output", str(tmp_path / "f.txt"),
    )
    assert code == 2 and "field limit" in err and "line 3" in err, err


@pytest.mark.parametrize("kind", ["csv", "zoo", "formula", "truth"])
def test_undecodable_input_exits_2(tmp_path, capsys, kind):
    bad = tmp_path / "bad.in"
    good = {
        "csv": b"x1,label\n1,+\n",
        "zoo": b"aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1\n",
        "formula": b"x4\n",
        "truth": b"x4\n",
    }[kind]
    bad.write_bytes(good[:3] + b"\xff" + good[3:])
    args = {
        "csv": ["learn", "--format", "csv", "--input", str(bad), "--output", str(tmp_path / "f.txt")],
        "zoo": ["learn", "--format", "zoo", "--positive-type", "1", "--input", str(bad),
                "--output", str(tmp_path / "f.txt")],
        "formula": ["eval", "--formula", str(bad), "--format", "zoo", "--positive-type", "1"],
        "truth": ["mask", "--format", "zoo", "--positive-type", "1", "--mode", "trustworthy",
                  "--fraction", "10%", "--seed", "1", "--truth", str(bad),
                  "--output", str(tmp_path / "m.csv")],
    }[kind]
    code, _, err = run(capsys, *args)
    assert code == 2 and "not UTF-8 text" in err and str(bad) in err, err


def test_deeply_nested_formula_json_exits_2(tmp_path, capsys):
    f = tmp_path / "f.json"
    f.write_text('{"n": ' + "[" * 200_000 + "]" * 200_000 + "}", encoding="utf-8")
    code, _, err = run(
        capsys, "eval", "--formula", str(f), "--format", "zoo", "--positive-type", "1",
    )
    assert code == 2 and "nested too deeply" in err


def test_overlong_numbers_in_a_formula_exit_2(tmp_path, capsys):
    # past Python's int-to-str digit limit; the error names the token
    for name, text, token in (
        ("f.txt", "x" + "9" * 5000, "'x999"),
        ("f.json", '{"n": ' + "1" * 4400 + ', "terms": []}', "'111"),
    ):
        f = tmp_path / name
        f.write_text(text, encoding="utf-8")
        code, _, err = run(
            capsys, "eval", "--formula", str(f), "--format", "zoo", "--positive-type", "1",
        )
        assert code == 2 and "number too long: " + token in err, err


def test_inconsistent_data_exits_3(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["11"]), data)
    trace = tmp_path / "t.trace"
    code, _, err = run(
        capsys, "learn", "--format", "csv", "--input", str(data),
        "--output", str(tmp_path / "f.txt"), "--trace", str(trace),
    )
    assert code == 3
    assert "inconsistent" in err
    # the partial trace is still written for the post-mortem
    assert trace.read_text(encoding="utf-8").splitlines()[-1] == "ABORT inconsistent-data"


@pytest.mark.parametrize("positives, negatives, code", [
    (["110?1", "0?011", "1?100", "01?10"], ["10010", "0?110", "11?00", "00?01"], 0),
    # v2 and v3 collide with u2 once the first term's update fills them
    (["?1", "?0"], ["?0", "0?", "1?"], 3),
])
def test_trace_file_is_the_learns_trace(tmp_path, capsys, positives, negatives, code):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(positives, negatives), data)
    trace = tmp_path / "t.trace"
    assert run(
        capsys, "learn", "--format", "csv", "--input", str(data),
        "--output", str(tmp_path / "f.txt"), "--trace", str(trace),
    )[0] == code
    try:
        lines = learn(load_ternary_csv(data), LearnerConfig(trace=True)).trace
    except ConsistencyAbort as abort:
        lines = abort.trace
    assert len(lines) > 2
    assert trace.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


def test_positive_label_swap(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["00", "01"]), data)
    out = tmp_path / "f.txt"
    code, stdout, _ = run(
        capsys, "learn", "--format", "csv", "--input", str(data),
        "--positive-label", "-", "--output", str(out),
    )
    assert code == 0
    assert stdout.splitlines()[0] == "f* = ~x1"


def test_custom_encoding_changes_columns(tmp_path, capsys):
    out = tmp_path / "f.txt"
    code, stdout, _ = run(
        capsys, "learn", "--format", "zoo", "--positive-type", "6",
        "--encoding", "2,4,5,6,8", "--output", str(out),
    )
    assert code == 0
    # six legs moves from x14 to x16 under the reversed order
    assert stdout.splitlines()[0] == "f* = x16 x10"


def refused(capsys, *argv):
    """Exit code and stderr of a run that the parser or the command refuses."""
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    return code, capsys.readouterr().err


def _dataset_command(command, tmp_path, *data):
    formula = tmp_path / "f.txt"
    formula.write_text("x1\n", encoding="utf-8")
    return {
        "learn": ("learn", *data, "--output", str(formula)),
        "mask": ("mask", *data, "--mode", "random", "--fraction", "10%", "--seed", "1",
                 "--output", str(tmp_path / "m.csv")),
        "eval": ("eval", "--formula", str(formula), *data),
        "verify": ("verify", "--formula", str(formula), *data),
    }[command]


@pytest.mark.parametrize("command", ["learn", "mask", "eval", "verify"])
def test_dataset_flags_of_the_other_format_are_refused(tmp_path, capsys, command):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["00"]), data)
    argv = _dataset_command(
        command, tmp_path, "--format", "zoo", "--positive-type", "1", "--positive-label", "-"
    )
    code, err = refused(capsys, *argv)
    assert code == 1 and "--positive-label" in err
    # a valid permutation, so the format rule refuses it and not the parser
    argv = _dataset_command(
        command, tmp_path, "--format", "csv", "--input", str(data), "--encoding", "8,6,5,4,2"
    )
    assert run(capsys, *argv) == (1, "", "error: --encoding applies only to --format zoo\n")


def test_seeds_outside_64_bits_are_refused(tmp_path, capsys):
    # SplitMix64 keeps a seed's low 64 bits, so these would alias 0 and 1
    for seed in ("18446744073709551616", "-1"):
        code, err = refused(
            capsys, "mask", "--format", "zoo", "--positive-type", "1", "--mode", "random",
            "--fraction", "10%", "--seed", seed, "--output", str(tmp_path / "m.csv"),
        )
        assert code == 1 and "--seed" in err and "2^64" in err
    code, err = refused(
        capsys, "experiment", "--types", "3", "--fractions", "20", "--modes", "random",
        "--seeds", "1,18446744073709551617", "--report", str(tmp_path / "r.txt"),
    )
    assert code == 1 and "--seeds" in err
    code, _, _ = run(
        capsys, "mask", "--format", "zoo", "--positive-type", "1", "--mode", "random",
        "--fraction", "10%", "--seed", "18446744073709551615", "--output", str(tmp_path / "m.csv"),
    )
    assert code == 0


def test_verify_refuses_a_budget_below_1(tmp_path, capsys):
    # certain data never reads the budget, so only the flag check can refuse it
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["00"]), data)
    f = tmp_path / "f.txt"
    f.write_text("x1\n", encoding="utf-8")
    for budget in ("-1", "0"):
        code, err = refused(
            capsys, "verify", "--formula", str(f), "--format", "csv", "--input", str(data),
            "--budget", budget,
        )
        assert code == 1 and "--budget" in err


def test_verify_refuses_a_negative_literal_limit(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["00"]), data)
    f = tmp_path / "f.txt"
    f.write_text("x1\n", encoding="utf-8")
    code, err = refused(
        capsys, "verify", "--formula", str(f), "--format", "csv", "--input", str(data),
        "--exhaustive-min", "--max-literals", "-1",
    )
    assert code == 1 and "--max-literals" in err


@pytest.mark.parametrize("flag, value", [
    ("--types", "3,"), ("--seeds", "1,"), ("--fractions", "10,,20"), ("--types", "8"),
    ("--fractions", "60"), ("--modes", "random,"), ("--encoding", "9,9"),
])
def test_experiment_list_errors_name_the_flag(tmp_path, capsys, flag, value):
    code, err = refused(capsys, "experiment", flag, value, "--report", str(tmp_path / "r.txt"))
    assert code == 1 and f"argument {flag}:" in err and "Fraction(" not in err


def test_choice_flags_read_a_token_as_a_list_entry_is_read(tmp_path, capsys):
    # surrounding spaces aside, as --modes entries and int-typed flags are read
    parse = cli.build_parser().parse_args
    common = ["--positive-type", "1", "--output", "o.txt"]
    assert parse(["learn", "--format", " zoo ", *common]).format == "zoo"
    assert parse(["learn", "--format", "csv", "--positive-label", " -", "--output", "o.txt"]).positive_label == "-"
    args = parse(["mask", "--format", "zoo", "--mode", " random", "--fraction", "10%", "--seed", "1", *common])
    assert args.mode == "random"
    assert parse(["experiment", "--modes", " random, trustworthy", "--report", "r.txt"]).modes == [
        "random", "trustworthy",
    ]
    out = tmp_path / "f.txt"
    code, stdout, _ = run(capsys, "learn", "--format", " zoo", "--positive-type", "1", "--output", str(out))
    assert (code, stdout.splitlines()[0]) == (0, "f* = x4")
    # a padded token that is no choice is shown as given
    code, err = refused(capsys, "learn", "--format", " zo", *common)
    assert code == 1 and err.endswith("invalid choice: ' zo' (choose from 'zoo', 'csv')\n")
    # the help text still lists the choices
    with pytest.raises(SystemExit):
        main(["learn", "--help"])
    assert "--format {zoo,csv}" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("--fraction", "x"), ("--fraction", "0.9"), ("--encoding", "9,9"), ("--encoding", "8,6,x,4,2"),
])
def test_mask_flag_errors_name_the_flag(tmp_path, capsys, flag, value):
    argv = ["mask", "--format", "zoo", "--positive-type", "1", "--mode", "random",
            "--fraction", "10%", "--seed", "1", "--output", str(tmp_path / "m.csv")]
    code, err = refused(capsys, *argv, flag, value)
    assert code == 1 and f"argument {flag}:" in err and "Fraction(" not in err


@pytest.mark.parametrize("command", ["learn", "mask", "eval", "verify"])
def test_csv_format_rules_and_their_precedence(tmp_path, capsys, command):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["00"]), data)
    for flags, message in (
        (("--format", "csv"), "--input is required with --format csv"),
        # the required input is checked before the flags of the other format
        (("--format", "csv", "--positive-type", "1", "--encoding", "8,6,5,4,2"),
         "--input is required with --format csv"),
        (("--format", "csv", "--input", str(data), "--positive-type", "1"),
         "--positive-type applies only to --format zoo"),
        (("--format", "csv", "--input", str(data), "--positive-type", "1",
          "--encoding", "8,6,5,4,2"),
         "--positive-type applies only to --format zoo"),
        (("--format", "zoo", "--positive-label", "+"), "--positive-type is required with --format zoo"),
    ):
        argv = _dataset_command(command, tmp_path, *flags)
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_verify_json_reports_witnesses(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["1?", "11"], ["00"]), data)
    f = tmp_path / "f.txt"
    f.write_text("x1 x2\n", encoding="utf-8")
    code, stdout, err = run(
        capsys, "verify", "--formula", str(f), "--format", "csv", "--input", str(data), "--json",
    )
    assert (code, err) == (0, "")
    assert stdout == (
        '{"certificates": [{"id": "r1", "verdict": "completion-witness", "witness": "11"}, '
        '{"id": "r2", "verdict": "exact", "witness": null}, '
        '{"id": "r3", "verdict": "exact", "witness": null}], "violations": 0}\n'
    )
    code, stdout, err = run(
        capsys, "verify", "--formula", str(f), "--format", "csv", "--input", str(data),
    )
    assert (code, err) == (0, "")
    assert stdout.splitlines() == [
        "r1 completion-witness witness=11", "r2 exact", "r3 exact", "violations=0 of 3",
    ]


def test_verify_json_reports_the_minimal_formula(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["01", "10", "00"]), data)
    f = tmp_path / "f.txt"
    f.write_text("x1 x2\n", encoding="utf-8")
    code, stdout, err = run(
        capsys, "verify", "--formula", str(f), "--format", "csv", "--input", str(data),
        "--exhaustive-min", "--json",
    )
    assert (code, err) == (0, "")
    exact = ", ".join(f'{{"id": "r{k}", "verdict": "exact", "witness": null}}' for k in range(1, 5))
    assert stdout == (
        f'{{"certificates": [{exact}], "violations": 0, '
        '"minimal": {"formula": "x1 x2", "literals": 2}}\n'
    )


def test_learn_json_output_writes_a_text_sibling(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, stdout, err = run(
        capsys, "learn", "--format", "zoo", "--positive-type", "1", "--output", str(out), "--json",
    )
    assert (code, err) == (0, "")
    text = tmp_path / "g.txt"
    assert json.loads(stdout) == {
        "formula": "x4", "terms": 1, "literals": 1, "iterations": 1,
        "text_path": str(text), "json_path": str(out),
    }
    assert text.read_text(encoding="utf-8") == "x4\n"
    assert out.read_text(encoding="utf-8") == '{"n": 20, "terms": [[{"var": 4, "neg": false}]]}\n'


def test_experiment_csv_report_writes_runs_beside_it(tmp_path, capsys):
    report = tmp_path / "r.csv"
    code, stdout, err = run(
        capsys, "experiment", "--types", "1", "--modes", "random", "--fractions", "10",
        "--seeds", "1", "--report", str(report),
    )
    assert (code, err) == (0, "")
    runs = tmp_path / "r.runs.csv"
    lines = stdout.splitlines()
    assert lines[:4] == [
        "Summary per mode and fraction over all types and seeds",
        "(AEN = mean error count, R = mean error rate; aborted runs excluded):",
        "  mode          missing  runs  aborts     AEN       R",
        "  random            10%     1       0    0.00   0.000",
    ]
    assert lines[4].startswith("learning time ") and lines[4].endswith("s")
    assert lines[5:] == [f"report: {report}", f"runs csv: {runs}"]
    assert report.read_text(encoding="utf-8").startswith("Masked-data learning report\n")
    header, row = runs.read_text(encoding="utf-8").splitlines()
    assert header == "type,mode,fraction,seed,errors,rate,abort,seconds,formula"
    assert row.startswith("1,random,1/10,1,0,0,,")


_AARDVARK = "aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1"


@pytest.mark.parametrize("line, message", [
    ("aardvark,2,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1", "field 'hair' must be 0 or 1, got '2'"),
    ("aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,x,1", "field 'catsize' must be 0 or 1, got 'x'"),
    (" ,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1", "empty animal name"),
    ("aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,8", "class code must be 1..7, got 8"),
    ("aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,0", "class code must be 1..7, got 0"),
    ("aardvark,1,0,0,1,0,0,1,1,1,1,0,0,3,0,0,1,1", "leg count must be one of (0, 2, 4, 5, 6, 8), got 3"),
    # the record checks the leg-count range once every field has parsed
    ("aardvark,1,0,0,1,0,0,1,1,1,1,0,0,3,0,0,x,1", "field 'catsize' must be 0 or 1, got 'x'"),
    # a long token is shown as its first 16 characters
    ("aardvark," + "1" * 5000 + ",0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1",
     "field 'hair' must be 0 or 1, got '1111111111111111...'"),
    ("aardvark,1,0,0,1,0,0,1,1,1,1,0,0," + "\u0664" * 5000 + ",0,0,1,1",
     "leg count must be written in the digits 0-9, got '" + "\u0664" * 16 + "...'"),
], ids=["flag-2", "flag-x", "empty-name", "class-8", "class-0", "legs-3", "legs-3-flag-x",
        "flag-long", "legs-long"])
def test_zoo_row_refusals_name_their_line_and_exit_2(tmp_path, capsys, line, message):
    data = tmp_path / "zoo.data"
    data.write_text(f"{_AARDVARK}\n{line}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_zoo(data)
    assert str(err.value) == f"{message} (at line 2)"
    code, stdout, stderr = run(
        capsys, "learn", "--format", "zoo", "--positive-type", "1", "--input", str(data),
        "--output", str(tmp_path / "f.txt"),
    )
    assert (code, stdout, stderr) == (2, "", f"error: {message} (at line 2)\n")
    assert not (tmp_path / "f.txt").exists()


def test_experiment_reports_a_class_whose_unmasked_data_aborts(tmp_path, capsys):
    # a type-2 clone of aardvark makes type 1's complete data inconsistent:
    # its rows report the abort, and the run still writes both files
    data, report = tmp_path / "bad.data", tmp_path / "bad.txt"
    zoo = bundled_zoo_path().read_text(encoding="utf-8")
    data.write_text(zoo + "aardclone,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,2\n", encoding="utf-8")
    code, stdout, err = run(
        capsys, "experiment", "--dataset", str(data), "--types", "1", "--fractions", "0,10",
        "--seeds", "1", "--report", str(report),
    )
    assert (code, err) == (0, "warning: expected 101 records, found 102\n")
    assert "  trustworthy        0%     1       1       -       -" in stdout.splitlines()
    text = report.read_text(encoding="utf-8")
    assert "Type 1\n" in text and "reference formula" not in text
    assert "  trustworthy        0%      1 ABORT  inconsistent-data" in text.splitlines()
    assert "  trustworthy       10%      1 ABORT  inconsistent-data" in text.splitlines()
    assert "  random             0%      1 ABORT  inconsistent-data" in text.splitlines()
    rows = (tmp_path / "bad.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].startswith("1,random,0,1,,,inconsistent-data,")


def test_record_count_warning_is_one_stderr_line_under_any_filter(tmp_path, capsys):
    # an interpreter told to turn warnings into errors still gets the line
    # and the formula, not a traceback
    data, out = tmp_path / "bad.data", tmp_path / "f.txt"
    zoo = bundled_zoo_path().read_text(encoding="utf-8")
    data.write_text(zoo + "aardclone,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,2\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            capsys, "learn", "--format", "zoo", "--input", str(data), "--positive-type", "3",
            "--output", str(out),
        )
    assert (code, err) == (0, "warning: expected 101 records, found 102\n")
    formula = "~x6 ~x1 x8 | x11 ~x3 x6 | x16 ~x8 ~x6"
    assert stdout.splitlines()[0] == f"f* = {formula}"
    assert out.read_text(encoding="utf-8") == formula + "\n"
    with pytest.warns(CountWarning):
        load_zoo(data)  # the library still warns


def test_mask_truth_that_does_not_parse_exits_2(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, stdout, err = run(
        capsys, "mask", "--format", "zoo", "--positive-type", "1", "--mode", "trustworthy",
        "--fraction", "10%", "--seed", "1", "--truth", "x1 |", "--output", str(out),
    )
    assert (code, stdout, err) == (2, "", "error: empty term at end of formula (at 4)\n")
    assert not out.exists()


def test_mask_truth_too_long_for_a_file_name_reports_the_parse_error(tmp_path, capsys):
    # no file can be named by the token, so it is read as formula text alone
    out = tmp_path / "m.csv"
    code, stdout, err = run(
        capsys, "mask", "--format", "zoo", "--positive-type", "1", "--mode", "trustworthy",
        "--fraction", "10%", "--seed", "1", "--truth", "x" + "9" * 5000, "--output", str(out),
    )
    assert (code, stdout) == (2, "")
    assert err == "error: number too long: 'x999999999999999...' has 5001 characters (at 0)\n"
    assert not out.exists()


_LONG = "9" * 5000


@pytest.mark.parametrize("command, flag, value", [
    ("mask", "--seed", _LONG),
    ("experiment", "--seeds", _LONG),
    ("experiment", "--seeds", "1," + _LONG),
    ("experiment", "--types", _LONG),
    ("mask", "--fraction", _LONG),
    ("experiment", "--fractions", _LONG),
    ("experiment", "--encoding", _LONG),
    ("verify", "--max-literals", _LONG),
    ("experiment", "--modes", "x" * 5000),
    ("learn", "--format", "x" * 5000),
    ("learn", "--positive-label", "x" * 5000),
    ("mask", "--mode", "x" * 5000),
])
def test_long_flag_values_are_shown_clipped(tmp_path, capsys, command, flag, value):
    # after the usage, one error line shows the value as its first 16
    # characters and "..."; a digit string that int refuses is too long
    required = {
        "learn": ["--format", "zoo", "--positive-type", "1", "--output", str(tmp_path / "f.txt")],
        "mask": ["--format", "zoo", "--positive-type", "1", "--mode", "random",
                 "--fraction", "10%", "--seed", "1", "--output", str(tmp_path / "m.csv")],
        "experiment": ["--report", str(tmp_path / "r.txt")],
        "verify": ["--formula", str(tmp_path / "f.txt"), "--format", "zoo", "--positive-type", "1"],
    }[command]
    code, err = refused(capsys, command, *required, flag, value)
    line = err.splitlines()[-1]
    assert code == 1 and err.startswith(f"usage: tridnf {command} ")
    assert line.startswith(f"tridnf {command}: error: argument {flag}: ")
    assert len(line.encode()) < 300 and value[:17] not in err, line
    assert ("number too long" in line) == (flag in ("--seed", "--seeds", "--types", "--max-literals"))
    assert "expected an integer" not in line


_LEARN = ["learn", "--format", "zoo", "--positive-type", "1", "--output", "f.txt"]


@pytest.mark.parametrize("argv, echo", [
    ([*_LEARN, "x" * 5000], "unrecognized arguments: xxxxxxxxxxxxxxxx..."),
    ([*_LEARN, "extra", "y" * 21], "unrecognized arguments: extra yyyyyyyyyyyyyyyy..."),
    ([*_LEARN, "extra"], "unrecognized arguments: extra"),
    (["x" * 5000], "argument command: invalid choice: 'xxxxxxxxxxxxxxxx...' (choose from "),
    (["lern"], "argument command: invalid choice: 'lern' (choose from "),
    # a long value argparse does not echo stays out of the line
    ([*_LEARN[:-1], "o" * 100_000, "y" * 100_000], "unrecognized arguments: yyyyyyyyyyyyyyyy..."),
])
def test_tokens_argparse_echoes_are_shown_clipped(capsys, argv, echo):
    # argparse itself names the arguments left over and an unknown
    # command; each token is shown through the one clipping rule.  The
    # wording of the choice list differs across Python versions, so only
    # the token and the line's length are pinned
    code, err = refused(capsys, *argv)
    line = err.splitlines()[-1]
    assert code == 1 and line.startswith(f"tridnf: error: {echo}") and len(line.encode()) < 300, line
    assert "(choose from" in echo or line == f"tridnf: error: {echo}"


@pytest.mark.parametrize("argv, line", [
    (["learn", "--format", "zoo", "--output", "o.txt", "--p=" + "x" * 5000],
     "tridnf learn: error: ambiguous option: --p=xxxxxxxxxxxx... could match --positive-type, --positive-label"),
    (["experiment", "--report", "r.txt", "--json=" + "x" * 5000],
     "tridnf experiment: error: argument --json: ignored explicit argument 'xxxxxxxxxxxxxxxx...'"),
    (["learn", "-h-" + "x" * 5000],
     "tridnf learn: error: argument -h/--help: ignored explicit argument '-xxxxxxxxxxxxxxx...'"),
])
def test_subcommand_argparse_echoes_are_shown_clipped(capsys, argv, line):
    # a subcommand's parser echoes an ambiguous abbreviation whole, and
    # the argument a flag ignores after its "=" or its short flag; each
    # is shown through the same rule
    code, err = refused(capsys, *argv)
    assert code == 1 and err.splitlines()[-1] == line, err[-300:]


@pytest.mark.parametrize("flag", ["--input", "--output", "--trace"])
def test_file_names_too_long_are_shown_clipped(tmp_path, capsys, flag):
    # the OS refuses the name; the message shows it clipped, with its length
    argv = ["--input", str(_two_rows(tmp_path)), "--output", str(tmp_path / "f.txt"),
            "--trace", str(tmp_path / "t.txt")]
    argv[argv.index(flag) + 1] = "x" * 5000
    code, stdout, err = run(capsys, "learn", "--format", "csv", *argv)
    assert (code, stdout) == (2, "")
    assert err == "error: file name too long: 'xxxxxxxxxxxxxxxx...' has 5000 characters\n"


def test_other_file_errors_keep_the_os_message(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    code, stdout, err = run(
        capsys, "learn", "--format", "csv", "--input", str(missing), "--output", str(tmp_path / "f.txt"),
    )
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_missing_long_paths_are_shown_clipped(tmp_path, capsys, monkeypatch):
    # 2,000 "a/" components: 4,001 characters, short enough for the OS to
    # look the path up and report it missing
    monkeypatch.chdir(tmp_path)
    path = "a/" * 2000 + "x"
    code, stdout, err = run(capsys, "learn", "--format", "csv", "--input", path, "--output", "f.txt")
    assert (code, stdout) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: 'a/a/a/a/a/a/a/a/...'\n"
    assert len(err.encode()) < 300


def test_undecodable_files_at_long_paths_are_shown_clipped(tmp_path, capsys, monkeypatch):
    # 40 nested 10-character directories: 447 characters, each component
    # short enough to create; the "(at ...)" of the parse error is clipped
    # as an OS error's file name is
    monkeypatch.chdir(tmp_path)
    folder = Path(*["abcdefghij"] * 40)
    folder.mkdir(parents=True)
    bad = folder / "bad.csv"
    bad.write_bytes(b"x1,label\n\xff1,+\n")
    code, stdout, err = run(capsys, "learn", "--format", "csv", "--input", str(bad), "--output", "f.txt")
    assert (code, stdout) == (2, "")
    assert err == "error: not UTF-8 text: invalid start byte (at abcdefghij/abcde...)\n"
    assert len(err.encode()) < 300
    # a name of at most 255 characters is shown whole
    short = Path("bad.csv")
    short.write_bytes(b"\xff")
    code, _, err = run(capsys, "learn", "--format", "csv", "--input", str(short), "--output", "f.txt")
    assert (code, err) == (2, "error: not UTF-8 text: invalid start byte (at bad.csv)\n")


def test_eval_formula_wider_than_the_data_exits_1(tmp_path, capsys):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["00"]), data)
    f = tmp_path / "f.txt"
    f.write_text("x5\n", encoding="utf-8")
    code, stdout, err = run(
        capsys, "eval", "--formula", str(f), "--format", "csv", "--input", str(data),
    )
    assert (code, stdout) == (1, "")
    assert err == "error: formula names x5 but the data has only 2 variables\n"


def _two_rows(tmp_path):
    data = tmp_path / "rows.csv"
    save_ternary_csv(Dataset.from_texts(["11"], ["00"]), data)
    return data


@pytest.mark.parametrize("command", ["verify", "mask"])
def test_formula_naming_a_variable_the_data_lacks_exits_1(tmp_path, capsys, command):
    data, out = _two_rows(tmp_path), tmp_path / "m.csv"
    f = tmp_path / "f.txt"
    f.write_text("x5\n", encoding="utf-8")
    args = {
        "verify": ["verify", "--formula", str(f)],
        "mask": ["mask", "--mode", "trustworthy", "--fraction", "25%", "--seed", "1",
                 "--truth", "x5", "--output", str(out)],
    }[command]
    code, stdout, err = run(capsys, *args, "--format", "csv", "--input", str(data))
    assert (code, stdout) == (1, "")
    assert err == "error: formula names x5 but the data has only 2 variables\n"
    assert not out.exists()


@pytest.mark.parametrize("truth", ["x1", "x1 |", "x5"])
def test_mask_refuses_truth_in_random_mode(tmp_path, capsys, truth):
    # random masking reads no formula, so the flag is refused before the
    # formula is parsed or width-checked, and nothing is written
    data, out = _two_rows(tmp_path), tmp_path / "m.csv"
    code, stdout, err = run(
        capsys, "mask", "--format", "csv", "--input", str(data), "--mode", "random",
        "--fraction", "25%", "--seed", "1", "--truth", truth, "--output", str(out),
    )
    assert (code, stdout, err) == (1, "", "error: --truth applies only to --mode trustworthy\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "verify", "mask"])
def test_formula_declaring_more_variables_than_it_names_is_accepted(tmp_path, capsys, command):
    # the formula names x1 only, so it runs as the text formula x1 does
    data, out = _two_rows(tmp_path), tmp_path / "m.csv"
    wide, narrow = tmp_path / "wide.json", tmp_path / "x1.txt"
    wide.write_text('{"n": 5, "terms": [[{"var": 1, "neg": false}]]}', encoding="utf-8")
    narrow.write_text("x1\n", encoding="utf-8")
    outcomes = []
    for formula in (str(wide), str(narrow)):
        args = {
            "eval": ["eval", "--formula", formula],
            "verify": ["verify", "--formula", formula],
            "mask": ["mask", "--mode", "trustworthy", "--fraction", "25%", "--seed", "1",
                     "--truth", formula, "--output", str(out)],
        }[command]
        code, stdout, err = run(capsys, *args, "--format", "csv", "--input", str(data))
        outcomes.append((code, stdout, err, out.read_text(encoding="utf-8") if out.exists() else ""))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][2] == ""


@pytest.mark.parametrize("terms, message", [
    ('[{"var": 1, "neg": false}]', "each term must be a list of literals"),
    ("[[1]]", "each literal must be an object"),
])
def test_formula_json_with_malformed_terms_exits_2(tmp_path, capsys, terms, message):
    f = tmp_path / "bad.json"
    f.write_text('{"n": 2, "terms": %s}' % terms, encoding="utf-8")
    code, stdout, err = run(
        capsys, "eval", "--formula", str(f), "--format", "csv", "--input", str(_two_rows(tmp_path)),
    )
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("error, code, prefix", [
    (ParseError("bad"), 2, "error"),
    (ConsistencyAbort("bad"), 3, "inconsistent"),
    (LengthMismatchError("bad"), 1, "error"),
    (ValueError("bad"), 1, "error"),
    (BudgetExceededError("bad"), 1, "error"),
    (TridnfError("bad"), 2, "error"),
    (FileNotFoundError("bad"), 2, "error"),
])
def test_each_error_class_has_one_exit_code(monkeypatch, capsys, error, code, prefix):
    def fail(*_):
        raise error

    # the formula is given inline and its evaluation raises the error
    monkeypatch.setattr(cli, "_read_formula_file", parse_formula)
    monkeypatch.setattr(cli, "evaluate", fail)
    argv = ["eval", "--formula", "x1", "--format", "zoo", "--positive-type", "1"]
    assert run(capsys, *argv) == (code, "", f"{prefix}: bad\n")
    # anything else is a fault of the program, not of its input
    monkeypatch.setattr(cli, "evaluate", lambda *_: {}[0])
    with pytest.raises(KeyError):
        main(argv)
