"""Command-line behavior: outputs, file products, exit codes."""

import json

import pytest

from tridnf import Dataset, load_ternary_csv, save_ternary_csv
from tridnf.cli import main


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
    argv = _dataset_command(
        command, tmp_path, "--format", "csv", "--input", str(data), "--encoding", "9,9"
    )
    code, err = refused(capsys, *argv)
    assert code == 1 and "--encoding" in err


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


@pytest.mark.parametrize("flag, value", [
    ("--fraction", "x"), ("--fraction", "0.9"), ("--encoding", "9,9"),
])
def test_mask_flag_errors_name_the_flag(tmp_path, capsys, flag, value):
    argv = ["mask", "--format", "zoo", "--positive-type", "1", "--mode", "random",
            "--fraction", "10%", "--seed", "1", "--output", str(tmp_path / "m.csv")]
    code, err = refused(capsys, *argv, flag, value)
    assert code == 1 and f"argument {flag}:" in err and "Fraction(" not in err
