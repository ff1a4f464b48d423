"""Every subcommand driven with drawn flag values on tiny files: each run
ends with a documented exit code and no traceback, a flag outside its
documented range is refused with exit 1 by a message that names it, and a
run that succeeds had every flag in range.  A long drawn token, wherever
it stands (in a flag, as a file name, or in a CSV cell or label), leaves a
short last line of stderr."""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tridnf import Dataset, save_ternary_csv
from tridnf.cli import main

# one animal of each class 1..7, from the bundled data
ZOO = """\
aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1
chicken,0,1,1,0,1,0,0,0,1,1,0,0,2,1,1,0,2
pitviper,0,0,1,0,0,0,1,1,1,1,1,0,0,1,0,0,3
bass,0,0,1,0,0,1,1,1,1,0,0,1,0,1,0,0,4
frog,0,0,1,0,0,1,1,1,1,1,0,0,4,0,0,0,5
flea,0,0,1,0,0,0,0,0,0,1,0,0,6,0,0,0,6
clam,0,0,1,0,0,0,1,0,0,0,0,0,0,0,0,0,7
"""

# tokens no integer or fraction flag accepts
JUNK = ("", " ", "x", "1.5x", "1e3", "0x10", "nan", "inf", "\u0663", "1_0", "\uff11")


def _ints(low, high=None):
    """(token, in range) for an integer flag whose range is [low, high]."""
    near = [st.integers(low - 3, low + 10), st.integers(-(1 << 70), 1 << 70)]
    if high is not None:
        near.append(st.integers(high - 2, high + 2))
    return st.one_of(
        st.one_of(near).map(lambda v: (str(v), low <= v and (high is None or v <= high))),
        st.sampled_from(JUNK).map(lambda token: (token, False)),
    )


def _as_read(value):
    """A bare value above 1 is read as a percentage (README, Masking)."""
    return value / 100 if value > 1 else value


FRACTIONS = st.one_of(
    st.integers(-10, 120).map(lambda k: (f"{k}%", Fraction(k, 100))),
    st.tuples(st.integers(-5, 300), st.integers(0, 20)).map(
        lambda ab: (f"{ab[0]}/{ab[1]}", _as_read(Fraction(*ab)) if ab[1] else None)
    ),
    st.integers(0, 999).map(lambda m: (f"0.{m:03d}", Fraction(m, 1000))),
    st.integers(-5, 200).map(lambda k: (str(k), _as_read(Fraction(k)))),
    st.sampled_from(JUNK + ("%", "1/0", "3E-1")).map(lambda token: (token, None)),
).map(lambda tv: (tv[0], tv[1] is not None and 0 <= tv[1] <= Fraction(1, 2)))

MODES = st.sampled_from([("random", True), ("trustworthy", True), ("", False), ("Random", False)])

ENCODINGS = st.one_of(
    st.permutations([2, 4, 5, 6, 8]),
    st.lists(st.sampled_from([0, 2, 4, 5, 6, 8, 9]), max_size=6),
).map(lambda order: (",".join(map(str, order)), sorted(order) == [2, 4, 5, 6, 8]))

SEEDS = _ints(0, (1 << 64) - 1)
TYPES = _ints(1, 7)

# per subcommand, the drawn flags: flag -> strategy of (token, in range)
FLAGS = {
    "learn": {"--positive-type": TYPES, "--encoding": ENCODINGS},
    "mask": {"--positive-type": TYPES, "--mode": MODES, "--fraction": FRACTIONS, "--seed": SEEDS},
    "eval": {"--positive-type": TYPES, "--encoding": ENCODINGS},
    "verify": {"--budget": _ints(1), "--max-literals": _ints(0)},
    # one class, one mode and one fraction keep each run to a few learns
    "experiment": {
        "--types": TYPES, "--modes": MODES, "--fractions": FRACTIONS,
        "--seeds": SEEDS, "--encoding": ENCODINGS,
    },
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "zoo.data").write_text(ZOO, encoding="utf-8")
    save_ternary_csv(Dataset.from_texts(["11", "1?"], ["00"]), root / "rows.csv")
    (root / "f.txt").write_text("x1\n", encoding="utf-8")
    return root


def _fixed(command, root):
    zoo = ["--format", "zoo", "--input", str(root / "zoo.data")]
    return {
        "learn": ["learn", *zoo, "--output", str(root / "out.txt")],
        "mask": ["mask", *zoo, "--output", str(root / "m.csv")],
        "eval": ["eval", "--formula", str(root / "f.txt"), *zoo],
        "verify": ["verify", "--formula", str(root / "f.txt"), "--format", "csv",
                   "--input", str(root / "rows.csv"), "--exhaustive-min"],
        "experiment": ["experiment", "--dataset", str(root / "zoo.data"),
                       "--report", str(root / "r.txt")],
    }[command]


def _main(argv):
    """Exit code and stderr of one run; any other exception propagates."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, err.getvalue()


@pytest.mark.parametrize("command", list(FLAGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_holds_every_flag_to_its_range(files, command, data):
    drawn = {flag: data.draw(strategy, label=flag) for flag, strategy in FLAGS[command].items()}
    if "--encoding" in drawn and data.draw(st.booleans(), label="omit --encoding"):
        del drawn["--encoding"]
    argv = _fixed(command, files)
    for flag, (token, _) in drawn.items():
        argv += [flag, token]
    if command == "mask" and drawn["--mode"][0] == "trustworthy":
        argv += ["--truth", "x1"]  # required there, and refused in random mode
    code, err = _main(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err, err
    bad = [flag for flag, (_, ok) in drawn.items() if not ok]
    if code == 0:
        assert not bad, err
    if bad:
        assert code == 1 and any(f"argument {flag}:" in err for flag in bad), err


# 5,000 characters from those that shells and argparse treat apart, a
# drawn piece repeated; with no digit or comma, no flag takes it as a value
LONG = st.text(alphabet=" '\"\\=-hx", min_size=1, max_size=12).map(lambda piece: (piece * 5000)[:5000])

# per subcommand, the flags that name a file
PATHS = {
    "learn": ["--input", "--output", "--trace"],
    "mask": ["--input", "--output"],
    "eval": ["--formula", "--input"],
    "verify": ["--formula", "--input"],
    "experiment": ["--dataset", "--report"],
}

# a CSV input with the token as a data cell, a label or a column name
CSV = {"cell": "x1,label\n{},+\n", "label": "x1,label\n1,{}\n", "column": "{},label\n1,+\n"}


@pytest.mark.parametrize("command", list(FLAGS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_shows_a_long_token_clipped(files, command, data):
    token = data.draw(LONG, label="token")
    flag = data.draw(st.sampled_from([*FLAGS[command], "--json", *PATHS[command]]), label="flag")
    csv = CSV if "--input" in PATHS[command] else {}
    place = data.draw(st.sampled_from(["bare", "value", "joined", "abbreviated", "short", *csv]), label="place")
    argv = _fixed(command, files)
    if place in CSV:
        rows = files / "long.csv"
        rows.write_text(CSV[place].format(token), encoding="utf-8")
        argv += ["--format", "csv", "--input", str(rows)]
    else:
        argv += {
            "bare": [token], "value": [flag, token], "joined": [f"{flag}={token}"],
            "abbreviated": [f"--p={token}"], "short": [f"-h{token}"],
        }[place]
    code, err = _main(argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err, err[-300:]
    assert not err or len(err.splitlines()[-1].encode()) < 300, err[-300:]
