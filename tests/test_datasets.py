"""Zoo file handling, the one-hot encoding, and ternary CSV round-trips."""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tridnf
from tridnf import (
    CountWarning,
    Dataset,
    Instance,
    Label,
    ParseError,
    bundled_zoo_path,
    encode_zoo,
    load_ternary_csv,
    load_zoo,
    save_ternary_csv,
    Trit,
    ZooRecord,
)
from tridnf.datasets import DEFAULT_LEGS_ORDER, EXPECTED_RECORD_COUNT, VALID_LEGS


def test_bundled_file_loads_complete(zoo_records):
    assert bundled_zoo_path().exists()
    assert len(zoo_records) == EXPECTED_RECORD_COUNT == 101
    counts = Counter(r.kind for r in zoo_records)
    assert counts == {1: 41, 2: 20, 3: 5, 4: 13, 5: 4, 6: 8, 7: 10}


def test_bundled_file_keeps_known_quirks(zoo_records):
    # the animal name is not a key: two distinct frog rows
    frogs = [r for r in zoo_records if r.name == "frog"]
    assert len(frogs) == 2
    assert frogs[0] != frogs[1]
    # two insects share every attribute value
    flea = next(r for r in zoo_records if r.name == "flea")
    termite = next(r for r in zoo_records if r.name == "termite")
    assert (flea.flags, flea.legs, flea.kind) == (termite.flags, termite.legs, termite.kind)


def test_encode_zoo_layout(zoo_records):
    d = encode_zoo(zoo_records, 1)
    assert (d.n, d.p, d.q) == (20, 41, 60)
    aardvark = d.positives[0]
    assert aardvark.id == "aardvark"
    assert aardvark.text == "10010011110000010001"
    assert aardvark.label is Label.POSITIVE
    # legs one-hot: at most one of x13..x17; zero slots means zero legs
    legged = {r.name for r in zoo_records if r.legs != 0}
    for inst in d.instances():
        hot = sum(int(c) // 2 for c in inst.cells[12:17])
        assert hot == (1 if inst.id in legged else 0)


def test_encode_zoo_positive_class_selection(zoo_records):
    for kind in range(1, 8):
        d = encode_zoo(zoo_records, kind)
        assert d.p == sum(1 for r in zoo_records if r.kind == kind)
        assert d.p + d.q == 101


def test_encode_zoo_legs_order(zoo_records):
    d = encode_zoo(zoo_records, 1, legs_order=(2, 4, 5, 6, 8))
    aardvark = d.positives[0]  # legs=4 lands on the second slot now
    assert aardvark.text[12:17] == "01000"
    assert DEFAULT_LEGS_ORDER == (8, 6, 5, 4, 2)
    with pytest.raises(ValueError):
        encode_zoo(zoo_records, 1, legs_order=(8, 6, 5, 4, 4))


def encode_by_cells(records, positive_type, legs_order):
    """One Trit per cell through Instance.from_cells."""
    positives, negatives = [], []
    for rec in records:
        cells = list(rec.flags[:12])
        cells.extend(1 if rec.legs == count else 0 for count in legs_order)
        cells.extend(rec.flags[12:])
        label = Label.POSITIVE if rec.kind == positive_type else Label.NEGATIVE
        inst = Instance.from_cells([Trit.TRUE if c else Trit.FALSE for c in cells], label, rec.name)
        (positives if label is Label.POSITIVE else negatives).append(inst)
    return Dataset(20, tuple(positives), tuple(negatives))


@pytest.mark.parametrize("legs_order", [DEFAULT_LEGS_ORDER, (5, 2, 8, 4, 6)])
def test_encode_zoo_equals_the_cell_by_cell_encoding(zoo_records, legs_order):
    for kind in range(1, 8):
        assert encode_zoo(zoo_records, kind, legs_order) == encode_by_cells(
            zoo_records, kind, legs_order
        )


def test_encode_zoo_rejects_unknown_type(zoo_records):
    with pytest.raises(ValueError):
        encode_zoo(zoo_records, 8)


def test_load_zoo_rejects_bad_rows(tmp_path):
    bad = tmp_path / "zoo.data"
    bad.write_text("aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CountWarning)
            load_zoo(bad)
    assert "line 1" in str(err.value)

    bad.write_text("newt,0,0,1,0,0,1,1,1,1,1,0,0,3,1,0,0,5\n", encoding="utf-8")
    with pytest.raises(ParseError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CountWarning)
            load_zoo(bad)


_AARDVARK = ["aardvark", *"1,0,0,1,0,0,1,1,1,1,0,0".split(","), "4", "0", "0", "1", "1"]


@pytest.mark.parametrize("column, token", [
    (13, "\u0664"), (13, "+4"), (13, "0_4"), pytest.param(13, "4" * 5000, id="13-overlong"),
    (17, "\u0661"), (17, "+1"), (17, "0_1"),
])
def test_load_zoo_counts_take_only_ascii_digits(tmp_path, column, token):
    # int() alone reads the Arabic-Indic four as 4, and takes "+4" and "0_4"
    fields = list(_AARDVARK)
    fields[column] = token
    bad = tmp_path / "zoo.data"
    bad.write_text(",".join(fields) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_zoo(bad)
    assert err.value.where == "line 1"
    assert (repr(token) if len(token) < 10 else "too many digits") in str(err.value)


def test_load_zoo_counts_keep_leading_zeros(tmp_path):
    fields = list(_AARDVARK)
    fields[13], fields[17] = "04", "01"
    path = tmp_path / "zoo.data"
    path.write_text(",".join(fields) + "\n", encoding="utf-8")
    with pytest.warns(CountWarning):
        (record,) = load_zoo(path)
    assert (record.legs, record.kind) == (4, 1)


def test_load_zoo_warns_on_wrong_count(tmp_path):
    short = tmp_path / "zoo.data"
    short.write_text(
        "aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1\n"
        "\n"
        "bass,0,0,1,0,0,1,1,1,1,0,0,1,0,1,0,0,4\n",
        encoding="utf-8",
    )
    with pytest.warns(CountWarning):
        records = load_zoo(short)
    assert [r.name for r in records] == ["aardvark", "bass"]

    empty = tmp_path / "empty.data"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ParseError):
        load_zoo(empty)


@pytest.mark.parametrize("flags, legs, kind, message", [
    ((0,) * 14, 4, 1, "flags must be fifteen 0/1 values"),
    ((0,) * 14 + (2,), 4, 1, "flags must be fifteen 0/1 values"),
    ((0,) * 15, 3, 1, "leg count must be one of (0, 2, 4, 5, 6, 8), got 3"),
    ((0,) * 15, 4, 8, "class code must be 1..7, got 8"),
])
def test_zoo_record_checks_its_fields(flags, legs, kind, message):
    with pytest.raises(ValueError) as err:
        ZooRecord("aardvark", flags, legs, kind)
    assert str(err.value) == message


def test_valid_legs_values():
    assert VALID_LEGS == (0, 2, 4, 5, 6, 8)


def test_csv_round_trip(tmp_path):
    d = Dataset.from_texts(["1?0", "011"], ["00?"])
    path = tmp_path / "rows.csv"
    save_ternary_csv(d, path)
    again = load_ternary_csv(path)
    assert again.n == 3
    assert [i.text for i in again.positives] == ["1?0", "011"]
    assert [i.text for i in again.negatives] == ["00?"]
    # loading assigns positional row ids
    assert [i.id for i in again.instances()] == ["r1", "r2", "r3"]


_WIDE_ROUND_TRIP = """
import json, random, sys
from tridnf import Dataset, Instance, Label, load_ternary_csv, save_ternary_csv

n, half = 320, 10_000
rng = random.Random(9)
full = (1 << n) - 1


def row(label):
    known = full & ~(rng.getrandbits(n) & rng.getrandbits(n))  # a quarter masked
    return Instance(n, rng.getrandbits(n) & known, known, label)


d = Dataset(n, tuple(row(Label.POSITIVE) for _ in range(half)), tuple(row(Label.NEGATIVE) for _ in range(half)))
save_ternary_csv(d, sys.argv[1])
again = load_ternary_csv(sys.argv[1])
print(json.dumps({
    "equal": [(i.value_bits, i.known_bits, i.label) for i in again.instances()]
    == [(i.value_bits, i.known_bits, i.label) for i in d.instances()],
    "shape": [again.n, again.p, again.q],
    "unknowns": d.unknown_count,
}))
"""


def test_wide_csv_round_trip_takes_seconds(tmp_path):
    # 20,000 rows of 320 cells, a 12.9-MB file: written and read back in
    # 1.5-2.1 s on 2 shared vCPUs, where a Trit per cell took about 15 s
    src = str(Path(tridnf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WIDE_ROUND_TRIP, str(tmp_path / "wide.csv")],
        env=env, capture_output=True, text=True, timeout=8,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["equal"] and out["shape"] == [320, 10_000, 10_000]
    assert 0.2 < out["unknowns"] / (320 * 20_000) < 0.3


def test_csv_with_bom_and_crlf_loads_like_the_plain_file(tmp_path):
    lines = ["x1,x2,x3,label", "1,?,0,+", "0,1,1,+", "0,0,?,-"]
    plain = tmp_path / "plain.csv"
    plain.write_bytes("\n".join(lines).encode() + b"\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode() + b"\r\n")
    assert load_ternary_csv(marked) == load_ternary_csv(plain)


def test_zoo_file_with_bom_loads_like_the_bundled_file(tmp_path, zoo_records):
    # the mark is not part of the first animal's name, aardvark
    marked = tmp_path / "zoo.data"
    marked.write_bytes(b"\xef\xbb\xbf" + bundled_zoo_path().read_bytes())
    assert load_zoo(marked) == zoo_records
    assert zoo_records[0].name == "aardvark"


def test_csv_header_is_enforced(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("a,b,label\n1,0,+\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ternary_csv(path)
    path.write_text("x1,x2\n1,0\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ternary_csv(path)


def test_csv_rejects_bad_cells_with_line_numbers(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2,label\n1,2,+\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_ternary_csv(path)
    assert "line 2" in str(err.value)
    path.write_text("x1,x2,label\n1,0,yes\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_ternary_csv(path)


@pytest.mark.parametrize("row, column", [
    (",11,+", 1), ("1,,+", 2), ("1,01,+", 2), ("1,??,-", 2), ("x,1,+", 1),
])
def test_csv_cells_are_single_symbols(tmp_path, row, column):
    # cells are not joined and re-split, so a missing or doubled cell is
    # named where it sits in the file, blank lines counted
    path = tmp_path / "rows.csv"
    path.write_text(f"x1,x2,label\n0,1,-\n\n{row}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_ternary_csv(path)
    assert err.value.where == f"line 4, column {column}"


def test_csv_mask_cells_spell_unknown(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("x1,x2,label\n?,1,+\n1,?,-\n", encoding="utf-8")
    d = load_ternary_csv(path)
    assert d.positives[0].text == "?1"
    assert d.negatives[0].text == "1?"


# text shaped like a ternary CSV, sometimes after a header or a valid
# animal line so that the loaders get past their first checks
_CSV_SHAPED = st.tuples(
    st.sampled_from(["", "x1,label\n", "x1,x2,label\r\n", "\ufeffx1,label\n",
                     "aardvark,1,0,0,1,0,0,1,1,1,1,0,0,4,0,0,1,1\n"]),
    st.text(st.sampled_from(list("01?+-,\r\n") + ["\ufeff"]), max_size=60),
).map(lambda parts: "".join(parts).encode("utf-8"))


@pytest.mark.parametrize("load", [load_ternary_csv, load_zoo])
@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=80), _CSV_SHAPED))
def test_loaders_return_or_raise_parse_error(load, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data"
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CountWarning)
            try:
                load(path)
            except ParseError:
                pass
