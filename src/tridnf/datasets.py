"""Loading and encoding of the bundled animal-classification data, plus a
small ternary CSV format for ad-hoc datasets, whose rows are read and
written through the row codec of :mod:`tridnf.trits`.

The animal file is plain comma-separated text, one animal per line: a name,
fifteen 0/1 attributes, a leg count, and a class code 1..7.  ``encode_zoo``
turns those records into a 20-variable :class:`~tridnf.trits.Dataset` for
one-vs-rest learning: x1..x12 carry the first twelve flags in file order,
x13..x17 one-hot encode the leg count, and x18..x20 carry tail, domestic
and catsize.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import CountWarning, ParseError
from .formula import _clip
from .trits import Dataset, Instance, Label

# File-order attribute names.  "legs" sits between "fins" and "tail" and is
# the only non-binary column.
ZOO_FIELDS = (
    "hair", "feathers", "eggs", "milk", "airborne", "aquatic", "predator",
    "toothed", "backbone", "breathes", "venomous", "fins", "legs", "tail",
    "domestic", "catsize",
)

VALID_LEGS = (0, 2, 4, 5, 6, 8)
DEFAULT_LEGS_ORDER = (8, 6, 5, 4, 2)

EXPECTED_RECORD_COUNT = 101


@dataclass(frozen=True)
class ZooRecord:
    """One animal: name, fifteen 0/1 flags (file order, legs excluded),
    a leg count, and its class code."""

    name: str
    flags: tuple[int, ...]
    legs: int
    kind: int

    def __post_init__(self) -> None:
        if len(self.flags) != 15 or any(f not in (0, 1) for f in self.flags):
            raise ValueError("flags must be fifteen 0/1 values")
        if self.legs not in VALID_LEGS:
            raise ValueError(f"leg count must be one of {VALID_LEGS}, got {self.legs}")
        if not 1 <= self.kind <= 7:
            raise ValueError(f"class code must be 1..7, got {self.kind}")


def read_text(path: str | Path, encoding: str = "utf-8", newline: str | None = None) -> str:
    """The whole text of a file, as ``open`` reads it.

    Bytes that do not decode are a fault of the data, not of the command
    line, so they raise ParseError naming the file.
    """
    try:
        with open(path, encoding=encoding, newline=newline) as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}", where=str(path)) from None


def _parse_natural(token: str, what: str, line_no: int) -> int:
    """A count written in the ASCII digits 0-9; ``int`` alone would also
    take other scripts' digits, ``_`` and a sign."""
    where = f"line {line_no}"
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"{what} must be written in the digits 0-9, got {_clip(token)!r}", where=where)
    try:
        return int(token)
    except ValueError:  # past the int-to-str digit limit
        raise ParseError(f"{what} has too many digits ({len(token)})", where=where) from None


def _parse_binary(token: str, field: str, line_no: int) -> int:
    if token == "0":
        return 0
    if token == "1":
        return 1
    raise ParseError(f"field '{field}' must be 0 or 1, got {_clip(token)!r}", where=f"line {line_no}")


def load_zoo(path: str | Path) -> list[ZooRecord]:
    """Read animal records from ``path``.

    Raises ParseError (with a 1-based line number) on any malformed line
    and warns with CountWarning when the record count is not 101.  A
    leading UTF-8 byte-order mark is not part of the first name.
    """
    text = read_text(path, "utf-8-sig")
    records: list[ZooRecord] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = [part.strip() for part in line.split(",")]
        if len(parts) != 18:
            raise ParseError(
                f"expected 18 comma-separated fields, got {len(parts)}",
                where=f"line {line_no}",
            )
        name = parts[0]
        if not name:
            raise ParseError("empty animal name", where=f"line {line_no}")
        flags: list[int] = []
        legs = 0
        for field, token in zip(ZOO_FIELDS, parts[1:17]):
            if field == "legs":
                legs = _parse_natural(token, "leg count", line_no)
            else:
                flags.append(_parse_binary(token, field, line_no))
        kind = _parse_natural(parts[17], "class code", line_no)
        try:
            records.append(ZooRecord(name=name, flags=tuple(flags), legs=legs, kind=kind))
        except ValueError as exc:  # the record's leg-count and class-code ranges
            raise ParseError(str(exc), where=f"line {line_no}") from None
    if not records:
        raise ParseError("no records found", where=str(path))
    if len(records) != EXPECTED_RECORD_COUNT:
        warnings.warn(
            f"expected {EXPECTED_RECORD_COUNT} records, found {len(records)}",
            CountWarning,
            stacklevel=2,
        )
    return records


def encode_zoo(
    records: list[ZooRecord],
    positive_type: int,
    legs_order: tuple[int, ...] = DEFAULT_LEGS_ORDER,
) -> Dataset:
    """Encode records as a complete 20-variable dataset, animals of class
    ``positive_type`` as positives and everything else as negatives.

    ``legs_order`` fixes which leg count each of x13..x17 stands for; the
    default is descending.  Zero legs encodes as all five bits clear.
    """
    if not 1 <= positive_type <= 7:
        raise ValueError(f"positive_type must be 1..7, got {positive_type}")
    if sorted(legs_order) != sorted(DEFAULT_LEGS_ORDER):
        raise ValueError(
            f"legs_order must be a permutation of (2, 4, 5, 6, 8), got {legs_order!r}"
        )
    full = (1 << 20) - 1
    shifts = tuple(range(12)) + (17, 18, 19)  # bit of each flag, legs skipped
    leg_bit = {count: 1 << (12 + k) for k, count in enumerate(legs_order)}
    positives: list[Instance] = []
    negatives: list[Instance] = []
    for rec in records:
        bits = leg_bit.get(rec.legs, 0)
        for flag, shift in zip(rec.flags, shifts):
            bits |= flag << shift
        if rec.kind == positive_type:
            positives.append(Instance(20, bits, full, Label.POSITIVE, rec.name))
        else:
            negatives.append(Instance(20, bits, full, Label.NEGATIVE, rec.name))
    return Dataset(n=20, positives=tuple(positives), negatives=tuple(negatives))


def bundled_zoo_path() -> Path:
    """Filesystem path of the animal data file shipped with the package."""
    return Path(str(resources.files(__package__).joinpath("data", "zoo.data")))


def save_ternary_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset as CSV: header x1..xn plus ``label``, cells 0/1/?,
    labels + or -.  Each row's cells are the characters of its ``text``,
    which the row codec in :mod:`tridnf.trits` writes.  Instance ids are
    not stored."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"x{k}" for k in range(1, dataset.n + 1)] + ["label"])
        for inst in dataset.instances():
            writer.writerow(list(inst.text) + [inst.label.value])


def load_ternary_csv(path: str | Path) -> Dataset:
    """Read a dataset written by :func:`save_ternary_csv`.

    The header fixes the variable count; every data row needs one cell per
    variable, each exactly ``0``, ``1`` or ``?``, plus a +/- label.  A row's
    cells are tested together, and only a row that fails is scanned for the
    first bad cell, named by line and column; a good row's joined cells go
    to the row codec in :mod:`tridnf.trits`.  Rows are assigned ids r1, r2,
    ... in file order.
    """
    reader = csv.reader(io.StringIO(read_text(path, "utf-8-sig", newline=""), newline=""))
    try:
        # (file line number, cells) of every row that is not blank
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    except csv.Error as exc:
        # such as a cell longer than csv's field size limit
        raise ParseError(str(exc), where=f"line {reader.line_num}") from None
    if not rows:
        raise ParseError("no header row found", where=str(path))
    header_line, header = rows[0][0], [cell.strip() for cell in rows[0][1]]
    if len(header) < 2 or header[-1] != "label":
        raise ParseError(
            "header must list variable columns then 'label'", where=f"line {header_line}"
        )
    n = len(header) - 1
    expected = [f"x{k}" for k in range(1, n + 1)]
    if header[:-1] != expected:
        raise ParseError(
            f"variable columns must be x1..x{n} in order", where=f"line {header_line}"
        )
    positives: list[Instance] = []
    negatives: list[Instance] = []
    for index, (line_no, row) in enumerate(rows[1:], start=1):
        *cells, label_token = map(str.strip, row)
        if len(cells) != n:
            raise ParseError(
                f"expected {n + 1} columns, got {len(cells) + 1}", where=f"line {line_no}"
            )
        if label_token not in ("+", "-"):
            raise ParseError(
                f"label must be '+' or '-', got {_clip(label_token)!r}",
                where=f"line {line_no}",
            )
        label = Label.POSITIVE if label_token == "+" else Label.NEGATIVE
        if not set(cells) <= {"0", "1", "?"}:
            # the first cell that is not a single symbol, named where it sits
            column, cell = next((c, cell) for c, cell in enumerate(cells, 1) if cell not in ("0", "1", "?"))
            raise ParseError(
                f"cell must be '0', '1' or '?', got {_clip(cell)!r}",
                where=f"line {line_no}, column {column}",
            )
        inst = Instance.from_cells("".join(cells), label, id=f"r{index}")
        (positives if label is Label.POSITIVE else negatives).append(inst)
    if not positives and not negatives:
        raise ParseError("no data rows found", where=str(path))
    return Dataset(n=n, positives=tuple(positives), negatives=tuple(negatives))
