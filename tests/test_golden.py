"""Characterization ("golden master") test: the digests of what the
package outputs on a fixed set of inputs, compared with the digests in
``tests/golden/manifest.json``.

Each dataset case is one seeded random ternary dataset, learned traced,
untraced and by ``oracle.reference_learn``; its digest covers the formula
(text and JSON), the trace, the final rows (text, label, id) and the
iteration count, or every detail of an abort.  The sweep case is the
default ``tridnf experiment`` grid's text report and runs CSV, with the
timing column blanked.

A change that alters any of these outputs on purpose rewrites the
manifest with

    PYTHONPATH=src python tests/test_golden.py

and lists every case whose digest changed, and why, in CHANGES.md.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from tridnf import ConsistencyAbort, Dataset, Instance, Label, LearnerConfig, learn
from tridnf import bundled_zoo_path, load_zoo, run_experiment
from tridnf.cli import build_parser
from tridnf.oracle import reference_learn

MANIFEST = Path(__file__).parent / "golden" / "manifest.json"
DATASET_CASES = 1000
BATCH = 100  # dataset cases per test
# cell alphabets: certain only, mostly unknown, mostly zero, and balanced
ALPHABETS = ("01", "01?", "0?1??", "0001?", "011?", "?")
ROW_IDS = ("a", "b", "zebra", "u1", "v2")  # clashing and repeated on purpose


def golden_dataset(seed: int) -> Dataset:
    """Dataset ``seed``: width 1-6, up to 15 rows per class and at least
    one row in all, about half of them without an id.  Drawn with ``getrandbits``,
    ``choice`` and ``random`` only, whose streams are the same on every
    supported Python."""
    rng = random.Random(seed)
    n = rng.choice(range(1, 7))
    alphabet = rng.choice(ALPHABETS)
    classes = []
    for label in (Label.POSITIVE, Label.NEGATIVE):
        rows, count = [], rng.getrandbits(4)
        if label is Label.NEGATIVE and not classes[0]:
            count = max(count, 1)
        for _ in range(count):
            text = "".join(rng.choice(alphabet) for _ in range(n))
            row_id = "" if rng.random() < 0.5 else rng.choice(ROW_IDS)
            rows.append(Instance.from_cells(text, label, row_id))
        classes.append(tuple(rows))
    return Dataset(n, *classes)


def _outcome(run, d: Dataset) -> list:
    try:
        result = run(d)
    except ConsistencyAbort as abort:
        return ["abort", str(abort), abort.reason, abort.pairs, abort.instance_id, abort.term, abort.trace]
    rows = [[inst.text, str(inst.label), inst.id] for inst in result.dataset.instances()]
    formula = result.formula
    return ["ok", formula.render(), formula.to_json(), result.trace, rows, result.iterations]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def dataset_digest(seed: int) -> str:
    d = golden_dataset(seed)
    runs = (lambda d: learn(d, LearnerConfig(trace=True)), learn, reference_learn)
    return _digest([_outcome(run, d) for run in runs])


def sweep_digest() -> str:
    args = build_parser().parse_args(["experiment", "--report", "unused"])
    report = run_experiment(
        load_zoo(bundled_zoo_path()), args.types, args.fractions, args.modes, args.seeds,
        legs_order=args.encoding,
    )
    rows = report.csv_rows()
    seconds = rows[0].index("seconds")
    for row in rows[1:]:
        row[seconds] = ""
    return _digest([report.render_text(), rows])


def digests(first: int, stop: int) -> dict[str, str]:
    return {f"dataset-{seed:04d}": dataset_digest(seed) for seed in range(first, stop)}


def record() -> dict[str, str]:
    manifest = digests(0, DATASET_CASES)
    manifest["sweep"] = sweep_digest()
    return manifest


@pytest.fixture(scope="module")
def manifest() -> dict[str, str]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def test_manifest_names_every_case(manifest):
    assert set(manifest) == {f"dataset-{seed:04d}" for seed in range(DATASET_CASES)} | {"sweep"}


@pytest.mark.parametrize("first", range(0, DATASET_CASES, BATCH))
def test_dataset_cases(manifest, first):
    got = digests(first, first + BATCH)
    assert got == {name: manifest[name] for name in got}


def test_sweep_case(manifest):
    assert sweep_digest() == manifest["sweep"]


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
