"""Self-test of the benchmark, in seconds:

    python3 -m unittest discover -s bench -p "test_*.py"

It runs every workload in tiny mode, timed and traced, with every output
check; shows that each workload's check rejects a wrong formula; and shows
that the harness refuses to run where the program's source is missing.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from tridnf.formula import DnfFormula, Term  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def tiny(name: str, trace: int) -> dict:
    done = run_bench("--workload", name, "--tiny", "--seed", "3", "--trace", str(trace))
    if done.returncode != 0:
        raise AssertionError(done.stderr)
    return json.loads(done.stdout.splitlines()[-1])


def literal_dropped(formula: DnfFormula):
    """Every formula that has exactly one literal fewer than ``formula``."""
    for t, term in enumerate(formula.terms):
        for k in range(len(term.literals)):
            literals = term.literals[:k] + term.literals[k + 1:]
            terms = formula.terms[:t] + (Term(literals),) + formula.terms[t + 1:]
            yield DnfFormula(formula.n, terms)


class TinyRuns(unittest.TestCase):
    def test_every_workload_timed_and_traced(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS))
        for name in workloads.WORKLOADS:
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = tiny(name, trace)
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[listed]}
                    got = {metric: m["unit"] for metric, m in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_traced_counts_repeat_exactly(self):
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                first, second = (tiny(name, 1)["metrics"] for _ in range(2))
                self.assertEqual({c: first[c] for c in counts}, {c: second[c] for c in counts})
                self.assertGreater(first["learner.pairs"]["value"], 0)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = run_bench("--workload", "random-certain", "--tiny", cwd=bare,
                             script=Path(bare) / HERE.name / "run.py")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class ChecksRejectWrongFormulas(unittest.TestCase):
    def prepared(self, cls):
        workload = cls(3, tiny=True)
        workload.prepare()
        out = workload.op(0)
        self.assertEqual(workload.check(0, out), [])
        return workload, out

    def test_random_certain(self):
        workload, out = self.prepared(workloads.RandomCertain)
        for wrong in literal_dropped(out.formula):
            self.assertTrue(workload.check(0, dataclasses.replace(out, formula=wrong)))

    def test_planted_masked(self):
        workload, out = self.prepared(workloads.PlantedMasked)
        rejected = [bool(workload.check(0, dataclasses.replace(out, formula=wrong)))
                    for wrong in literal_dropped(out.formula)]
        self.assertTrue(any(rejected))

    def test_zoo_sweep(self):
        workload, report = self.prepared(workloads.ZooSweep)

        def with_cell(index, **changes):
            runs = list(report.runs)
            runs[index] = dataclasses.replace(runs[index], **changes)
            return dataclasses.replace(report, runs=tuple(runs))

        for index, run in enumerate(report.runs):
            if run.fraction == 0:
                for wrong in literal_dropped(run.formula):
                    self.assertTrue(workload.check(0, with_cell(index, formula=wrong)))
            self.assertTrue(workload.check(0, with_cell(index, errors=run.errors + 1)))
        masked = [i for i, run in enumerate(report.runs) if run.fraction]
        self.assertTrue(any(
            workload.check(0, with_cell(i, formula=wrong))
            for i in masked for wrong in literal_dropped(report.runs[i].formula)
        ))


if __name__ == "__main__":
    unittest.main()
