"""The code-line counter and the engine counter under ``tools/``."""
import importlib.util
from pathlib import Path

from tridnf.learner import _TermEngine

ROOT = Path(__file__).resolve().parents[1]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _tool("code_lines")
engine_counts = _tool("engine_counts")

SNIPPET = '''"""Module docstring,
on two lines."""
# a comment line

import os  # a trailing comment


class A:
    """Class docstring."""

    x = (
        1,

        2,
    )

    def f(self):
        """Function
        docstring."""
        return """a string,
not a docstring"""


async def g():
    'a one-line docstring'
    # a comment in a body
    s = "text"
    "a string statement that is not first"
    return s
'''


def test_counter_skips_comments_docstrings_and_blank_lines():
    # counted: import; class; the four lines of x's tuple that hold a
    # token (not the blank one); def; both lines of the returned string;
    # async def; s; the later string statement; return
    assert code_lines.code_lines(SNIPPET) == 13


def test_counter_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n', encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["13", str(tmp_path / "a.py")], ["1", str(tmp_path / "b.py")], ["14", "total"],
    ]
    assert code_lines.main([]) == 2


def test_engine_counts_of_the_default_sweep(monkeypatch, capsys):
    # one sum per select: a forced pick closes its term unsummed, and a
    # term that picks its last literal by select is not summed again; each
    # learn dilates each of its distinct masks once
    counts = engine_counts.engine_counts()
    assert counts == {
        "learns": 147, "terms": 212, "picks": 509,
        "forced picks at openings": 22, "forced picks after picks": 88,
        "selects": 399, "sums": 399, "sums on an empty rectangle": 0, "pairs summed": 138_287,
        "dilations": 16_719,
    }
    assert engine_counts.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(None, 1) for line in lines] == [[f"{v:,d}", k] for k, v in counts.items()]
    # with no forced pick every pick is selected from a sum
    monkeypatch.setattr(_TermEngine, "_forced", lambda self: None)
    unforced = engine_counts.engine_counts()
    assert (unforced["selects"], unforced["sums"], unforced["pairs summed"]) == (509, 509, 181_450)
    # the README states the same figures
    c, u = counts, unforced
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    assert (
        f"On the default Zoo sweep {c['forced picks at openings']} of {c['terms']} terms close at"
        f" their opening and {c['forced picks after picks']} more after a pick, so"
        f" {c['picks'] - c['selects']} of the {c['picks']} picks are forced, and the term engine"
        f" makes {c['sums']} sums, one per select, over {c['pairs summed']:,d} pairs; summing before"
        f" every pick would take {u['sums']} sums over {u['pairs summed']:,d} pairs."
    ) in text
