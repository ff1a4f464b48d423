"""The code-line counter under ``tools/``."""
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

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
