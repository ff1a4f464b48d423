"""The README's Library API example runs and shows what it prints, and
every name the package exports resolves."""

import ast
import io
import re
import tokenize
from pathlib import Path

import tridnf

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_api_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library API\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def _shown_value(comment: str):
    """The literal a comment opens with (``# 'x2'``, ``# 1: ...``) as a
    1-tuple, or None when it opens with prose."""
    token = next(tokenize.generate_tokens(io.StringIO(comment.lstrip("# ")).readline))
    try:
        return (ast.literal_eval(token.string),)
    except (ValueError, SyntaxError):
        return None


def test_library_api_example_shows_its_values():
    source = _library_api_block()
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        shown = _shown_value(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and shown is not None:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            if shown is None:
                continue
            value = namespace[stmt.targets[0].id]  # an assignment shows the value it binds
        assert (type(value), value) == (type(shown[0]), shown[0]), ast.unparse(stmt)
        checked.append(shown[0])
    assert checked == ["x2", 1, '{"n": 5, "terms": [[{"var": 2, "neg": false}]]}', True]


def test_every_exported_name_resolves():
    # ``from tridnf import *`` reads ``__all__``: a name it lists that the
    # package lacks breaks that import
    assert [name for name in tridnf.__all__ if not hasattr(tridnf, name)] == []
