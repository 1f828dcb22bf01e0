"""The README's python examples run, and print what their comments say.

Every ```python block of README.md runs, in order, each in a fresh
namespace. A top-level expression with a trailing comment is evaluated,
and the comment must open with the value: a Fraction as its repr, a
tuple as its items' exact text, anything else as its repr.
"""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _shown(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(map(str, value)) + ")"
    return repr(value)


def _run(block: str) -> dict[str, str]:
    """Run block; {expression: comment} for each commented expression,
    after checking that the comment opens with the expression's value."""
    lines = block.splitlines()
    namespace: dict = {}
    checked = {}
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        line = lines[stmt.end_lineno - 1]
        _, hash_, comment = line[stmt.end_col_offset :].partition("#")
        if not (isinstance(stmt, ast.Expr) and hash_):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        shown, comment = _shown(eval(source, namespace)), comment.strip()
        assert re.match(rf"{re.escape(shown)}(?![\w/])", comment), (source, shown, comment)
        checked[source] = comment
    return checked


def test_every_python_block_runs_and_its_comments_hold(capsys):
    checked = {}
    for block in _blocks():
        checked.update(_run(block))
    assert checked["report.failed_condition"] == "'dual_moment_2'"
    assert checked["pair.c.outcomes"] == "(5/6, 7/3, 23/6)"
    assert checked["pair.d.outcomes"] == "(7/6, 5/3, 25/6)"
    assert checked["preference_direction(pair, DualPower(3))"].startswith("1:")
    assert checked["portfolio_value(pp, None, DualPower(2))"] == "Fraction(-1, 4)"
    assert checked["portfolio_value(pp, menu, DualPower(2))"] == "Fraction(0, 1)"
    assert checked["dt_value(a, Quadratic(1))"] == "Fraction(25, 12)"
    assert checked["primal_sd_check(a, b, 3).holds"].startswith("True")
    assert checked["report.holds"] == "False"
    assert len(checked) == 12
    assert "5 5 direct ()" in capsys.readouterr().out


def test_a_wrong_comment_fails():
    with pytest.raises(AssertionError):
        _run("from fractions import Fraction\nFraction(1, 2)  # Fraction(1, 3)\n")
