"""``tools/code_lines.py`` counts non-blank, non-comment, non-docstring
lines; a multi-line string that is not a docstring counts every line."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment still leaves code

# a comment line


def f(x):
    """One-line docstring."""
    sql = """
        SELECT 1
    """
    return x + 1


class C:
    """Class docstring
    over three
    lines."""

    y = 2
    "a bare string that is not first is code"
'''


def test_counts_fixture():
    # import, def, the three lines of sql, return, class, y, bare string
    assert code_lines.count_code_lines(FIXTURE) == 9


def test_blank_and_comment_only_source():
    assert code_lines.count_code_lines("\n\n# only a comment\n") == 0
