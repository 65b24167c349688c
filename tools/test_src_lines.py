"""src_lines.code_lines on small sources, and the working tree's totals and module lines."""

import re

from src_lines import ROOT, SRC, code_lines, count, main

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts as code

# a comment line


def f(x,
      y):
    """A docstring."""
    text = """a string that
    is not a docstring"""
    return (x +
            y)


class C:
    "a one-line docstring"
    z = 1
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import; def over two lines; the assigned string over two; return over two; class; z = 1
    assert code_lines(SOURCE) == 1 + 2 + 2 + 2 + 1 + 1


def test_code_lines_of_a_source_without_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_working_tree_totals_add_up_over_the_files():
    files = sorted((ROOT / SRC).glob("*.py"))
    total, code = count()
    assert total == sum(len(p.read_text().splitlines()) for p in files)
    assert code == sum(code_lines(p.read_text()) for p in files)
    assert 0 < code < total


def test_module_lines_add_up_to_the_total_line(capsys):
    main([])
    first, *modules = capsys.readouterr().out.splitlines()
    head = re.fullmatch(rf"{SRC}/\*\.py: (\d+) lines, (\d+) code lines", first)
    rows = [re.fullmatch(r"- (\w+\.py): (\d+) lines, (\d+) code lines", line).groups()
            for line in modules]
    assert [name for name, _, _ in rows] == sorted(p.name for p in (ROOT / SRC).glob("*.py"))
    sums = [sum(int(row[k]) for row in rows) for k in (1, 2)]
    assert sums == [int(head[1]), int(head[2])] == list(count())
