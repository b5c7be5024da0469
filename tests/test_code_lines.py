"""``tests/code_lines.py`` counts code lines: not blank, not a comment, not
part of a docstring."""

from code_lines import code_lines

SAMPLE = '''"""A module docstring
over two lines."""

import sys  # a trailing comment keeps its line


# a comment line
def f(x):
    """f's docstring."""
    s = "a string that is no docstring"
    return x, s, sys


class C:
    """C's docstring."""

    y = 1
'''


def test_counts_only_code_lines():
    # import, def, s =, return, class, y =
    assert code_lines(SAMPLE) == 6
