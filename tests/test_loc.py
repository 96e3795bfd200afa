"""The code-line counter of ``tools/loc.py`` skips blank lines, comments
and docstrings, and counts every line a statement spans."""

import importlib.util
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "loc.py")

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


def f(x):
    """One-line docstring."""
    # a comment line
    y = [
        x,
    ]
    "a string statement that is not a docstring"
    return y


class C:
    """Class docstring."""

    z = """a string value
    over two lines"""
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_an_inline_source():
    # import, def, the three lines of y, the string statement, return,
    # class, and the two lines of z
    assert load_tool().code_lines(SOURCE) == 10


def test_the_command_line_counts_a_file(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    out = subprocess.run([sys.executable, TOOL, str(path)], capture_output=True, text=True, check=True).stdout
    assert out.split()[0] == "10"
