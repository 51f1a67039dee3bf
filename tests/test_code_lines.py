"""The code-line counter, ``tests/code_lines.py``, on a fixed snippet."""
import code_lines

SNIPPET = '''"""Module docstring,
over two lines."""
import os  # code with a trailing comment


# a comment line
def f(a,
      b):
    """Function docstring."""
    s = """a string
that is no docstring"""
    return s + os.sep

class C:
    """Class docstring."""

    x = 1
'''


def test_counts_code_lines_only(tmp_path, capsys):
    # the import, the def's two lines, the string's two, the return, the
    # class line and x = 1
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SNIPPET)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     8  pkg/mod.py\n     8  total\n"
