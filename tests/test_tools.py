"""`tools/loc.py` counts the lines the line-count rule names: code only leaves
out blanks, comments and docstrings."""

import importlib.util
from pathlib import Path

LOC = Path(__file__).resolve().parent.parent / "tools" / "loc.py"


def _load_loc():
    spec = importlib.util.spec_from_file_location("tools_loc", LOC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module
docstring."""

# a comment
X = 1  # code with a comment


class C:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """a string
        that is code"""
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    loc = _load_loc()
    assert loc.docstring_lines(SOURCE) == {1, 2, 9, 12, 13}
    assert loc.code_lines(SOURCE) == 5  # X, class, def and the two lines of the returned string


def test_main_prints_both_counts(tmp_path, capsys):
    (tmp_path / "m.py").write_text(SOURCE)
    assert _load_loc().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path}: {len(SOURCE.splitlines())} lines, 5 code-only\n"
