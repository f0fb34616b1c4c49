"""tools/code_lines.py: what counts as a code line."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""
import os  # a trailing comment


# a comment line
class A:
    """A class docstring."""

    x = "not a docstring"

    def f(self,
          y):
        """A function
        docstring."""
        text = """a string
that spans lines"""
        return os.sep + text + self.x + y
'''


def test_counts_code_not_docstrings_comments_or_blanks():
    # import; class; x; def over two lines; the assignment over two; return
    assert code_lines.code_lines(SOURCE) == 8


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "a.py").write_text('"""doc"""\nimport os\n')
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "     1  a", "     2  b", "     3  total", ""]
