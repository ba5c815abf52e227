"""``tools/code_lines.py`` counts lines with code, not comments or docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
two lines."""

# A comment line.
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,

        three lines."""
        text = """a string
        that is not a docstring"""
        return (
            text,
            math.pi,
        )
'''


def test_code_lines_counts_tokens_other_than_comments_and_docstrings(tmp_path, capsys) -> None:
    (tmp_path / "sample.py").write_text(SAMPLE)
    # import, class, def, the string's two lines, return ( , the two items, ).
    assert code_lines.code_lines(tmp_path / "sample.py") == 9
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["sample.py", "9", "total", "9"]
