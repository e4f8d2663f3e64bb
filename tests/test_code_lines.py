"""The code-line counter in tools/ counts what the ROADMAP's size figures count."""

import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

# a comment line
import os


def f(a,
      b):
    """Function docstring."""
    return [a,  # a trailing comment
            b]
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    # import os; def f(a,; b):; return [a,; b]
    assert code_lines.code_lines(SAMPLE) == 5
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["5", str(sample), "5", "total"]
