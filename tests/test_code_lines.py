"""tools/code_lines.py, the counter behind the code-line figures in ROADMAP.md."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves a code line

# a comment line


def f(x):
    """Function docstring."""
    text = """a multi-line
string that is not a docstring"""
    return os.path.join(
        text, x)


class C:
    """Class docstring."""

    value = 1
'''


def test_counts_code_not_comments_docstrings_or_blanks():
    # import, def, text (2 lines), return (2 lines), class, value
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert [line.split() for line in lines if line] == [["a.py", "8"], ["b.py", "1"],
                                                        ["total", "9"]]


def test_empty_directory_is_refused(tmp_path, capsys):
    assert code_lines.main([str(tmp_path)]) == 1
    assert "no Python modules" in capsys.readouterr().err
