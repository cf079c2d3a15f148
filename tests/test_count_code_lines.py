import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", _TOOL)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

# each line is marked: C counts as code, - does not
_MODULE = '''\
"""A module docstring                 -
over two lines."""                    -
                                      -
# a comment-only line                 -
import math  # a trailing comment     C
                                      -
                                      -
class Point:                          C
    """A class docstring."""          -
                                      -
    def norm(self, scale=1.0):        C
        """A function docstring       -
                                      -
        with a blank line in it."""   -
        # another comment             -
        total = math.hypot(           C
            self.x,                   C
                                      -
            self.y,                   C
        )                             C
        text = """not a docstring:    C
                                      C
        every line counts"""          C
        return scale * total, text    C
'''


def _strip_marks(text):
    return "\n".join(line[:-1].rstrip() for line in text.splitlines()) + "\n"


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(_strip_marks(_MODULE))
    expected = sum(line.rstrip().endswith("C") for line in _MODULE.splitlines())
    assert expected == 11
    assert count_code_lines.count_code_lines(path) == expected


@pytest.mark.parametrize("source, lines", [
    ('"""Only a docstring."""\n', 0),
    ("\n# a comment\n\n", 0),
    ("x = (1,\n     2)\n", 2),  # a statement over two lines counts both
    ("x = 1\n'''a string statement\nis not a docstring'''\n", 3),
])
def test_small_sources(source, lines, tmp_path):
    path = tmp_path / "module.py"
    path.write_text(source)
    assert count_code_lines.count_code_lines(path) == lines


def test_main_prints_each_module_and_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = (2,\n     3)\n')
    monkeypatch.setattr("sys.argv", ["count_code_lines.py", str(tmp_path)])
    assert count_code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "1"], ["b.py", "2"], ["total", "3"]]
