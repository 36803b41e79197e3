import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "sloc.py"
_SPEC = importlib.util.spec_from_file_location("sloc", _PATH)
sloc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sloc)


def test_sloc_counts_code_lines_only():
    source = '''"""Module
docstring."""

# a comment
X = """not a
docstring"""


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        return 1  # trailing comment
'''
    # Code: X's two lines, the class and def lines, and the return.
    assert sloc.count(source) == (len(source.splitlines()), 5)


def test_sloc_main_prints_every_module(capsys):
    assert sloc.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["module", "lines", "code"]
    assert "path_lift.py" in {line.split()[0] for line in lines}
    assert lines[-1].split()[0] == "total"
