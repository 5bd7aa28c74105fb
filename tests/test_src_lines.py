"""The line counter of ``tools/src_lines.py``: each line of a module in
exactly one kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)

SMALL = '''"""Doc.

More."""

X = 1  # trailing
# a comment
_S = {"type": "object",
      # inside
      "properties": {}}


def f():
    """One line."""
    return X
'''


def test_kinds_sum_to_the_line_count_of_every_module(capsys):
    modules = sorted((ROOT / "src" / "ctmdesign").glob("*.py"))
    total = 0
    for path in modules:
        text = path.read_text()
        assert sum(src_lines.count(text).values()) == len(text.splitlines()), path.name
        total += len(text.splitlines())
    src_lines.main([])
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == len(modules) + 2
    assert rows[-1].split()[:2] == ["total", str(total)]


def test_each_kind_on_a_small_module():
    assert src_lines.count(SMALL) == {"code": 3, "schema": 2, "doc": 6, "blank": 3}
