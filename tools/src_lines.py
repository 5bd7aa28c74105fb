#!/usr/bin/env python3
"""Count the lines of the package's modules by kind.

Every line of a module is counted as exactly one of:

* ``doc``     a docstring line (a blank one inside it too) or a line
              holding only a comment;
* ``blank``   an empty line outside a docstring;
* ``schema``  a line of a module-level JSON Schema literal: a name
              assigned a dict display with a ``"type"`` or ``"oneOf"``
              key, such as ``config.py``'s ``SCENARIO_SCHEMA`` and the
              pieces it is built from;
* ``code``    any other line.

Usage: ``python3 tools/src_lines.py [module.py ...]``; without arguments
it counts ``src/ctmdesign/*.py``, one row per module and a total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "schema", "doc", "blank")
SCHEMA_KEYS = {"type", "oneOf"}
DEFAULT = Path(__file__).resolve().parent.parent / "src" / "ctmdesign"


def _is_schema(node):
    return (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
            and any(isinstance(k, ast.Constant) and k.value in SCHEMA_KEYS
                    for k in node.value.keys))


def count(text):
    """{kind: lines} of one module's source ``text``; the counts sum to
    ``len(text.splitlines())``."""
    lines = text.splitlines()
    kind = ["blank" if not line.strip() else "code" for line in lines]
    tree = ast.parse(text)
    for node in tree.body:
        if _is_schema(node):
            for i in range(node.lineno - 1, node.end_lineno):
                if kind[i] == "code":
                    kind[i] = "schema"
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        row, col = tok.start
        if tok.type == tokenize.COMMENT and not lines[row - 1][:col].strip():
            kind[row - 1] = "doc"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            kind[node.lineno - 1:node.end_lineno] = ["doc"] * (node.end_lineno
                                                              - node.lineno + 1)
    return {k: kind.count(k) for k in KINDS}


def main(argv):
    paths = [Path(p) for p in argv] or sorted(DEFAULT.glob("*.py"))
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{k:>8}" for k in KINDS))
    total = dict.fromkeys(KINDS, 0)
    for path in paths:
        counts = count(path.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<16}{sum(counts.values()):>7}"
              + "".join(f"{counts[k]:>8}" for k in KINDS))
    print(f"{'total':<16}{sum(total.values()):>7}"
          + "".join(f"{total[k]:>8}" for k in KINDS))


if __name__ == "__main__":
    main(sys.argv[1:])
