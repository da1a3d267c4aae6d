"""Line counts of every module in a package directory.

Each line of a module counts once, as the first of these that fits it:
a docstring line (any line of a module, class or function docstring,
found with ``ast``), a code line (one holding any token but a comment),
a comment line (one holding only a comment) or a blank line.  Usage::

    python tools/source_size.py [DIR]

prints one row per module of ``DIR`` (default ``src/betweenu``) and a
total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

COLUMNS = ("total", "code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def line_counts(text: str) -> dict:
    """The :data:`COLUMNS` counts of one module's source ``text``."""
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        scope = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        if isinstance(node, scope) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    total = len(text.splitlines())
    code -= docstring
    comment -= docstring | code
    return {
        "total": total,
        "code": len(code),
        "docstring": len(docstring),
        "comment": len(comment),
        "blank": total - len(code) - len(docstring) - len(comment),
    }


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/betweenu")
    rows = {path.name: line_counts(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("*.py"))}
    rows["total"] = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[c]:>11}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
