#!/usr/bin/env python3
"""Line counts of the modules of src/yamabe.

    python3 scripts/loc.py

Prints one row per module with its total, docstring, comment, blank and
code lines, then a totals row.  Docstring lines are those a module, class
or function docstring spans, blank lines inside it included.  Comment lines
hold a comment and nothing else.  Code lines are the rest: a line of code
with a trailing comment counts as code.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "yamabe"
COLUMNS = ("total", "docstring", "comment", "blank", "code")


def counts(source):
    """The COLUMNS counts of one module's source, as a dict."""
    lines = source.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc.update(range(first.lineno, first.end_lineno + 1))
    comment = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type == tokenize.COMMENT and lines[tok.start[0] - 1].lstrip().startswith("#")}
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()} - doc
    row = {"total": len(lines), "docstring": len(doc), "comment": len(comment - doc),
           "blank": len(blank)}
    row["code"] = row["total"] - row["docstring"] - row["comment"] - row["blank"]
    return row


def main():
    rows = {path.name: counts(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    rows["total"] = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    print(f"{'module':<14}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, row in rows.items():
        print(f"{name:<14}" + "".join(f"{row[c]:>11}" for c in COLUMNS))


if __name__ == "__main__":
    main()
