"""Count code lines and physical lines of Python sources.

A code line holds a token other than a comment, outside the module, class
and function docstrings.  Usage: python scripts/code_lines.py PATH...
(files, or directories searched for *.py).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def counts(text):
    """(code lines, physical lines) of one source text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(text.splitlines())


files = [f for p in map(Path, sys.argv[1:]) for f in (sorted(p.rglob("*.py")) if p.is_dir() else [p])]
total = [0, 0]
for f in files:
    code, physical = counts(f.read_text(encoding="utf-8"))
    total[0], total[1] = total[0] + code, total[1] + physical
    print(f"{code:6} {physical:6}  {f}")
print(f"{total[0]:6} {total[1]:6}  total")
