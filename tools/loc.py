#!/usr/bin/env python3
"""Size of the source tree: ``wc -l`` and code-only line counts.

Code-only means lines that carry at least one token which is not a
comment, a blank or part of a docstring (``tokenize`` finds the tokens,
``ast`` the docstrings).  Prints one row per ``src/repro/*`` directory
(top-level modules under ``.``) and the total, so a PR's size delta is
one diff of two runs:

    python tools/loc.py [ROOT]        # ROOT defaults to src/repro
"""

import ast
import io
import os
import sys
import tokenize
from collections import defaultdict

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source):
    """``(wc -l, code-only)`` of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return (source.count('\n'),
            len(code - _docstring_lines(ast.parse(source))))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join('src', 'repro')
    rows = defaultdict(lambda: [0, 0])
    for dirpath, _, files in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        for name in files:
            if name.endswith('.py'):
                with open(os.path.join(dirpath, name)) as f:
                    wc, code = count(f.read())
                for key in (rel.split(os.sep)[0], 'total'):
                    rows[key][0] += wc
                    rows[key][1] += code
    total = rows.pop('total')
    print(f'{"directory":<12} {"wc -l":>7} {"code":>7}')
    for key in sorted(rows):
        print(f'{key:<12} {rows[key][0]:>7} {rows[key][1]:>7}')
    print(f'{"total":<12} {total[0]:>7} {total[1]:>7}')


if __name__ == '__main__':
    main(sys.argv)
