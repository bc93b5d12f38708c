#!/usr/bin/env python3
"""Reference scan: names defined under ``src/repro`` that nothing mentions.

Every module-level name (function, class, assignment) and every method
defined under ``src/repro`` must occur somewhere else — as a word in any
``.py`` / ``.md`` / ``.yml`` / ``.toml`` file under ``src tests docs
examples benchmarks tools .github`` or in a top-level ``*.md`` — besides
the one place that defines it.  A name whose only occurrence is its own
definition is dead: code nobody calls, or a doc that forgot it.  It is
what proves a retired hook left nothing behind in code *or* docs.

Exempt: dunders, and functions carrying a registering decorator
(``@_executor(op.VLOAD)`` and friends: the decorator is the reference);
``property`` / ``staticmethod`` / ``classmethod`` / ``.setter`` are not
registrations.

    python tools/deadnames.py         # prints the hits, then 'N dead names'

Exit status 1 on any hit, so CI can run it after ``tools/loc.py``.
"""

import ast
import glob
import os
import re
import sys
from collections import Counter

SOURCE = os.path.join('src', 'repro')
SEARCH = ('src', 'tests', 'docs', 'examples', 'benchmarks', 'tools',
          '.github')
SUFFIXES = ('.py', '.md', '.yml', '.toml')
_PLAIN_DECORATORS = {'property', 'staticmethod', 'classmethod', 'setter',
                     'dataclass', 'contextmanager', 'lru_cache'}


def _decorator_name(node) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else \
        getattr(node, 'id', '')


def _registered(node) -> bool:
    return any(_decorator_name(d) not in _PLAIN_DECORATORS
               for d in node.decorator_list)


def definitions(tree):
    """``(name, lineno)`` of module-level names, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        yield n.id, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _registered(node):
                yield node.name, node.lineno
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not _registered(sub):
                    yield sub.name, sub.lineno


def _files():
    for root in SEARCH:
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name.endswith(SUFFIXES):
                    yield os.path.join(dirpath, name)
    yield from glob.glob('*.md')


def main() -> int:
    words = Counter()
    for path in _files():
        with open(path, errors='replace') as f:
            words.update(re.findall(r'[A-Za-z_][A-Za-z0-9_]*', f.read()))
    dead = []
    for dirpath, _, names in os.walk(SOURCE):
        for name in sorted(names):
            if name.endswith('.py'):
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    tree = ast.parse(f.read())
                dead += [(path, line, ident)
                         for ident, line in definitions(tree)
                         if words[ident] <= 1
                         and not (ident.startswith('__')
                                  and ident.endswith('__'))]
    for path, line, ident in sorted(dead):
        print(f'{path}:{line}: {ident}')
    print(f'{len(dead)} dead names')
    return 1 if dead else 0


if __name__ == '__main__':
    sys.exit(main())
