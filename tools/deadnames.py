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

The same scan reports options nobody sets: a defaulted parameter of such
a function or method (``__init__`` stands for its class) is dead when no
call in any ``.py`` file passes a keyword of that name, no call to that
function's name reaches its position (a ``*``/``**`` call, or the name
used as a value, reaches everything) and no call shown in a ``.md`` file
passes the keyword either.  Inline its one value instead.

It also reports command-line flags nobody passes: a string constant
under ``src/repro`` that is a whole ``--flag`` (the first argument of an
``add_argument`` call, or a table row feeding one) is dead when no
searched file outside ``src/repro`` mentions it — no test, doc,
example, CI job, benchmark or tool.  Delete the flag and the switch
behind it, or document it.

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
_FLAG = re.compile(r'--[a-z][a-z0-9-]*')
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


def defaulted(tree):
    """``(callee name, parameter, position, lineno)`` of every defaulted
    parameter of a module-level function or method; position is the
    index among the caller's positional arguments, None if keyword-only."""
    classes = [n for n in tree.body if isinstance(n, ast.ClassDef)]
    for owner in [tree] + classes:
        for fn in owner.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = owner is not tree and 'staticmethod' not in \
                map(_decorator_name, fn.decorator_list)
            name = owner.name if fn.name == '__init__' else fn.name
            pos = fn.args.posonlyargs + fn.args.args
            first = len(pos) - len(fn.args.defaults)
            for i, arg in enumerate(pos[first:], first):
                yield name, arg.arg, i - method, fn.lineno
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None, fn.lineno


def flags(tree):
    """``(flag, lineno)`` of every string constant that is a whole
    ``--flag``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _FLAG.fullmatch(node.value):
            yield node.value, node.lineno


def _files():
    for root in SEARCH:
        for dirpath, _, names in os.walk(root):
            for name in names:
                if name.endswith(SUFFIXES):
                    yield os.path.join(dirpath, name)
    yield from glob.glob('*.md')


def main() -> int:
    words = Counter()
    keywords = set()   # every name some call passes as a keyword
    reach = Counter()  # callee name -> most positional arguments passed
    passed = set()     # every --flag some file outside src/repro mentions
    for path in _files():
        with open(path, errors='replace') as f:
            text = f.read()
        if not os.path.normpath(path).startswith(SOURCE + os.sep):
            passed.update(_FLAG.findall(text))
        words.update(re.findall(r'[A-Za-z_][A-Za-z0-9_]*', text))
        if path.endswith('.md'):
            for call in re.findall(r'\w\(([^()]*)\)', text):
                keywords.update(re.findall(r'(\w+)\s*=', call))
        if not path.endswith('.py'):
            continue
        callees = set()
        for node in ast.walk(ast.parse(text)):  # a Call before its func
            if isinstance(node, ast.Call):
                callees.add(node.func)
                name = getattr(node.func, 'attr',
                               getattr(node.func, 'id', None))
                star = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                reach[name] = max(reach[name],
                                  sys.maxsize if star else len(node.args))
                keywords.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, (ast.Name, ast.Attribute)) \
                    and node not in callees:
                # handed around as a value: its callers are not in sight
                reach[getattr(node, 'attr', None) or node.id] = sys.maxsize
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
                dead += [(path, line, f'{callee}({param}=)')
                         for callee, param, i, line in defaulted(tree)
                         if param not in keywords
                         and (i is None or reach[callee] <= i)
                         and not callee.startswith('__')]
                dead += [(path, line, flag) for flag, line in flags(tree)
                         if flag not in passed]
    for path, line, ident in sorted(dead):
        print(f'{path}:{line}: {ident}')
    print(f'{len(dead)} dead names')
    return 1 if dead else 0


if __name__ == '__main__':
    sys.exit(main())
