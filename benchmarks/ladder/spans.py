"""In-memory span recorder for the ladder's traced pass.

Spans are recorded by the benchmark's own files around calls into the
repo's public functions (tracing inside the program is a later issue).
Each span carries a name, start, end, and the span that caused it;
attributes name the workload unit.  Nothing is written until the run
ends (``run.py`` dumps the list into ``TRACE_ladder.json``).

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple


class SpanRecorder:
    """Records a tree of timed spans plus named (count, seconds) tallies."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.tallies: Dict[str, List[float]] = {}  # name -> [count, seconds]
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {'id': len(self.spans), 'name': name,
               'parent': self._stack[-1] if self._stack else None,
               'start': perf_counter(), 'end': None}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(rec['id'])
        try:
            yield rec
        finally:
            rec['end'] = perf_counter()
            self._stack.pop()

    def tally(self, name: str, seconds: float) -> None:
        """Count one operation too frequent to deserve a span each."""
        t = self.tallies.setdefault(name, [0, 0.0])
        t[0] += 1
        t[1] += seconds


class NullRecorder:
    """The tracing-off stand-in: same surface, records nothing."""

    enabled = False
    spans: List[dict] = []
    tallies: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str, **attrs):
        yield {}

    def tally(self, name: str, seconds: float) -> None:
        pass


def _covered(intervals: Iterable[Tuple[float, float]],
             lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_lo is None or a > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        elif b > cur_hi:
            cur_hi = b
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the interval its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s['parent'] is not None:
            children.setdefault(s['parent'], []).append(
                (s['start'], s['end']))
    return {s['id']: (s['end'] - s['start'])
            - _covered(children.get(s['id'], ()), s['start'], s['end'])
            for s in spans}


def _named(spans: List[dict], name: str, under: Optional[str]) -> List[dict]:
    by_id = {s['id']: s for s in spans}
    return [s for s in spans if s['name'] == name and (
        under is None or (s['parent'] is not None
                          and by_id[s['parent']]['name'] == under))]


def total_seconds(spans: List[dict], name: str,
                  under: Optional[str] = None) -> float:
    """Summed duration of the spans called ``name`` (optionally only
    those whose parent span is called ``under``)."""
    return sum(s['end'] - s['start'] for s in _named(spans, name, under))


def self_seconds(spans: List[dict], name: str) -> float:
    selfs = self_times(spans)
    return sum(selfs[s['id']] for s in _named(spans, name, None))


def spanned(recorder, fn, name: str):
    """``fn`` wrapped so that every call is one span called ``name``."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)
    return wrapper


@contextmanager
def patched(module, **replacements):
    """Rebind ``module.<attr>`` for the ``with`` body, then restore.

    The traced pass uses this to put span wrappers around public
    functions that another public function calls internally.  The
    program's source is not edited and the originals always come back.
    """
    saved = {attr: getattr(module, attr) for attr in replacements}
    for attr, obj in replacements.items():
        setattr(module, attr, obj)
    try:
        yield
    finally:
        for attr, obj in saved.items():
            setattr(module, attr, obj)
