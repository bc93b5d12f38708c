"""The flight journal (JSONL on disk) and its trace invariants.

A request's fleet spans (:mod:`repro.spans`) form a tree, stamped with
the ``trace_id`` the request was minted with by ``tracegen``: the root
``request`` span covers arrival to finish at *global* fleet time, and
its children tile that window — router queue waits (one per dispatch
attempt), shard execution windows (one per attempt, including attempts
that died in a shard crash), the reroute gap between a crash and the
re-dispatch, and the per-request causal phase breakdown
(``repro.observe.rtrace``) laid out as leaf spans inside each completed
execution window.

The **flight journal** is a JSONL file whose first line is a typed,
provenance-stamped header and whose remaining lines are ``span`` and
``anomaly`` records.  ``repro trace merge|export|inspect`` consume
journals; :func:`check_continuity` is the invariant the acceptance
tests gate on — a re-routed request's spans must cover its root window
with no gaps, i.e. it reads as *one continuous trace* across the
router and every shard that touched it.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..artifact import envelope
from ..spans import FLEET_KINDS, KIND_PHASE, KIND_REQUEST, TRACK_ROUTER

JOURNAL_KIND = 'repro-flight-journal'
JOURNAL_SCHEMA_VERSION = 1


class JournalError(ValueError):
    """A flight journal failed structural validation."""


def write_journal(path: str, spans: List[dict],
                  anomalies: Optional[List[dict]] = None,
                  label: str = 'fleet') -> dict:
    """Write header + spans + anomalies as JSONL; returns the header."""
    header = {'type': 'header',
              **envelope(JOURNAL_KIND, JOURNAL_SCHEMA_VERSION, label)}
    with open(path, 'w') as f:
        f.write(json.dumps(header) + '\n')
        for span in spans:
            f.write(json.dumps({'type': 'span', **span}) + '\n')
        for ev in anomalies or ():
            f.write(json.dumps({'type': 'anomaly', **ev}) + '\n')
    return header


#: a journal span's fields and their JSON types (a bool is not an int);
#: all but the last two are required
_SPAN_FIELDS = {'trace_id': (str,), 'span_id': (str,), 'name': (str,),
                'kind': (str,), 'track': (str,), 'start': (int,),
                'end': (int, type(None)), 'parent_id': (str,),
                'attrs': (dict,)}
_SPAN_REQUIRED = tuple(_SPAN_FIELDS)[:-2]


def _span_error(row: dict) -> Optional[str]:
    """Why ``row`` is not a journal span, or None."""
    missing = [k for k in _SPAN_REQUIRED if k not in row]
    if missing:
        return f'span missing {", ".join(missing)}'
    for key, types in _SPAN_FIELDS.items():
        if key in row and type(row[key]) not in types:
            return (f'span {key} is {type(row[key]).__name__}: '
                    f'{row[key]!r}')
    if row['kind'] not in FLEET_KINDS:
        return f'unknown span kind {row["kind"]!r}'
    track = row['track']
    if track != TRACK_ROUTER and not (track.startswith('shard:')
                                      and track[6:].isdecimal()):
        return f'unknown track {track!r}'
    return None


def read_journal(path: str) -> Tuple[dict, List[dict], List[dict]]:
    """Load and validate a journal; returns (header, spans, anomalies)."""
    spans: List[dict] = []
    anomalies: List[dict] = []
    header: Optional[dict] = None
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise JournalError(f'{path}:{lineno}: not JSON: {exc}')
            if not isinstance(row, dict):
                raise JournalError(f'{path}:{lineno}: not a JSON object')
            kind = row.pop('type', None)
            if lineno == 1:
                if kind != 'header' or row.get('kind') != JOURNAL_KIND:
                    raise JournalError(
                        f'{path}: first line is not a {JOURNAL_KIND} '
                        f'header')
                if row.get('schema_version') != JOURNAL_SCHEMA_VERSION:
                    raise JournalError(
                        f'{path}: unsupported journal schema_version '
                        f'{row.get("schema_version")!r}')
                header = row
                continue
            if kind == 'span':
                error = _span_error(row)
                if error:
                    raise JournalError(f'{path}:{lineno}: {error}')
                spans.append(row)
            elif kind == 'anomaly':
                anomalies.append(row)
            else:
                raise JournalError(
                    f'{path}:{lineno}: unknown record type {kind!r}')
    if header is None:
        raise JournalError(f'{path}: empty journal')
    return header, spans, anomalies


# --------------------------------------------------------------- invariants
def check_continuity(spans: List[dict]) -> Dict[str, dict]:
    """Per-trace continuity verdicts.

    A trace is **continuous** when its non-root, non-phase spans,
    ordered by start, cover the root ``request`` span's window with no
    gap: the first starts at the root's start, each next span starts at
    or before the furthest end seen so far, and the furthest end
    reaches the root's end.  Phase spans are leaves *inside* an exec
    span and are excluded from the top-level tiling.
    """
    traces: Dict[str, List[dict]] = {}
    for s in spans:
        traces.setdefault(s['trace_id'], []).append(s)
    verdicts: Dict[str, dict] = {}
    for tid, group in sorted(traces.items()):
        roots = [s for s in group if s['kind'] == KIND_REQUEST]
        verdict = {'trace_id': tid, 'spans': len(group),
                   'continuous': False, 'gaps': [], 'tracks': sorted(
                       {s['track'] for s in group})}
        if len(roots) != 1:
            verdict['error'] = f'{len(roots)} root span(s)'
            verdicts[tid] = verdict
            continue
        root = roots[0]
        if root['end'] is None:
            verdict['error'] = 'open root span'
            verdicts[tid] = verdict
            continue
        body = sorted((s for s in group
                       if s['kind'] not in (KIND_REQUEST, KIND_PHASE)),
                      key=lambda s: (s['start'],
                                     s['end'] if s['end'] is not None
                                     else s['start']))
        covered = root['start']
        gaps: List[Tuple[int, int]] = []
        for s in body:
            if s['start'] > covered:
                gaps.append((covered, s['start']))
            end = s['end'] if s['end'] is not None else s['start']
            covered = max(covered, end)
        if covered < root['end']:
            gaps.append((covered, root['end']))
        verdict['gaps'] = gaps
        verdict['continuous'] = not gaps and bool(body)
        if not body:
            verdict['error'] = 'no body spans'
        verdicts[tid] = verdict
    return verdicts


def render_tree(spans: List[dict], trace_id: str) -> str:
    """ASCII tree of one trace's spans (depth from parent links)."""
    group = [s for s in spans if s['trace_id'] == trace_id]
    if not group:
        return f'trace {trace_id}: no spans'
    by_id = {s['span_id']: s for s in group}
    children: Dict[Optional[str], List[dict]] = {}
    for s in group:
        parent = s.get('parent_id')
        if parent is not None and parent not in by_id:
            parent = None  # orphan: show at top level, never drop
        children.setdefault(parent, []).append(s)
    lines = [f'trace {trace_id}:']

    def walk(parent: Optional[str], depth: int) -> None:
        for s in sorted(children.get(parent, ()),
                        key=lambda s: (s['start'], s['span_id'])):
            end = '...' if s['end'] is None else str(s['end'])
            attrs = s.get('attrs') or {}
            extra = (' ' + ' '.join(f'{k}={v}' for k, v in
                                    sorted(attrs.items()))
                     if attrs else '')
            lines.append(f'{"  " * (depth + 1)}{s["name"]} '
                         f'[{s["kind"]}] {s["track"]} '
                         f'{s["start"]}..{end}{extra}')
            walk(s['span_id'], depth + 1)

    walk(None, 0)
    return '\n'.join(lines)
