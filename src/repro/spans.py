"""One span record and the one Chrome trace-event writer.

A **span** is a named ``[start, end)`` cycle window on one track, kept
as a plain dict so it crosses the fleet wire protocol and lands in the
flight journal unchanged::

    {'trace_id', 'span_id', 'name', 'kind', 'track', 'start', 'end',
     'parent_id', 'attrs'}

``end`` is ``None`` while the span is open; ``trace_id``, ``span_id``,
``parent_id`` and ``attrs`` are present only when set.  A track is
``core:<n>`` on a fabric, ``router`` or ``shard:<n>`` in a fleet.  The
producers: :class:`~repro.telemetry.Telemetry` (microthread lifetimes,
DAE frame occupancy, wide-access service windows), the serve scheduler
(a request's occupancy of each core it owns) and
:class:`~repro.flight.FleetFlight` (each request's tree across the
router and the shards).

The writer encodes spans as Trace Event JSON, loadable in
ui.perfetto.dev, one simulated cycle per microsecond, in the documented
object form ``{"traceEvents": [...], "displayTimeUnit": "ms"}``.  A span
is a complete ``X`` event, or a ``b``/``e`` async pair where spans on a
track may overlap.  Two layouts use it: :func:`to_chrome_trace` for one
fabric and :func:`merged_chrome_trace` for a fleet.
"""

from __future__ import annotations

from typing import List, Optional

from .artifact import write_json_atomic
from .core.vgroup import (ROLE_EXPANDER, ROLE_INDEPENDENT, ROLE_NAMES,
                          ROLE_SCALAR, ROLE_VECTOR)
from .core.wide_access import chunks_per_core

KIND_REQUEST = 'request'          # a request: its fleet root, or its core
KIND_ROUTER_QUEUE = 'router_queue'  # waiting in the router, per attempt
KIND_REROUTE_WAIT = 'reroute_wait'  # crash boundary -> re-dispatch
KIND_SHARD_EXEC = 'shard_exec'    # dispatch -> batch completion/crash
KIND_PHASE = 'phase'              # causal-breakdown leaf inside an exec
KIND_MICROTHREAD = 'microthread'  # expander launch -> vend
KIND_FRAME = 'frame'              # first word of a DAE frame -> remem
KIND_WIDE_ACCESS = 'wide_access'  # an LLC bank serving one wide access

#: the kinds of a fleet journal, from root to leaf
FLEET_KINDS = (KIND_REQUEST, KIND_ROUTER_QUEUE, KIND_REROUTE_WAIT,
               KIND_SHARD_EXEC, KIND_PHASE)
SPAN_KINDS = FLEET_KINDS + (KIND_MICROTHREAD, KIND_FRAME, KIND_WIDE_ACCESS)

TRACK_ROUTER = 'router'


def shard_track(shard_id: int) -> str:
    return f'shard:{shard_id}'


def core_track(core: int) -> str:
    return f'core:{core}'


def track_index(track: str) -> int:
    """The ``<n>`` of a ``core:<n>`` or ``shard:<n>`` track."""
    return int(track.partition(':')[2])


def make_span(trace_id: Optional[str], span_id: Optional[str], name: str,
              kind: str, track: str, start: int, end: Optional[int] = None,
              parent_id: Optional[str] = None,
              attrs: Optional[dict] = None) -> dict:
    """The span record (plain dict: wire- and JSONL-safe)."""
    if kind not in SPAN_KINDS:
        raise ValueError(f'unknown span kind {kind!r}')
    span = {}
    if trace_id is not None:
        span['trace_id'] = trace_id
    if span_id is not None:
        span['span_id'] = span_id
    span.update(name=name, kind=kind, track=track, start=int(start),
                end=None if end is None else int(end))
    if parent_id is not None:
        span['parent_id'] = parent_id
    if attrs:
        span['attrs'] = dict(attrs)
    return span


# ------------------------------------------------------------------ writer
def _meta(pid: int, tid: int, what: str, name: str,
          sort_index: Optional[int] = None) -> List[dict]:
    """``M`` records naming a ``what`` ('process' or 'thread') track and,
    given ``sort_index``, placing it."""
    events = [{'ph': 'M', 'pid': pid, 'tid': tid, 'name': f'{what}_name',
               'args': {'name': name}}]
    if sort_index is not None:
        events.append({'ph': 'M', 'pid': pid, 'tid': tid,
                       'name': f'{what}_sort_index',
                       'args': {'sort_index': sort_index}})
    return events


def _span_events(span: dict, pid: int, tid: int, cat: str, args: dict,
                 async_id: Optional[str] = None) -> List[dict]:
    """A span as one ``X`` event or, given ``async_id``, a ``b``/``e``
    pair; an open span is drawn one cycle wide."""
    start = span['start']
    end = span['end'] if span['end'] is not None else start + 1
    if async_id is None:
        return [{'ph': 'X', 'pid': pid, 'tid': tid, 'ts': start,
                 'dur': max(1, end - start), 'name': span['name'],
                 'cat': cat, 'args': args}]
    common = {'pid': pid, 'tid': tid, 'cat': cat, 'name': span['name'],
              'id': async_id}
    return [{'ph': 'b', 'ts': start, 'args': args, **common},
            {'ph': 'e', 'ts': max(end, start + 1), **common}]


def _document(events: List[dict], **other) -> dict:
    return {'traceEvents': events, 'displayTimeUnit': 'ms',
            'otherData': {**other, 'time_unit': '1us == 1 cycle'}}


def write_trace(doc: dict, path: str) -> dict:
    """Save a trace document atomically (a killed write leaves no
    truncated file); returns the document."""
    write_json_atomic(doc, path, indent=None, sort_keys=False)
    return doc


# ---------------------------------------------------------- fabric layout
#: pid of every fabric track (one simulated process)
PID_FABRIC = 0

#: role priority for naming a core's track (higher wins)
_ROLE_RANK = {ROLE_INDEPENDENT: 0, ROLE_VECTOR: 1, ROLE_EXPANDER: 2,
              ROLE_SCALAR: 3}


def to_chrome_trace(tracer=None, telemetry=None, fabric=None,
                    spans=()) -> dict:
    """One fabric run's trace from any subset of its sources.

    One thread per core, named after the most privileged role it held
    (``c03 [scalar]``; the fabric's final assignment wins where it is
    specific).  ``spans`` (a serve run's request occupancy) come first,
    then telemetry's: microthreads as complete events, so the tracer's
    instruction slices nest inside them, frames and wide accesses as
    async pairs.  Then the tracer's instructions and, from telemetry's
    interval samples, counter tracks (CPI stack, LLC occupancy, DRAM
    backlog).
    """
    records = list(spans)
    if telemetry is not None:
        records += telemetry.spans
    roles: dict = {}

    def bump(core, role):
        if core not in roles or _ROLE_RANK[role] > _ROLE_RANK[roles[core]]:
            roles[core] = role

    if tracer is not None:
        for e in tracer.entries:
            bump(e.core, e.mode)
    for s in records:
        if s['kind'] == KIND_MICROTHREAD:
            bump(track_index(s['track']), ROLE_EXPANDER)
    if fabric is not None:
        for t in fabric.tiles:
            if t.mode != ROLE_INDEPENDENT:
                roles[t.core_id] = t.mode
    cores = set(roles)
    if tracer is not None:
        cores.update(e.core for e in tracer.entries)
    cores.update(track_index(s['track']) for s in records)

    events: List[dict] = []
    for core in sorted(cores):
        role = ROLE_NAMES[roles.get(core, ROLE_INDEPENDENT)]
        events += _meta(PID_FABRIC, core, 'thread',
                        f'c{core:02d} [{role}]', core)
    events += _meta(PID_FABRIC, 0, 'process', 'repro fabric')

    next_async = 0
    for s in records:
        core = track_index(s['track'])
        args = dict(s.get('attrs') or ())
        ident = s.get('span_id')
        if ident is not None:  # a serve request's core (repro.serve)
            if 'trace_id' in s:  # the id the fleet's merged trace uses
                args['trace_id'] = s['trace_id']
        else:  # telemetry's: args gain the core, async ids a number
            args['core'] = core
            chunks = args.pop('chunks', None)
            if chunks:
                args['per_core_words'] = {
                    str(c): w for c, w in chunks_per_core(chunks).items()}
            if s['kind'] != KIND_MICROTHREAD:
                next_async += 1
                ident = f'{s["kind"]}-{next_async}'
        events += _span_events(s, PID_FABRIC, core, s['kind'], args, ident)

    if tracer is not None:
        for e in tracer.entries:
            events.append({'ph': 'X', 'pid': PID_FABRIC, 'tid': e.core,
                           'ts': e.cycle, 'dur': 1,
                           'name': e.text.split()[0], 'cat': 'instr',
                           'args': {'asm': e.text,
                                    'role': ROLE_NAMES.get(e.mode, '?')}})

    for s in telemetry.samples if telemetry is not None else ():
        if s['stalls'] or s['issued']:
            stack = {'issued': s['issued']}
            stack.update(s['stalls'])
            events.append({'ph': 'C', 'pid': PID_FABRIC, 'ts': s['cycle'],
                           'name': 'cpi_stack', 'args': stack})
        events.append({'ph': 'C', 'pid': PID_FABRIC, 'ts': s['cycle'],
                       'name': 'llc_occupancy',
                       'args': {'lines': s['llc_lines']}})
        events.append({'ph': 'C', 'pid': PID_FABRIC, 'ts': s['cycle'],
                       'name': 'dram_backlog',
                       'args': {'cycles': s['dram_backlog']}})
    return _document(events, producer='repro.telemetry')


# ----------------------------------------------------------- fleet layout
#: pid layout: router first, shard N at PID_SHARD_BASE + N
PID_ROUTER = 0
PID_SHARD_BASE = 1


def _track_pid(track: str) -> int:
    if track == TRACK_ROUTER:
        return PID_ROUTER
    return PID_SHARD_BASE + track_index(track)


def merged_chrome_trace(spans: List[dict],
                        anomalies: Optional[List[dict]] = None,
                        label: str = 'fleet') -> dict:
    """A fleet's trace from journal spans.

    One process per shard plus the router's, one thread row per request
    (``tid`` = req_id) so concurrent requests never stack.  Every span
    but a phase leaf is an async pair keyed by its ``trace_id``, so a
    crash-rerouted request reads as one trace across the router and
    every shard that ran it; anomalies are instant (``i``) markers on
    the router.
    """
    events: List[dict] = []
    for pid in sorted({_track_pid(s['track']) for s in spans}
                      | {PID_ROUTER}):
        name = ('fleet router' if pid == PID_ROUTER
                else f'shard {pid - PID_SHARD_BASE}')
        events += _meta(pid, 0, 'process', name, pid)

    req_of_trace: dict = {}
    for s in spans:
        if s['kind'] == KIND_REQUEST:
            req_of_trace[s['trace_id']] = int(
                (s.get('attrs') or {}).get('req_id', len(req_of_trace)))
    rows = set()
    for s in spans:
        pid = _track_pid(s['track'])
        tid = req_of_trace.get(s['trace_id'], 0)
        if (pid, tid) not in rows:
            rows.add((pid, tid))
            events += _meta(pid, tid, 'thread', s['trace_id'], tid)

    for s in sorted(spans, key=lambda s: (s['start'], s['span_id'])):
        pid = _track_pid(s['track'])
        tid = req_of_trace.get(s['trace_id'], 0)
        args = dict(s.get('attrs') or {})
        args['trace_id'] = s['trace_id']
        args['span_kind'] = s['kind']
        if s['kind'] == KIND_PHASE:  # dense, strictly nested leaves
            events += _span_events(s, pid, tid, 'phase', args)
        else:
            events += _span_events(s, pid, tid, 'request', args,
                                   s['trace_id'])

    for ev in anomalies or ():
        events.append({'ph': 'i', 'pid': PID_ROUTER, 'tid': 0,
                       'ts': ev.get('t', 0), 's': 'p',
                       'name': f'anomaly:{ev.get("signal", "?")}',
                       'cat': 'anomaly',
                       'args': {k: v for k, v in ev.items() if k != 't'}})
    return _document(events, producer='repro.flight', label=label)


def write_merged_trace(path: str, spans: List[dict],
                       anomalies: Optional[List[dict]] = None,
                       label: str = 'fleet') -> dict:
    return write_trace(merged_chrome_trace(spans, anomalies, label), path)
