"""Schema-checked post-mortem artifacts (``POSTMORTEM_<label>.json``).

When a fleet run hits one of the three triggers — a shard **crash**, a
**deadlock** dump inside a shard, or an **SLO-fail** exit — the flight
layer freezes the black box: the recorder's event ring, its recent
metric snapshots, and every span still open at the trigger instant
(the in-flight requests) are correlated into one JSON document and
written next to the run's other artifacts.  Like ``BENCH_*``/``CALIB_*``
artifacts, a post-mortem is self-describing: typed ``kind``, versioned
schema, ``generated`` stamp, and the ``code_version_hash`` +
``machine_hash`` provenance pair, all enforced by the
:mod:`repro.artifact` envelope, so CI can gate on artifact shape.
"""

from __future__ import annotations

import os
from typing import List, Optional

from ..artifact import Artifact
from .recorder import FlightRecorder

POSTMORTEM_KIND = 'repro-postmortem'
POSTMORTEM_SCHEMA_VERSION = 1

#: triggers that produce a post-mortem
TRIGGERS = ('crash', 'deadlock', 'slo_fail')

_BODY_SCHEMA = {
    'required': ['reason', 'ring', 'events', 'metric_snapshots',
                 'inflight', 'anomalies'],
    'properties': {
        'reason': {
            'type': 'object',
            'required': ['trigger', 'detail', 't'],
            'properties': {
                'trigger': {'type': 'string', 'enum': list(TRIGGERS)},
                'detail': {'type': 'string'},
                't': {'type': 'integer', 'minimum': 0}},
        },
        'ring': {
            'type': 'object',
            'required': ['capacity', 'recorded', 'dropped'],
            'properties': {
                'capacity': {'type': 'integer', 'minimum': 1},
                'recorded': {'type': 'integer', 'minimum': 0},
                'dropped': {'type': 'integer', 'minimum': 0}},
        },
        'events': {
            'type': 'array',
            'items': {
                'type': 'object',
                'required': ['seq', 'kind', 't'],
                'properties': {
                    'seq': {'type': 'integer', 'minimum': 0},
                    'kind': {'type': 'string'},
                    't': {'type': 'integer'}}},
        },
        'metric_snapshots': {
            'type': 'array',
            'items': {'type': 'object', 'required': ['t', 'metrics']},
        },
        'inflight': {
            'type': 'array',
            'items': {
                'type': 'object',
                'required': ['trace_id', 'span_id', 'name', 'kind',
                             'track', 'start']},
        },
        'anomalies': {'type': 'array', 'items': {'type': 'object'}},
    },
}


def postmortem_path(label: str, trigger: str,
                    out_dir: str = '.') -> str:
    """``POSTMORTEM_<label>-<trigger>.json`` — one file per trigger kind
    so a crash post-mortem is never clobbered by a later SLO-fail one."""
    safe = ''.join(c if c.isalnum() or c in '-_' else '_'
                   for c in label)
    return os.path.join(out_dir, f'POSTMORTEM_{safe}-{trigger}.json')


def build_postmortem(recorder: FlightRecorder, label: str, trigger: str,
                     detail: str, t: int,
                     inflight: Optional[List[dict]] = None,
                     anomalies: Optional[List[dict]] = None) -> dict:
    """Correlate ring + snapshots + open spans into one document."""
    if trigger not in TRIGGERS:
        raise ValueError(f'unknown post-mortem trigger {trigger!r}; '
                         f'choose from {", ".join(TRIGGERS)}')
    return POSTMORTEM.stamp({
        'reason': {'trigger': trigger, 'detail': detail, 't': int(t)},
        'ring': {'capacity': recorder.capacity,
                 'recorded': recorder.seq,
                 'dropped': recorder.dropped},
        'events': recorder.events(),
        'metric_snapshots': recorder.snapshots(),
        'inflight': list(inflight or ()),
        'anomalies': list(anomalies or ()),
    }, label=label)


def render_postmortem(doc: dict) -> str:
    """Human-readable dump (``repro postmortem dump``)."""
    reason = doc['reason']
    lines = [
        f'post-mortem: {doc["label"]}',
        f'  trigger:   {reason["trigger"]} @ cycle {reason["t"]}',
        f'  detail:    {reason["detail"]}',
        f'  generated: {doc["generated"]["timestamp"]} '
        f'(git {doc["generated"]["git_sha"]})',
        f'  provenance: code {doc["provenance"]["code_version_hash"]} '
        f'machine {doc["provenance"]["machine_hash"]}',
        f'  ring:      {len(doc["events"])} event(s) retained, '
        f'{doc["ring"]["recorded"]} recorded, '
        f'{doc["ring"]["dropped"]} dropped',
    ]
    if doc['inflight']:
        lines.append(f'  in-flight: {len(doc["inflight"])} open span(s)')
        for span in doc['inflight']:
            lines.append(f'    {span["trace_id"]} {span["name"]} '
                         f'[{span["kind"]}] {span["track"]} '
                         f'since {span["start"]}')
    if doc['anomalies']:
        lines.append(f'  anomalies: {len(doc["anomalies"])}')
        for ev in doc['anomalies']:
            lines.append(f'    t={ev.get("t")} {ev.get("signal")} '
                         f'value={ev.get("value")} z={ev.get("z")}')
    lines.append('  events (oldest first):')
    for ev in doc['events']:
        extra = ' '.join(
            f'{k}={v}' for k, v in sorted(ev.items())
            if k not in ('seq', 'kind', 't', 'source'))
        lines.append(f'    #{ev["seq"]:>4} t={ev["t"]:>10} '
                     f'{ev["kind"]:<17} {extra}'.rstrip())
    return '\n'.join(lines)


POSTMORTEM = Artifact(POSTMORTEM_KIND, POSTMORTEM_SCHEMA_VERSION,
                      _BODY_SCHEMA, render_postmortem,
                      file_prefix='POSTMORTEM')
POSTMORTEM_SCHEMA = POSTMORTEM.schema
validate_postmortem = POSTMORTEM.validate
save_postmortem = POSTMORTEM.save
load_postmortem = POSTMORTEM.load
