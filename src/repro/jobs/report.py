"""Sweep-level report artifact.

Folds the per-job outcomes of one sweep into a single JSON document that
shares provenance (git SHA, timestamp, Python version) with the telemetry
run reports, so CI can archive one artifact per sweep and assert on it —
the second-pass 100%-cache-hit gate checks ``launched == 0`` here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..artifact import Artifact
from .engine import JobOutcome
from .spec import machine_hash

SWEEP_REPORT_KIND = 'repro-sweep-report'
SWEEP_SCHEMA_VERSION = 1

_COUNTER = {'type': 'integer', 'minimum': 0}
_NONNEG = {'type': 'number', 'minimum': 0}

_BODY_SCHEMA = {
    'required': ['name', 'total', 'by_status', 'launched', 'jobs'],
    'properties': {
        'name': {'type': 'string'},
        'total': _COUNTER,
        'by_status': {'type': 'object'},
        'launched': _COUNTER,
        'elapsed': _NONNEG,
        'jobs': {
            'type': 'array',
            'items': {
                'type': 'object',
                'required': ['key', 'benchmark', 'config', 'status',
                             'attempts', 'elapsed'],
                'properties': {
                    'key': {'type': 'string'},
                    'benchmark': {'type': 'string'},
                    'config': {'type': 'string'},
                    'status': {'type': 'string'},
                    'attempts': _COUNTER,
                    'elapsed': _NONNEG,
                    'cycles': _COUNTER,
                    'instrs': _COUNTER,
                    'machine_hash': {'type': 'string'},
                    'error': {'type': 'string'},
                },
            },
        },
    },
}


def build_sweep_report(outcomes: Sequence[JobOutcome], name: str = 'sweep',
                       launched: int = 0,
                       elapsed: Optional[float] = None) -> dict:
    jobs = []
    counts = {}
    for o in outcomes:
        counts[o.status] = counts.get(o.status, 0) + 1
        doc = {
            'key': o.key,
            'benchmark': o.spec.benchmark,
            'config': o.spec.config,
            'status': o.status,
            'attempts': o.attempts,
            'elapsed': round(o.elapsed, 3),
        }
        if o.result is not None:
            doc['cycles'] = o.result.cycles
            doc['instrs'] = o.result.instrs
            doc['machine_hash'] = machine_hash(o.result.machine)
        if o.error:
            doc['error'] = o.error.strip().splitlines()[-1]
        jobs.append(doc)
    report = {
        'name': name,
        'total': len(jobs),
        'by_status': counts,
        'launched': launched,
        'jobs': jobs,
    }
    if elapsed is not None:
        report['elapsed'] = round(elapsed, 3)
    return SWEEP_REPORT.stamp(report)


def render_sweep_report(doc: dict) -> str:
    counts = ', '.join(f'{n} {status}'
                       for status, n in sorted(doc['by_status'].items()))
    lines = [f"sweep {doc['name']}: {doc['total']} job(s) ({counts}); "
             f"{doc['launched']} worker(s) launched"]
    for j in doc['jobs']:
        lines.append(f"  {j['benchmark']:<12s} {j['config']:<10s} "
                     f"{j['status']:<8s} {j.get('cycles', '-'):>10}")
    return '\n'.join(lines)


SWEEP_REPORT = Artifact(SWEEP_REPORT_KIND, SWEEP_SCHEMA_VERSION,
                        _BODY_SCHEMA, render_sweep_report)
