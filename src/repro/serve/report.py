"""The serving report: schema, build, validate, render, store.

A serving report is the request-trace analogue of the per-run report in
:mod:`repro.telemetry.report`: a versioned, schema-checked JSON artifact
with per-request latency records and fleet-level aggregates, suitable for
CI gating ("zero failed requests") and archival in the
:class:`~repro.jobs.ResultStore` (under a ``serve-`` key prefix so
serving latencies can never be confused with isolated-run results).
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from ..artifact import Artifact
from ..observe import BREAKDOWN_PHASES, SLO_SECTION_SCHEMA, \
    merge_breakdowns
from .request import DONE, FAILED, KernelRequest, REJECTED, TIMED_OUT
from .scheduler import ServeResult

SERVE_SCHEMA_VERSION = 1
SERVE_REPORT_KIND = 'repro-serve-report'

_COUNTER = {'type': 'integer', 'minimum': 0}
_NUMBER = {'type': 'number'}

#: the per-request phase breakdown (exact: phases sum to latency)
BREAKDOWN_SCHEMA = {
    'type': 'object',
    'required': list(BREAKDOWN_PHASES),
    'properties': {p: _COUNTER for p in BREAKDOWN_PHASES},
}

REQUEST_RECORD_SCHEMA = {
    'type': 'object',
    'required': ['req_id', 'kernel', 'lanes', 'groups', 'priority',
                 'arrival', 'state'],
    'properties': {
        'req_id': _COUNTER,
        'kernel': {'type': 'string'},
        'params': {'type': 'object'},
        'lanes': {'type': 'integer', 'minimum': 1},
        'groups': {'type': 'integer', 'minimum': 1},
        'tiles': {'type': 'integer', 'minimum': 2},
        'priority': {'type': 'integer'},
        'arrival': _COUNTER,
        'timeout': {'type': 'integer'},
        'state': {'type': 'string',
                  'enum': [DONE, FAILED, TIMED_OUT, REJECTED]},
        'launched_at': _COUNTER,
        'finished_at': _COUNTER,
        'queue_wait': _COUNTER,
        'service_cycles': _COUNTER,
        'latency': _COUNTER,
        'instrs': _COUNTER,
        'error': {'type': 'string'},
        'breakdown': BREAKDOWN_SCHEMA,
    },
}

#: the summary fields serve and fleet reports share
SUMMARY_PROPERTIES = {
    'makespan_cycles': _COUNTER,
    'completed': _COUNTER,
    'failed': _COUNTER,
    'timed_out': _COUNTER,
    'rejected': _COUNTER,
    'throughput_per_mcycle': _NUMBER,
    'peak_queue_depth': _COUNTER,
    'latency_mean': _NUMBER,
    'latency_p50': _NUMBER,
    'latency_p95': _NUMBER,
    'latency_p99': _NUMBER,
    'queue_wait_mean': _NUMBER,
    'total_instrs': _COUNTER,
    'tile_utilization': _NUMBER,
    'breakdown_totals': BREAKDOWN_SCHEMA,
}

_BODY_SCHEMA = {
    'required': ['trace', 'summary', 'allocator', 'requests'],
    'properties': {
        'trace': {
            'type': 'object',
            'required': ['key', 'n_requests'],
            'properties': {
                'key': {'type': 'string'},
                'n_requests': _COUNTER,
                'seed': {'type': 'integer'},
            },
        },
        'summary': {
            'type': 'object',
            'required': ['makespan_cycles', 'completed', 'failed',
                         'timed_out', 'rejected', 'throughput_per_mcycle',
                         'peak_concurrent_jobs', 'peak_queue_depth'],
            'properties': {**SUMMARY_PROPERTIES,
                           'peak_concurrent_jobs': _COUNTER},
        },
        'allocator': {
            'type': 'object',
            'required': ['allocs', 'frees', 'frag_failures',
                         'capacity_failures', 'peak_tiles_busy'],
            'properties': {
                'allocs': _COUNTER,
                'frees': _COUNTER,
                'frag_failures': _COUNTER,
                'capacity_failures': _COUNTER,
                'peak_tiles_busy': _COUNTER,
            },
        },
        'requests': {'type': 'array', 'items': REQUEST_RECORD_SCHEMA},
        'slo': SLO_SECTION_SCHEMA,
        'observability': {
            'type': 'object',
            'required': ['snapshots', 'metrics', 'heatmaps'],
            'properties': {
                'snapshots': _COUNTER,
                'metrics': {'type': 'object'},
                'heatmaps': {'type': 'object'},
            },
        },
    },
}


def trace_key(requests: List[KernelRequest], mesh: str = '') -> str:
    """Content-addressed store key for a trace (``serve-`` prefixed)."""
    canon = json.dumps([r.to_dict() for r in requests], sort_keys=True)
    digest = hashlib.sha256((mesh + canon).encode()).hexdigest()[:16]
    return f'serve-{digest}'


def percentile(values: List[int], q: float) -> float:
    if not values:
        return 0.0
    xs = sorted(values)
    idx = min(len(xs) - 1, int(round(q * (len(xs) - 1))))
    return float(xs[idx])


def _mean(values: List[int]) -> float:
    return sum(values) / len(values) if values else 0.0


def latency_summary(completed: int, makespan: int, latencies: List[int],
                    waits: List[int], breakdowns: List[dict]) -> dict:
    """The latency/throughput summary fields serve and fleet reports
    share; ``latencies`` are the completed requests' only."""
    out = {
        'throughput_per_mcycle': (completed * 1e6 / makespan
                                  if makespan else 0.0),
        'latency_mean': _mean(latencies),
        'latency_p50': percentile(latencies, 0.50),
        'latency_p95': percentile(latencies, 0.95),
        'latency_p99': percentile(latencies, 0.99),
        'queue_wait_mean': _mean(waits),
    }
    if breakdowns:
        # phase totals including the unattributed residual — never
        # silently dropped in aggregation
        out['breakdown_totals'] = merge_breakdowns(breakdowns)
    return out


def build_serve_report(result: ServeResult,
                       seed: Optional[int] = None,
                       mesh: str = '',
                       slo=None,
                       observe=None) -> dict:
    """Assemble (and validate) the serving report document.

    ``slo`` is an optional :class:`~repro.observe.SloPolicy` evaluated
    against the summary into a schema-checked ``slo`` section;
    ``observe`` an optional :class:`~repro.observe.ObservePlane` whose
    metrics + heatmaps land in an ``observability`` section.
    """
    reqs = result.requests
    counts = result.by_state()
    makespan = result.makespan
    records = []
    for r in reqs:
        rec = {'req_id': r.req_id, 'kernel': r.kernel,
               'params': {k: int(v) for k, v in r.params.items()},
               'lanes': r.lanes, 'groups': r.groups,
               'tiles': r.tiles_needed, 'priority': r.priority,
               'arrival': r.arrival, 'state': r.state,
               'instrs': int(r.instrs)}
        if r.timeout is not None:
            rec['timeout'] = r.timeout
        if r.launched_at is not None:
            rec['launched_at'] = r.launched_at
            rec['queue_wait'] = r.queue_wait
        if r.finished_at is not None:
            rec['finished_at'] = r.finished_at
            rec['latency'] = r.latency
        if r.service_cycles is not None:
            rec['service_cycles'] = r.service_cycles
        if r.error is not None:
            rec['error'] = r.error
        if r.breakdown is not None:
            rec['breakdown'] = dict(r.breakdown)
        records.append(rec)
    busy = sum(r.tiles_needed * r.service_cycles for r in reqs
               if r.service_cycles is not None)
    summary = {
        'makespan_cycles': makespan,
        'completed': counts.get(DONE, 0),
        'failed': counts.get(FAILED, 0),
        'timed_out': counts.get(TIMED_OUT, 0),
        'rejected': counts.get(REJECTED, 0),
        'peak_concurrent_jobs': result.peak_concurrent_jobs,
        'peak_queue_depth': result.peak_queue_depth,
        'tile_utilization': (busy / (result.num_tiles * makespan)
                             if result.num_tiles and makespan else 0.0),
        **latency_summary(
            counts.get(DONE, 0), makespan,
            [r.latency for r in reqs
             if r.state == DONE and r.latency is not None],
            [r.queue_wait for r in reqs if r.queue_wait is not None],
            [r.breakdown for r in reqs if r.breakdown is not None]),
    }
    if result.merged_stats is not None:
        summary['total_instrs'] = result.merged_stats.total_instrs
    st = result.alloc_stats
    doc = {
        'trace': {'key': trace_key(reqs, mesh),
                  'n_requests': len(reqs)},
        'summary': summary,
        'allocator': {'allocs': st.allocs, 'frees': st.frees,
                      'frag_failures': st.frag_failures,
                      'capacity_failures': st.capacity_failures,
                      'peak_tiles_busy': st.peak_tiles_busy},
        'requests': records,
    }
    if seed is not None:
        doc['trace']['seed'] = seed
    if slo is not None:
        doc['slo'] = slo.evaluate(summary)
    if observe is not None:
        doc['observability'] = observe.report_dict()
    return SERVE_REPORT.stamp(doc)


def store_serve_report(store, doc: dict) -> str:
    """Persist a serving report in a ResultStore; returns its key."""
    key = doc['trace']['key']
    store.put_doc(key, doc)
    return key


def render_serve_report(doc: dict) -> str:
    """Human-readable per-request table + summary."""
    s = doc['summary']
    lines = [f'serving report ({doc["trace"]["n_requests"]} requests, '
             f'trace {doc["trace"]["key"]})',
             f'{"id":>4} {"kernel":10} {"shape":>7} {"prio":>4} '
             f'{"arrival":>9} {"wait":>8} {"service":>9} {"latency":>9} '
             f'state']
    for r in doc['requests']:
        shape = f'{r["groups"]}xV{r["lanes"]}'
        lines.append(
            f'{r["req_id"]:>4} {r["kernel"]:10} {shape:>7} '
            f'{r["priority"]:>4} {r["arrival"]:>9} '
            f'{r.get("queue_wait", "-"):>8} '
            f'{r.get("service_cycles", "-"):>9} '
            f'{r.get("latency", "-"):>9} {r["state"]}')
    lines.append(
        f'makespan {s["makespan_cycles"]} cycles; '
        f'{s["completed"]} done / {s["failed"]} failed / '
        f'{s["timed_out"]} timed-out / {s["rejected"]} rejected; '
        f'throughput {s["throughput_per_mcycle"]:.2f} req/Mcycle')
    lines.append(
        f'latency mean {s["latency_mean"]:.0f} p50 {s["latency_p50"]:.0f} '
        f'p95 {s["latency_p95"]:.0f}; peak {s["peak_concurrent_jobs"]} '
        f'concurrent job(s), queue depth {s["peak_queue_depth"]}')
    a = doc['allocator']
    lines.append(
        f'allocator: {a["allocs"]} allocs, {a["frag_failures"]} '
        f'fragmentation stalls, {a["capacity_failures"]} capacity '
        f'stalls, peak {a["peak_tiles_busy"]} tiles busy')
    totals = s.get('breakdown_totals')
    if totals:
        grand = sum(totals.values()) or 1
        lines.append('cycle attribution (all completed requests): ' +
                     '  '.join(f'{phase} {v} ({v * 100 // grand}%)'
                               for phase, v in totals.items()))
    if 'slo' in doc:
        from ..observe import render_slo
        lines.append(render_slo(doc['slo']))
    return '\n'.join(lines)


SERVE_REPORT = Artifact(SERVE_REPORT_KIND, SERVE_SCHEMA_VERSION,
                        _BODY_SCHEMA, render_serve_report)
SERVE_REPORT_SCHEMA = SERVE_REPORT.schema
validate_serve_report = SERVE_REPORT.validate
load_serve_report = SERVE_REPORT.load
