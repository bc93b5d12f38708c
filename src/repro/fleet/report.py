"""The cross-shard fleet report: schema, build, validate, render.

One JSON artifact tells the whole fleet's story: global per-request
records (with shard placement, re-route attempts, router wait, and the
causal phase breakdown re-based to *global* latency), per-shard
lifecycle rows, every autoscale/crash event, and a fleet summary whose
instruction totals come from :meth:`~repro.manycore.RunStats.merge`
over every shard batch's merged stats — the same lossless aggregation
path the sweep engine uses.

Two invariants are *enforced at build time* (not merely schema-typed),
because CI gates on them:

* **request conservation** — every submitted request is accounted for:
  ``submitted == completed + failed + timed_out + rejected``;
* **breakdown conservation** — each completed request's phase breakdown
  (queue + launch + execute + frame_stall + llc + inet + unattributed,
  with router wait folded into ``queue``) sums exactly to its global
  latency.

The summary reuses the serving report's metric names, so any existing
:class:`~repro.observe.SloPolicy` file evaluates against a fleet run
unchanged.
"""

from __future__ import annotations

from typing import Optional

from ..artifact import Artifact, ReportValidationError
from ..jobs.serialize import stats_from_dict
from ..manycore import RunStats
from ..observe import BREAKDOWN_PHASES
from ..serve.report import (REQUEST_RECORD_SCHEMA, SUMMARY_PROPERTIES,
                            _mean, latency_summary)
from .router import FleetResult

FLEET_SCHEMA_VERSION = 1
FLEET_REPORT_KIND = 'repro-fleet-report'

_COUNTER = {'type': 'integer', 'minimum': 0}
_NUMBER = {'type': 'number'}

#: a serve request record plus the router's placement fields
FLEET_REQUEST_SCHEMA = {
    'type': 'object',
    'required': REQUEST_RECORD_SCHEMA['required'] + ['attempts',
                                                     'router_wait'],
    'properties': {
        **REQUEST_RECORD_SCHEMA['properties'],
        'shard': _COUNTER,
        'epoch': _COUNTER,
        'attempts': _COUNTER,
        'router_wait': _COUNTER,
        'digest': {'type': 'string'},
    },
}

SHARD_ROW_SCHEMA = {
    'type': 'object',
    'required': ['shard_id', 'state', 'born_epoch', 'batches', 'served'],
    'properties': {
        'shard_id': _COUNTER,
        'state': {'type': 'string',
                  'enum': ['active', 'draining', 'dead', 'retired']},
        'born_epoch': _COUNTER,
        'batches': _COUNTER,
        'served': _COUNTER,
        'crashed_epoch': _COUNTER,
        'retired_epoch': _COUNTER,
    },
}

EVENT_SCHEMA = {
    'type': 'object',
    'required': ['epoch', 'action', 'reason', 'shards_before',
                 'shards_after'],
    'properties': {
        'epoch': _COUNTER,
        'action': {'type': 'string', 'enum': ['up', 'down', 'replace']},
        'reason': {'type': 'string'},
        'shards_before': _COUNTER,
        'shards_after': _COUNTER,
        'latency_p99': _NUMBER,
        'tile_utilization': _NUMBER,
    },
}

_BODY_SCHEMA = {
    'required': ['traffic', 'fleet', 'summary', 'requests'],
    'properties': {
        'traffic': {
            'type': 'object',
            'required': ['n_requests'],
            'properties': {
                'n_requests': _COUNTER,
                'pattern': {'type': 'string'},
                'seed': {'type': 'integer'},
            },
        },
        'fleet': {
            'type': 'object',
            'required': ['initial_shards', 'final_shards', 'peak_shards',
                         'epochs', 'epoch_cycles', 'batches', 'crashes',
                         'rerouted', 'shards', 'events'],
            'properties': {
                'initial_shards': _COUNTER,
                'final_shards': _COUNTER,
                'peak_shards': _COUNTER,
                'epochs': _COUNTER,
                'epoch_cycles': _COUNTER,
                'batches': _COUNTER,
                'crashes': _COUNTER,
                'rerouted': _COUNTER,
                'affinity_hits': _COUNTER,
                'shards': {'type': 'array', 'items': SHARD_ROW_SCHEMA},
                'events': {'type': 'array', 'items': EVENT_SCHEMA},
            },
        },
        'summary': {
            'type': 'object',
            'required': ['makespan_cycles', 'submitted', 'completed',
                         'failed', 'timed_out', 'rejected',
                         'throughput_per_mcycle', 'peak_queue_depth'],
            'properties': {**SUMMARY_PROPERTIES,
                           'submitted': _COUNTER,
                           'router_wait_mean': _NUMBER},
        },
        'requests': {'type': 'array', 'items': FLEET_REQUEST_SCHEMA},
        'slo': {'type': 'object'},
    },
}


class FleetInvariantError(ReportValidationError, AssertionError):
    """A fleet-level conservation invariant failed."""


def check_conservation(doc: dict) -> None:
    """Enforce the request- and breakdown-conservation invariants."""
    s = doc['summary']
    accounted = (s['completed'] + s['failed'] + s['timed_out']
                 + s['rejected'])
    if s['submitted'] != accounted:
        raise FleetInvariantError(
            f'request conservation violated: {s["submitted"]} submitted '
            f'!= {accounted} accounted '
            f'({s["completed"]} done + {s["failed"]} failed + '
            f'{s["timed_out"]} timed-out + {s["rejected"]} rejected)')
    for rec in doc['requests']:
        bd = rec.get('breakdown')
        if bd is None or rec.get('latency') is None:
            continue
        total = sum(bd[p] for p in BREAKDOWN_PHASES)
        if total != rec['latency']:
            raise FleetInvariantError(
                f'breakdown conservation violated for request '
                f'{rec["req_id"]}: phases sum to {total}, latency is '
                f'{rec["latency"]}')


def build_fleet_report(result: FleetResult,
                       pattern: Optional[str] = None,
                       seed: Optional[int] = None,
                       slo=None) -> dict:
    """Assemble, invariant-check, and schema-validate the fleet report."""
    records = sorted((e.record for e in result.entries
                      if e.record is not None),
                     key=lambda r: r['req_id'])
    by_state = {}
    for e in result.entries:
        by_state[e.state] = by_state.get(e.state, 0) + 1
    makespan = result.final_cycle
    busy = sum(m * u * tiles for (m, tiles, u) in result.batch_busy)
    denom = sum(m * tiles for (m, tiles, _) in result.batch_busy)
    summary = {
        'makespan_cycles': makespan,
        'submitted': len(result.entries),
        'completed': by_state.get('done', 0),
        'failed': by_state.get('failed', 0),
        'timed_out': by_state.get('timed-out', 0),
        'rejected': by_state.get('rejected', 0),
        'peak_queue_depth': result.peak_queue_depth,
        'router_wait_mean': _mean([r['router_wait'] for r in records]),
        # utilization of shards *while busy* — the autoscaler's signal
        'tile_utilization': (busy / denom) if denom else 0.0,
        **latency_summary(
            by_state.get('done', 0), makespan,
            [r['latency'] for r in records
             if r['state'] == 'done' and r.get('latency') is not None],
            [r['queue_wait'] for r in records
             if r.get('queue_wait') is not None],
            [r['breakdown'] for r in records
             if r.get('breakdown') is not None]),
    }
    if result.stats_docs:
        merged = RunStats.merge(
            [stats_from_dict(d) for d in result.stats_docs])
        summary['total_instrs'] = merged.total_instrs
    shards = []
    for sh in result.shards:
        row = {'shard_id': sh.shard_id, 'state': sh.state,
               'born_epoch': sh.born_epoch, 'batches': sh.batches,
               'served': sh.served}
        if sh.crashed_epoch is not None:
            row['crashed_epoch'] = sh.crashed_epoch
        if sh.retired_epoch is not None:
            row['retired_epoch'] = sh.retired_epoch
        shards.append(row)
    doc = {
        'traffic': {'n_requests': len(result.entries)},
        'fleet': {
            'initial_shards': result.initial_shards,
            'final_shards': sum(1 for s in result.shards
                                if s.state == 'active'),
            'peak_shards': result.peak_shards,
            'epochs': result.epochs,
            'epoch_cycles': result.epoch_cycles,
            'batches': result.batches,
            'crashes': result.crashes,
            'rerouted': result.rerouted,
            'affinity_hits': result.affinity_hits,
            'shards': shards,
            'events': list(result.events),
        },
        'summary': summary,
        'requests': records,
    }
    if pattern is not None:
        doc['traffic']['pattern'] = pattern
    if seed is not None:
        doc['traffic']['seed'] = seed
    if slo is not None:
        doc['slo'] = slo.evaluate(summary)
    return FLEET_REPORT.stamp(doc)


def render_fleet_report(doc: dict) -> str:
    """Human-readable fleet wrap-up."""
    f = doc['fleet']
    s = doc['summary']
    lines = [
        f'fleet report ({s["submitted"]} requests, '
        f'{f["initial_shards"]} -> {f["final_shards"]} shard(s), '
        f'peak {f["peak_shards"]}, {f["epochs"]} epoch(s) of '
        f'{f["epoch_cycles"]} cycles)',
        f'  {s["completed"]} done / {s["failed"]} failed / '
        f'{s["timed_out"]} timed-out / {s["rejected"]} rejected '
        f'(conserved); {f["batches"]} batch(es), {f["crashes"]} '
        f'crash(es), {f["rerouted"]} re-route(s), '
        f'{f.get("affinity_hits", 0)} affinity hit(s)',
        f'  latency mean {s["latency_mean"]:.0f} '
        f'p50 {s["latency_p50"]:.0f} p95 {s["latency_p95"]:.0f} '
        f'p99 {s["latency_p99"]:.0f}; router wait mean '
        f'{s["router_wait_mean"]:.0f}; throughput '
        f'{s["throughput_per_mcycle"]:.2f} req/Mcycle; busy-shard '
        f'utilization {s["tile_utilization"]:.2f}',
    ]
    for row in f['shards']:
        extra = ''
        if 'crashed_epoch' in row:
            extra = f' (crashed @e{row["crashed_epoch"]})'
        elif 'retired_epoch' in row:
            extra = f' (retired @e{row["retired_epoch"]})'
        lines.append(f'  shard {row["shard_id"]:>3}: {row["state"]:8} '
                     f'{row["batches"]:>4} batch(es) '
                     f'{row["served"]:>5} served{extra}')
    for ev in f['events']:
        lines.append(f'  e{ev["epoch"]:>4} {ev["action"].upper():7} '
                     f'{ev["shards_before"]} -> {ev["shards_after"]}: '
                     f'{ev["reason"]}')
    totals = s.get('breakdown_totals')
    if totals:
        grand = sum(totals.values()) or 1
        lines.append('  cycle attribution: ' + '  '.join(
            f'{phase} {v} ({v * 100 // grand}%)'
            for phase, v in totals.items()))
    if 'slo' in doc:
        from ..observe import render_slo
        lines.append(render_slo(doc['slo']))
    return '\n'.join(lines)


FLEET_REPORT = Artifact(FLEET_REPORT_KIND, FLEET_SCHEMA_VERSION,
                        _BODY_SCHEMA, render_fleet_report,
                        check=check_conservation)
FLEET_REPORT_SCHEMA = FLEET_REPORT.schema
validate_fleet_report = FLEET_REPORT.validate
load_fleet_report = FLEET_REPORT.load
