"""FleetFlight: the router-side collector tying the layer together.

One :class:`FleetFlight` instance rides along a
:class:`~repro.fleet.FleetRouter` run (``FleetRouter(..., flight=...)``)
and turns routing decisions into the three flight artifacts:

* **spans** — every request's life as a tree (root ``request`` span on
  the router track; per-attempt queue waits, reroute gaps, shard
  execution windows, and causal phase leaves), written as a flight
  journal and mergeable into one Perfetto trace;
* **events** — the black-box ring (:class:`FlightRecorder`), including
  each shard worker's launch/complete/deadlock events, derived from the
  global request records the router builds when it absorbs a batch;
* **post-mortems** — dumped automatically on the crash/deadlock
  triggers as they happen (and on SLO-fail by
  :meth:`FleetFlight.conclude` once the run's report is evaluated), each
  correlating the ring, recent metric snapshots, and the spans still
  open at the trigger instant.

Everything here is host-side bookkeeping over numbers the router
already computed: no fabric event is ever posted, so simulated cycle
counts and output digests are bit-identical with flight on or off —
the same discipline (and the same enforcement tests) as the observe
plane.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..manycore.fabric import DEADLOCK_HEADLINE
from ..observe.rtrace import BREAKDOWN_PHASES
from ..spans import (KIND_PHASE, KIND_REQUEST, KIND_REROUTE_WAIT,
                     KIND_ROUTER_QUEUE, KIND_SHARD_EXEC, TRACK_ROUTER,
                     make_span, shard_track)
from .anomaly import AnomalyDetector, feed_fleet_epoch
from .journal import write_journal
from .postmortem import (build_postmortem, postmortem_path,
                         save_postmortem)
from .recorder import FlightRecorder


def _trace_id(req) -> str:
    return req.trace_id if req.trace_id is not None \
        else f'req-{req.req_id}'


def _worker_events(records: List[dict],
                   trace_ids: Dict[int, str]) -> List[tuple]:
    """A shard worker's ``(t, kind, data)`` events, derived from its
    batch's global records in time order (ties in record order)."""
    events = []
    for rec in records:
        req_id = rec['req_id']
        ids = {'req_id': req_id, 'trace_id': trace_ids[req_id]}
        if 'launched_at' in rec:
            events.append((rec['launched_at'], 'launch',
                           dict(ids, kernel=rec['kernel'])))
        if 'finished_at' in rec:
            events.append((rec['finished_at'], 'complete',
                           dict(ids, state=rec['state'])))
        if rec.get('error', '').startswith(DEADLOCK_HEADLINE):
            # a wedge-killed request finishes when the kill lands
            events.append((rec['finished_at'], 'deadlock',
                           dict(ids, detail=rec['error'][:2000])))
    events.sort(key=lambda ev: ev[0])
    return events


class FleetFlight:
    """Collects spans, events, anomalies, and post-mortems for one run."""

    def __init__(self, label: str = 'fleet', out_dir: str = '.',
                 ring_capacity: int = 256):
        self.label = label
        self.out_dir = out_dir
        self.recorder = FlightRecorder(capacity=ring_capacity,
                                       source='router')
        self.detector = AnomalyDetector()
        self.spans: List[dict] = []
        self.postmortems: List[dict] = []  # {'trigger','path','t'}
        self._queue_since: Dict[int, int] = {}   # req_id -> enqueue t
        self._open_exec: Dict[int, dict] = {}    # req_id -> open span
        self._last_util: Optional[float] = None

    # ------------------------------------------------------------ router hooks
    def on_admit(self, entry, t: int) -> None:
        req = entry.req
        self.recorder.record('admit', t, req_id=req.req_id,
                             trace_id=_trace_id(req), kernel=req.kernel,
                             priority=req.priority, arrival=req.arrival)
        # the queue wait is measured from arrival, not from the epoch
        # boundary that happened to pull the request off the stream
        self._queue_since[req.req_id] = req.arrival

    def on_reject(self, entry, t: int) -> None:
        req = entry.req
        tid = _trace_id(req)
        self.recorder.record('reject', t, req_id=req.req_id,
                             trace_id=tid, kernel=req.kernel,
                             reason='router queue at cap')
        self.spans.append(make_span(
            tid, f'{tid}/q1', 'router.reject', KIND_ROUTER_QUEUE,
            TRACK_ROUTER, req.arrival, t, parent_id=f'{tid}/root',
            attrs={'req_id': req.req_id, 'rejected': True}))

    def on_dispatch(self, sh, entries, t: int, epoch: int,
                    crash: bool) -> None:
        self.recorder.record('dispatch', t, shard=sh.shard_id,
                             epoch=epoch, requests=len(entries),
                             crash_injected=crash)
        for entry in entries:
            req = entry.req
            tid = _trace_id(req)
            n = entry.attempts  # already bumped for this dispatch
            since = self._queue_since.pop(req.req_id, req.arrival)
            kind = KIND_ROUTER_QUEUE if n == 1 else KIND_REROUTE_WAIT
            name = 'router.queue' if n == 1 else 'router.requeue'
            self.spans.append(make_span(
                tid, f'{tid}/q{n}', name, kind, TRACK_ROUTER, since, t,
                parent_id=f'{tid}/root',
                attrs={'req_id': req.req_id, 'attempt': n,
                       'shard': sh.shard_id}))
            self._open_exec[req.req_id] = make_span(
                tid, f'{tid}/x{n}', f'shard{sh.shard_id}.exec',
                KIND_SHARD_EXEC, shard_track(sh.shard_id), t, None,
                parent_id=f'{tid}/root',
                attrs={'req_id': req.req_id, 'attempt': n,
                       'shard': sh.shard_id})

    def on_batch_done(self, sh, info: dict, makespan: int, util: float,
                      records: List[dict]) -> None:
        """An absorbed batch, given as the global records the router
        built from its serve report (in the report's order)."""
        dispatch = info['dispatched_at']
        self._last_util = util
        self.recorder.record('batch_done', dispatch + makespan,
                             shard=sh.shard_id, epoch=info['epoch'],
                             requests=len(info['entries']),
                             makespan=makespan, tile_utilization=util)
        origin = f'shard{sh.shard_id}'
        events = _worker_events(
            records, {e.req.req_id: _trace_id(e.req)
                      for e in info['entries']})
        for t, kind, data in events:
            self.recorder.record(kind, t, **data, origin=origin)
        for t, kind, data in events:
            if kind == 'deadlock':
                self.dump_postmortem('deadlock', data['detail'], t)
        for rec in records:
            span = self._open_exec.pop(rec['req_id'], None)
            if span is None:
                continue
            span['end'] = rec.get('finished_at', dispatch + makespan)
            span.setdefault('attrs', {})['state'] = rec['state']
            self.spans.append(span)
            bd = rec.get('breakdown')
            if bd:
                # phase leaves tile the exec window exactly: the
                # in-shard conservation invariant says the shard's own
                # phases sum to the local latency, this span's width;
                # the router wait folded into `queue` lies before it
                bd = dict(bd, queue=bd['queue'] - rec['router_wait'])
                at = dispatch
                for i, phase in enumerate(BREAKDOWN_PHASES):
                    width = bd.get(phase, 0)
                    if not width:
                        continue
                    self.spans.append(make_span(
                        span['trace_id'],
                        f'{span["span_id"]}.p{i}', phase, KIND_PHASE,
                        span['track'], at, at + width,
                        parent_id=span['span_id']))
                    at += width

    def on_crash(self, sh, inflight_entries, backlog_entries,
                 t: int, epoch: int) -> None:
        self.recorder.record('crash', t, shard=sh.shard_id, epoch=epoch,
                             inflight=len(inflight_entries),
                             backlog=len(backlog_entries))
        for entry in inflight_entries:
            span = self._open_exec.pop(entry.req.req_id, None)
            if span is None:
                continue
            span['end'] = t
            span.setdefault('attrs', {})['crashed'] = True
            self.spans.append(span)

    def on_reroute(self, entry, sh, t: int) -> None:
        req = entry.req
        self.recorder.record('reroute', t, req_id=req.req_id,
                             trace_id=_trace_id(req),
                             from_shard=sh.shard_id,
                             attempt=entry.attempts)
        # in-flight victims start a fresh wait at the crash boundary;
        # undispatched backlog orphans keep their already-open wait (a
        # second setdefault must not shorten it)
        self._queue_since.setdefault(req.req_id, t)

    def on_reroute_exhausted(self, entry, sh, t: int) -> None:
        req = entry.req
        tid = _trace_id(req)
        self.recorder.record('reroute_exhausted', t, req_id=req.req_id,
                             trace_id=tid, from_shard=sh.shard_id,
                             attempts=entry.attempts)
        since = self._queue_since.pop(req.req_id, None)
        if since is not None:
            self.spans.append(make_span(
                tid, f'{tid}/q{entry.attempts + 1}', 'router.abandon',
                KIND_REROUTE_WAIT, TRACK_ROUTER, since, t,
                parent_id=f'{tid}/root', attrs={'req_id': req.req_id}))

    def on_replace(self, event: dict, t: int) -> None:
        self.recorder.record('replace', t, **{
            k: event[k] for k in ('epoch', 'reason', 'shards_before',
                                  'shards_after') if k in event})

    def on_autoscale(self, event: dict, t: int) -> None:
        self.recorder.record('autoscale', t, **{
            k: event[k] for k in ('epoch', 'action', 'reason',
                                  'shards_before', 'shards_after',
                                  'latency_p99', 'tile_utilization')
            if k in event})

    def on_epoch(self, row: dict) -> None:
        """Clock the detector off one epoch-log row (the same snapshot
        the JSONL sink sees) and remember it for post-mortem context."""
        t = row['cycle']
        self.recorder.record_snapshot(t, row.get('metrics', {}))
        for ev in feed_fleet_epoch(self.detector, row, self._last_util):
            self.recorder.record('anomaly', ev['t'], **{
                k: v for k, v in ev.items() if k != 't'})

    # -------------------------------------------------------------- finalize
    def finalize(self, entries, final_cycle: int) -> None:
        """Close dangling spans and mint every request's root span."""
        for req_id, span in sorted(self._open_exec.items()):
            span['end'] = final_cycle
            span.setdefault('attrs', {})['stranded'] = True
            self.spans.append(span)
        self._open_exec.clear()
        for entry in entries:
            req = entry.req
            tid = _trace_id(req)
            since = self._queue_since.pop(req.req_id, None)
            if since is not None:
                self.spans.append(make_span(
                    tid, f'{tid}/q{entry.attempts + 1}',
                    'router.stranded', KIND_ROUTER_QUEUE, TRACK_ROUTER,
                    since, final_cycle, parent_id=f'{tid}/root',
                    attrs={'req_id': req.req_id}))
            rec = entry.record or {}
            end = rec.get('finished_at')
            if end is None:
                end = final_cycle
            attrs = {'req_id': req.req_id, 'kernel': req.kernel,
                     'state': entry.state, 'attempts': entry.attempts,
                     'rerouted': entry.rerouted}
            if entry.shard is not None:
                attrs['shard'] = entry.shard
            self.spans.append(make_span(
                tid, f'{tid}/root', f'req{req.req_id}:{req.kernel}',
                KIND_REQUEST, TRACK_ROUTER, req.arrival, end,
                attrs=attrs))

    # ------------------------------------------------------------- artifacts
    def journal_path(self) -> str:
        safe = ''.join(c if c.isalnum() or c in '-_' else '_'
                       for c in self.label)
        return os.path.join(self.out_dir, f'FLIGHT_{safe}.jsonl')

    def write_journal(self, path: Optional[str] = None) -> str:
        path = path if path is not None else self.journal_path()
        write_journal(path, self.spans, self.detector.anomalies,
                      label=self.label)
        return path

    def dump_postmortem(self, trigger: str, detail: str,
                        t: int) -> str:
        # the post-mortem's `inflight` section: spans open right now
        doc = build_postmortem(
            self.recorder, self.label, trigger, detail, t,
            inflight=[dict(span) for _, span
                      in sorted(self._open_exec.items())],
            anomalies=self.detector.anomalies)
        path = postmortem_path(self.label, trigger, self.out_dir)
        save_postmortem(doc, path)
        self.postmortems.append({'trigger': trigger, 'path': path,
                                 't': int(t)})
        return path

    def conclude(self, slo: Optional[dict], t: int) -> str:
        """End the run at cycle ``t``: record the fleet report's SLO
        section (if any) as the run's one SLO transition, dump the
        ``slo_fail`` post-mortem when it failed, and write the journal.
        Returns one line per artifact written."""
        if slo:
            self.recorder.record('slo_transition', t, status=slo['status'],
                                 previous=None,
                                 detail='fleet-summary SLO evaluation')
            if slo['status'] == 'fail':
                broken = ', '.join(r['metric'] for r in slo.get('rules', ())
                                   if r.get('status') == 'fail')
                self.dump_postmortem('slo_fail', 'SLO failed on: '
                                     f'{broken or "?"}', t)
        journal = self.write_journal()
        return '\n'.join(
            [f'flight journal: {journal} ({len(self.spans)} spans, '
             f'{len(self.detector.anomalies)} anomalies)']
            + [f'post-mortem [{pm["trigger"]}]: {pm["path"]}'
               for pm in self.postmortems])
