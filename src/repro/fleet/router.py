"""The fleet front-end: admission, routing, dispatch, fault recovery.

The router advances a **global clock in epochs** of ``epoch_cycles``
simulated cycles.  At each boundary it (in order) collects finished
shard batches, lets the autoscaler resize the fleet, admits newly
arrived requests from the (possibly streaming) trace, routes the queue
onto shards, and dispatches every idle shard's backlog as one
:class:`~repro.fleet.shard.ShardBatch` through the worker pool.  A
shard is busy from its dispatch boundary until the first boundary at or
after ``dispatch + batch makespan`` — in-shard timelines stay exact
(the serve scheduler's cycle-level record), the fleet quantizes only
*hand-off* points, and every request's global latency decomposes as
``router_wait + in-shard latency`` with the router wait folded into the
``queue`` phase so the breakdown still sums exactly to latency.

Routing is **join-shortest-queue with request affinity**: a request
whose job key (kernel + params) was last served by a live shard sticks
to that shard when its backlog has room, otherwise the shortest backlog
wins (ties to the lowest shard id).  Backpressure is two-level: a shard
whose backlog is at ``shard_queue_cap`` takes no new requests (the
router queue absorbs the wait), and when the router queue itself is at
``max_queue``, *admission control* rejects new arrivals outright —
an over-committed fleet says no at the front door instead of
accumulating unbounded latency.

Fault tolerance: an injected (or real) worker death surfaces as a
``crashed`` batch outcome; the shard is marked dead, its batch's and
backlog's requests re-enter the router queue (``attempts`` bumped,
capped by ``max_reroutes``), and a replacement shard spawns to restore
the fleet floor.  Because co-scheduled kernels are bit-identical to
isolated runs, the re-executed requests must reproduce the exact
output digests of a crash-free fleet — tests enforce this.

The router is the one place a shard outcome becomes fleet state: it
moves a batch's records onto the global clock once, counts each fleet
total once (in :attr:`FleetRouter.metrics`), and hands the flight
collector the records it built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..jobs.engine import CRASHED, DONE as JOB_DONE_STATUS
from ..observe import MetricsRegistry
from ..serve import DONE, KernelRequest
from .autoscaler import REPLACE, Autoscaler, scale_event
from .shard import ACTIVE, DEAD, DRAINING, RETIRED, ShardBatch, ShardPool


@dataclass
class FleetConfig:
    """Fleet shape and routing knobs (autoscale policy rides separately)."""

    shards: int = 3              # initial fleet size
    epoch_cycles: int = 50_000   # hand-off quantum (simulated cycles)
    shard_queue_cap: int = 8     # per-shard backlog cap (backpressure)
    max_queue: int = 256         # router queue cap (admission control)
    affinity: bool = True        # job-key stickiness on top of JSQ
    workers: int = 4             # concurrent worker processes
    timeout: Optional[float] = None  # wall-clock per batch (seconds)
    max_reroutes: int = 2        # re-executions after shard crashes
    max_epochs: int = 100_000    # runaway guard
    #: fault injection: (shard_id, epoch) pairs; the named shard's first
    #: batch dispatched at or after that epoch is killed mid-run
    crashes: Tuple[Tuple[int, int], ...] = ()
    #: each shard appends observe-plane snapshots to DIR/shard<N>.jsonl
    #: across its batches; None runs the shards without a plane
    shard_metrics_dir: Optional[str] = None
    snapshot_interval: int = 5000  # cycles between shard snapshots


@dataclass
class ShardState:
    """Router-side view of one shard."""

    shard_id: int
    state: str = ACTIVE
    born_epoch: int = 0
    backlog: List['FleetEntry'] = field(default_factory=list)
    busy: Optional[dict] = None      # in-flight dispatch info
    busy_until: Optional[int] = None
    batches: int = 0
    served: int = 0
    crashed_epoch: Optional[int] = None
    retired_epoch: Optional[int] = None

    @property
    def routable(self) -> bool:
        return self.state == ACTIVE

    @property
    def idle(self) -> bool:
        return self.busy is None


class FleetEntry:
    """One request's journey through the fleet (router bookkeeping)."""

    __slots__ = ('req', 'state', 'attempts', 'shard', 'epoch',
                 'dispatched_at', 'record', 'digest', 'rerouted')

    def __init__(self, req: KernelRequest):
        self.req = req
        self.state = 'queued'
        self.attempts = 0
        self.shard: Optional[int] = None
        self.epoch: Optional[int] = None
        self.dispatched_at: Optional[int] = None
        self.record: Optional[dict] = None
        self.digest: Optional[str] = None
        self.rerouted = 0

    @property
    def job_key(self) -> tuple:
        p = self.req.params
        return (self.req.kernel, tuple(sorted(p.items())))


@dataclass
class FleetResult:
    """Everything one fleet run produced (input to the fleet report)."""

    entries: List[FleetEntry]
    shards: List[ShardState]
    events: List[dict]            # autoscale + crash-replacement events
    epochs: int
    final_cycle: int
    epoch_cycles: int
    initial_shards: int
    peak_shards: int
    peak_queue_depth: int
    stats_docs: List[dict]        # per-batch merged RunStats (dict form)
    batch_busy: List[Tuple[int, int, float]]  # (makespan, tiles, util)
    metrics: MetricsRegistry      # holds the fleet counts read below
    epoch_log: List[dict]

    @property
    def completed(self) -> List[FleetEntry]:
        return [e for e in self.entries if e.state == DONE]

    def _count(self, name: str) -> int:
        return self.metrics.get(name).labels().value

    batches = property(lambda self: self._count('fleet_batches_dispatched'))
    crashes = property(lambda self: self._count('fleet_shard_crashes'))
    rerouted = property(lambda self: self._count('fleet_requests_rerouted'))
    rejected_admission = property(
        lambda self: self._count('fleet_requests_rejected'))
    affinity_hits = property(lambda self: self._count('fleet_affinity_hits'))


class FleetRouter:
    """Drives a sharded fleet over an open-loop request trace."""

    def __init__(self, config: FleetConfig,
                 autoscaler: Optional[Autoscaler] = None,
                 pool: Optional[ShardPool] = None,
                 flight=None):
        self.cfg = config
        self.autoscaler = autoscaler
        #: optional repro.flight.FleetFlight collector; every hook call
        #: below is None-guarded so the default path costs one check
        self.flight = flight
        self.pool = pool if pool is not None else ShardPool(
            workers=config.workers, timeout=config.timeout)
        self.shards: Dict[int, ShardState] = {}
        self._next_shard_id = 0
        for _ in range(max(1, config.shards)):
            self._spawn_shard(epoch=0)
        self.queue: List[FleetEntry] = []
        self.entries: List[FleetEntry] = []
        self.events: List[dict] = []
        self._affinity: Dict[tuple, int] = {}
        self._pending_crashes = {(s, e) for s, e in config.crashes}
        self.stats_docs: List[dict] = []
        self.batch_busy: List[Tuple[int, int, float]] = []
        self.peak_queue_depth = 0
        self.epoch_log: List[dict] = []
        m = self.metrics = MetricsRegistry()
        m.counter('fleet_requests_submitted', 'requests entering admission')
        m.counter('fleet_requests_completed', 'requests finished done')
        m.counter('fleet_requests_rejected', 'admission-control rejections')
        m.counter('fleet_requests_rerouted',
                  're-queued after a shard crash')
        m.counter('fleet_batches_dispatched', 'shard busy periods')
        m.counter('fleet_shard_crashes', 'worker deaths observed')
        m.counter('fleet_affinity_hits', 'requests routed by job affinity')
        m.gauge('fleet_shards_active', 'routable shards')
        m.gauge('fleet_queue_depth', 'router queue occupancy')
        m.histogram('fleet_latency', 'global request latency', 'cycles')
        m.histogram('fleet_router_wait', 'cycles waiting in the router',
                    'cycles')

    # --------------------------------------------------------------- fleet ops
    def _spawn_shard(self, epoch: int) -> ShardState:
        sh = ShardState(shard_id=self._next_shard_id, born_epoch=epoch)
        self._next_shard_id += 1
        self.shards[sh.shard_id] = sh
        return sh

    def _active(self) -> List[ShardState]:
        return [s for s in self.shards.values() if s.state == ACTIVE]

    def _live(self) -> List[ShardState]:
        return [s for s in self.shards.values()
                if s.state in (ACTIVE, DRAINING)]

    # ---------------------------------------------------------------- the run
    def run(self, trace: Iterable[KernelRequest]) -> FleetResult:
        """Route a (lazily consumed) trace to completion."""
        cfg = self.cfg
        stream = iter(trace)
        pending_arrival: Optional[KernelRequest] = next(stream, None)
        epoch = 0
        final_cycle = 0
        peak_shards = len(self._live())
        while True:
            t = epoch * cfg.epoch_cycles
            self._collect_completions(t, epoch)
            self._autoscale(epoch)
            pending_arrival, exhausted = self._admit(
                stream, pending_arrival, t)
            self._route(epoch)
            dispatched = self._dispatch(t, epoch)
            peak_shards = max(peak_shards, len(self._live()))
            final_cycle = t
            busy = [s for s in self._live() if not s.idle]
            if (exhausted and not self.queue and not busy
                    and not any(s.backlog for s in self._live())):
                break
            if epoch >= cfg.max_epochs:
                self._strand_remaining(t)
                break
            self._log_epoch(epoch, t, dispatched)
            epoch += 1
        self._log_epoch(epoch, final_cycle, 0)
        if self.flight is not None:
            self.flight.finalize(self.entries, final_cycle)
        return FleetResult(
            entries=self.entries, shards=sorted(
                self.shards.values(), key=lambda s: s.shard_id),
            events=self.events, epochs=epoch, final_cycle=final_cycle,
            epoch_cycles=cfg.epoch_cycles, initial_shards=cfg.shards,
            peak_shards=peak_shards,
            peak_queue_depth=self.peak_queue_depth,
            stats_docs=self.stats_docs, batch_busy=self.batch_busy,
            metrics=self.metrics, epoch_log=self.epoch_log)

    # ------------------------------------------------------------ completions
    def _collect_completions(self, t: int, epoch: int) -> None:
        for sh in list(self.shards.values()):
            if sh.busy is None or sh.busy_until is None \
                    or sh.busy_until > t:
                continue
            info = sh.busy
            sh.busy = None
            sh.busy_until = None
            outcome = info['outcome']
            if outcome.status == CRASHED:
                self._on_shard_crash(sh, info, epoch)
                continue
            if outcome.status != JOB_DONE_STATUS:
                # deterministic worker failure (bug, not crash): the
                # requests are terminally failed — re-running the same
                # deterministic job cannot succeed
                for entry in info['entries']:
                    self._close(
                        entry, 'failed', t,
                        f'shard batch {outcome.status}: '
                        f'{outcome.error.strip()[-200:]}')
                continue
            self._absorb_batch(sh, info, outcome.result, epoch)
            if sh.state == DRAINING and not sh.backlog:
                sh.state = RETIRED
                sh.retired_epoch = epoch

    def _absorb_batch(self, sh: ShardState, info: dict, doc: dict,
                      epoch: int) -> None:
        """Fold a finished batch's serve report into global records."""
        dispatch = info['dispatched_at']
        by_id = {e.req.req_id: e for e in info['entries']}
        if doc.get('stats'):
            self.stats_docs.append(doc['stats'])
        report = doc['report']
        makespan = doc['makespan']
        tiles = doc.get('num_tiles', 0)
        util = report['summary'].get('tile_utilization', 0.0)
        self.batch_busy.append((makespan, tiles, util))
        if self.autoscaler is not None:
            self.autoscaler.observe_utilization(epoch, util)
        records = []
        for rec in report['requests']:
            entry = by_id[rec['req_id']]
            router_wait = dispatch - entry.req.arrival
            record = dict(rec)
            record['shard'] = sh.shard_id
            record['epoch'] = info['epoch']
            record['attempts'] = entry.attempts
            record['router_wait'] = router_wait
            record['arrival'] = entry.req.arrival
            if 'launched_at' in rec:
                record['launched_at'] = dispatch + rec['launched_at']
                record['queue_wait'] = (router_wait
                                        + rec.get('queue_wait', 0))
            if 'finished_at' in rec:
                record['finished_at'] = dispatch + rec['finished_at']
                record['latency'] = router_wait + rec.get('latency', 0)
            if rec.get('breakdown') is not None:
                bd = dict(rec['breakdown'])
                # the router wait is queueing by another name; folding
                # it into the queue phase keeps the conservation
                # invariant at the *global* latency
                bd['queue'] = bd.get('queue', 0) + router_wait
                record['breakdown'] = bd
            digest = doc['digests'].get(str(rec['req_id']))
            entry.state = rec['state']
            entry.record = record
            entry.digest = digest
            if digest is not None:
                record['digest'] = digest
            records.append(record)
            if rec['state'] == DONE:
                sh.served += 1
                self.metrics.counter('fleet_requests_completed').inc()
                if record.get('latency') is not None:
                    self.metrics.histogram('fleet_latency').observe(
                        record['latency'])
                    if self.autoscaler is not None:
                        self.autoscaler.observe_completion(
                            epoch, record['latency'])
            self.metrics.histogram('fleet_router_wait').observe(
                router_wait)
        if self.flight is not None:
            self.flight.on_batch_done(sh, info, makespan, util, records)

    def _on_shard_crash(self, sh: ShardState, info: dict,
                        epoch: int) -> None:
        """Re-route a dead shard's in-flight and backlogged requests."""
        sh.state = DEAD
        sh.crashed_epoch = epoch
        self.metrics.counter('fleet_shard_crashes').inc()
        backlog = sh.backlog
        orphans = info['entries'] + backlog
        sh.backlog = []
        t = epoch * self.cfg.epoch_cycles
        if self.flight is not None:
            self.flight.on_crash(sh, info['entries'], backlog, t, epoch)
        for entry in orphans:
            if entry.attempts > self.cfg.max_reroutes:
                if self.flight is not None:
                    self.flight.on_reroute_exhausted(entry, sh, t)
                self._close(
                    entry, 'failed', t,
                    f'shard {sh.shard_id} crashed; request exceeded '
                    f'{self.cfg.max_reroutes} re-route(s)')
                continue
            entry.state = 'queued'
            entry.shard = None
            entry.rerouted += 1
            self.metrics.counter('fleet_requests_rerouted').inc()
            if self.flight is not None:
                self.flight.on_reroute(entry, sh, t)
            self.queue.append(entry)
        # restore the fleet floor so the survivors aren't permanently
        # down a shard
        floor = (self.autoscaler.policy.min_shards
                 if self.autoscaler is not None else self.cfg.shards)
        if len(self._active()) < floor:
            replacement = self._spawn_shard(epoch)
            before = len(self._active()) - 1
            reason = (f'shard {sh.shard_id} crashed; spawned shard '
                      f'{replacement.shard_id} to restore the floor '
                      f'of {floor}')
            if self.autoscaler is not None:
                self.autoscaler.record_replace(epoch, before, reason)
                self.events.append(self.autoscaler.events[-1])
            else:
                # without an autoscaler there is no signal window
                self.events.append(scale_event(
                    epoch, REPLACE, before, before + 1, 0.0, 0.0, reason))
            if self.flight is not None:
                self.flight.on_replace(self.events[-1], t)
        # the post-mortem is dumped *after* the reroutes and the
        # replacement-spawn decision so the black box tells the whole
        # story: crash -> reroute -> replace, in ring order
        if self.flight is not None:
            self.flight.dump_postmortem(
                'crash',
                f'shard {sh.shard_id} worker died at epoch {epoch} '
                f'with {len(orphans)} request(s) in flight or queued',
                t)

    def _close(self, entry: FleetEntry, state: str, t: int,
               error: str) -> None:
        """End a request with no shard report behind it (rejected at
        admission, or failed router-side) in the one record layout."""
        req = entry.req
        entry.state = state
        entry.record = {
            'req_id': req.req_id, 'kernel': req.kernel,
            'params': dict(req.params), 'lanes': req.lanes,
            'groups': req.groups, 'tiles': req.tiles_needed,
            'priority': req.priority, 'arrival': req.arrival,
            'state': state, 'attempts': entry.attempts, 'router_wait': 0,
            'finished_at': t, 'error': error}
        if entry.shard is not None:
            entry.record['shard'] = entry.shard

    # -------------------------------------------------------------- autoscale
    def _autoscale(self, epoch: int) -> None:
        if self.autoscaler is None:
            return
        action = self.autoscaler.decide(epoch, len(self._active()))
        if action is None:
            return
        self.events.append(self.autoscaler.events[-1])
        if self.flight is not None:
            self.flight.on_autoscale(self.events[-1],
                                     epoch * self.cfg.epoch_cycles)
        if action == 'up':
            self._spawn_shard(epoch)
        elif action == 'down':
            victims = self._active()
            # never drain the last routable shard; prefer an idle one
            # with the smallest backlog, newest first (LIFO shrink)
            if len(victims) <= 1:
                return
            victim = sorted(
                victims, key=lambda s: (not s.idle, len(s.backlog),
                                        -s.shard_id))[0]
            victim.state = DRAINING
            if victim.idle and not victim.backlog:
                victim.state = RETIRED
                victim.retired_epoch = epoch

    # -------------------------------------------------- admission and routing
    def _admit(self, stream, pending: Optional[KernelRequest],
               t: int) -> Tuple[Optional[KernelRequest], bool]:
        """Pull every request with ``arrival <= t`` off the stream."""
        cfg = self.cfg
        while pending is not None and pending.arrival <= t:
            entry = FleetEntry(pending)
            self.entries.append(entry)
            self.metrics.counter('fleet_requests_submitted').inc()
            if len(self.queue) >= cfg.max_queue:
                self._close(entry, 'rejected', t,
                            f'admission control: router queue at cap '
                            f'{cfg.max_queue}')
                self.metrics.counter('fleet_requests_rejected').inc()
                if self.flight is not None:
                    self.flight.on_reject(entry, t)
            else:
                self.queue.append(entry)
                if self.flight is not None:
                    self.flight.on_admit(entry, t)
            pending = next(stream, None)
        self.peak_queue_depth = max(self.peak_queue_depth,
                                    len(self.queue))
        self.metrics.gauge('fleet_queue_depth').set(len(self.queue))
        return pending, pending is None

    def _route(self, epoch: int) -> None:
        """JSQ + affinity: move queued entries onto shard backlogs."""
        cfg = self.cfg
        self.queue.sort(key=lambda e: (-e.req.priority, e.req.arrival,
                                       e.req.req_id))
        waiting: List[FleetEntry] = []
        for entry in self.queue:
            candidates = [s for s in self._active()
                          if len(s.backlog) < cfg.shard_queue_cap]
            if not candidates:
                waiting.append(entry)  # per-shard backpressure: wait
                continue
            target = None
            if cfg.affinity:
                home = self._affinity.get(entry.job_key)
                if home is not None:
                    sh = self.shards.get(home)
                    if sh is not None and sh in candidates:
                        target = sh
                        self.metrics.counter('fleet_affinity_hits').inc()
            if target is None:
                target = min(candidates,
                             key=lambda s: (len(s.backlog), s.shard_id))
            target.backlog.append(entry)
            entry.shard = target.shard_id
            if cfg.affinity:
                self._affinity[entry.job_key] = target.shard_id
        self.queue = waiting

    # ---------------------------------------------------------------- dispatch
    def _dispatch(self, t: int, epoch: int) -> int:
        """Launch every idle shard's backlog as one parallel batch."""
        cfg = self.cfg
        launches: List[Tuple[ShardState, ShardBatch, List[FleetEntry]]] = []
        for sh in sorted(self._live(), key=lambda s: s.shard_id):
            if not sh.idle or not sh.backlog:
                continue
            entries = sh.backlog
            sh.backlog = []
            crash = False
            for (cs, ce) in sorted(self._pending_crashes):
                if cs == sh.shard_id and epoch >= ce:
                    crash = True
                    self._pending_crashes.discard((cs, ce))
                    break
            for e in entries:
                e.attempts += 1
                e.epoch = epoch
                e.dispatched_at = t
            batch = ShardBatch(
                shard_id=sh.shard_id, epoch=epoch,
                requests=tuple(
                    dict(e.req.to_dict(), arrival=0) for e in entries),
                crash=crash,
                metrics_out=(
                    f'{cfg.shard_metrics_dir}/shard{sh.shard_id}.jsonl'
                    if cfg.shard_metrics_dir else None),
                snapshot_interval=cfg.snapshot_interval)
            if self.flight is not None:
                self.flight.on_dispatch(sh, entries, t, epoch, crash)
            launches.append((sh, batch, entries))
        if not launches:
            return 0
        outcomes = self.pool.run_batches([b for _, b, _ in launches])
        for (sh, batch, entries), outcome in zip(launches, outcomes):
            sh.batches += 1
            self.metrics.counter('fleet_batches_dispatched').inc()
            if outcome.status == JOB_DONE_STATUS:
                makespan = outcome.result['makespan']
            else:
                # a crashed/failed batch has no makespan; surface it at
                # the next boundary
                makespan = cfg.epoch_cycles
            sh.busy = {'outcome': outcome, 'entries': entries,
                       'dispatched_at': t, 'epoch': epoch}
            # busy until the first boundary at or after completion
            sh.busy_until = t + max(1, makespan)
        return len(launches)

    # ------------------------------------------------------------------ misc
    def _strand_remaining(self, t: int) -> None:
        for sh in self._live():
            if sh.busy is not None:
                for entry in sh.busy['entries']:
                    self._close(entry, 'failed', t, 'fleet epoch limit')
                sh.busy = None
                sh.busy_until = None
            for entry in sh.backlog:
                self._close(entry, 'failed', t, 'fleet epoch limit')
            sh.backlog = []
        for entry in self.queue:
            self._close(entry, 'failed', t, 'fleet epoch limit')
        self.queue = []

    def _log_epoch(self, epoch: int, t: int, dispatched: int) -> None:
        self.metrics.gauge('fleet_shards_active').set(len(self._active()))
        self.epoch_log.append({
            'epoch': epoch, 'cycle': t, 'dispatched': dispatched,
            'queue_depth': len(self.queue),
            'shards_active': len(self._active()),
            'shards_draining': sum(
                1 for s in self.shards.values() if s.state == DRAINING),
            'metrics': self.metrics.snapshot()})
        if self.flight is not None:
            self.flight.on_epoch(self.epoch_log[-1])
