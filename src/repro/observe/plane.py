"""The observability plane: probes -> registry + heatmaps + snapshots.

:class:`ObservePlane` is the serving-time counterpart of
:class:`~repro.telemetry.Telemetry`, and follows the same discipline so
it can stay attached by default:

* the fabric holds ``fabric.observe = None`` unless a plane is attached,
  so the disabled path costs one attribute load and a None check per
  probe site;
* enabled probes are pre-bound ``list.append`` calls that record a
  reference or a small tuple — no route walking, no dict lookups, no
  label formatting on the hot path;
* everything expensive (XY route enumeration, per-bank labeling,
  histogram bucketing, JSONL serialization) happens at *drain* time,
  on snapshot boundaries driven by the fabric's clock the same way the
  telemetry sampler is (no events are posted, so the barrier
  memory-fence check and therefore simulated cycle counts are
  bit-identical with the plane attached — enforced by test).

The plane owns a :class:`~repro.observe.metrics.MetricsRegistry`, the
three congestion heatmaps (NoC link words, LLC bank occupancy, inet
backpressure), an optional JSONL time-series sink (``--metrics-out``),
and an ``on_snapshot`` callback that `repro top` uses to refresh its
dashboard.
"""

from __future__ import annotations

import json
from typing import Callable, List, Optional, Tuple

from ..manycore.llc import KIND_LOAD, KIND_STORE, MemRequest
from ..manycore.noc import bank_coords, tile_coords
from .heatmap import Heatmap, LinkHeatmap
from .metrics import MetricsRegistry

_INF = 1 << 60
#: probe records an unwatched plane lets queue up before it drains anyway
#: (bounds the memory the queued ``MemRequest`` references keep alive)
_BACKLOG = 1 << 12

_KIND_NAME = {KIND_LOAD: 'load', KIND_STORE: 'store'}


class ObservePlane:
    """Attachable, side-effect-free observer of one fabric."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 snapshot_interval: int = 5000,
                 metrics_out: Optional[str] = None,
                 on_snapshot: Optional[Callable] = None,
                 append: bool = False):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.interval = snapshot_interval
        self.metrics_out = metrics_out
        self.on_snapshot = on_snapshot
        # append mode lets several successive fabrics (fleet shard
        # batches) share one JSONL stream per shard
        self.append = append
        self.next_due = _INF
        self.snapshots = 0
        self._fabric = None
        self._sink = None
        self._last_cycle = 0
        self._bp_base: List[int] = []  # per-tile backpressure baseline

        # hot-path queues; probes are the bound append methods
        self._mem_reqs: List[MemRequest] = []
        self._llc_waits: List[Tuple[int, float]] = []
        self._llc_misses: List[int] = []
        self._remote: List[Tuple[int, int]] = []
        self._frames: List[Tuple[int, int]] = []
        self.on_mem_req = self._mem_reqs.append
        self.on_llc_wait = self._llc_waits.append
        self.on_llc_miss = self._llc_misses.append
        self.on_remote_store = self._remote.append
        self.on_frame_words = self._frames.append

        # heatmaps (sized at bind, when the mesh geometry is known)
        self.link_heat: Optional[LinkHeatmap] = None
        self.llc_heat: Optional[Heatmap] = None
        self.inet_heat: Optional[Heatmap] = None
        self._routes = {}  # (src, dst, is_bank) -> [((x,y),(x,y)), ...]

        reg = self.registry
        self._m_req = reg.counter(
            'mem_requests_total', 'memory requests sent to LLC banks')
        self._m_words = reg.counter(
            'noc_words_total', 'data words moved across NoC links',
            unit='words')
        self._m_llc_acc = reg.counter(
            'llc_bank_accesses_total', 'requests accepted per LLC bank')
        self._m_llc_miss = reg.counter(
            'llc_bank_misses_total', 'line misses per LLC bank')
        self._h_llc_wait = reg.histogram(
            'llc_queue_wait_cycles', 'bank request-port queueing delay')
        self._m_frames = reg.counter(
            'frame_words_total', 'DAE frame words delivered to scratchpads',
            unit='words')
        self._m_remote = reg.counter(
            'remote_stores_total', 'core-to-core scratchpad stores')
        self._g_llc_lines = reg.gauge(
            'llc_resident_lines', 'lines resident per LLC bank')
        self._g_inet = reg.gauge(
            'inet_queue_depth_total', 'inet messages in flight')
        self._g_inet_msgs = reg.gauge(
            'inet_messages_total', 'lifetime inet messages accepted')
        self._g_cycle = reg.gauge('sim_cycle', 'current simulated cycle')
        self._g_tiles = reg.gauge(
            'tiles_active', 'tiles currently owned by a live job')
        # serving-side families (fed by ServeScheduler on state changes)
        self._c_req_state = reg.counter(
            'serve_requests_total', 'request state transitions')
        self._g_queue = reg.gauge(
            'serve_queue_depth', 'requests waiting for tiles')
        self._g_running = reg.gauge(
            'serve_running_jobs', 'requests currently executing')
        self._h_latency = reg.histogram(
            'serve_latency_cycles', 'arrival-to-finish latency')
        self._h_wait = reg.histogram(
            'serve_queue_wait_cycles', 'arrival-to-launch queue wait')
        self._h_service = reg.histogram(
            'serve_service_cycles', 'launch-to-finish service time')
        #: live request table for dashboards: req_id -> row dict
        self.inflight = {}

    # ------------------------------------------------------------ attach/detach
    def attach(self, fabric) -> 'ObservePlane':
        """Install this plane on ``fabric`` (idempotent)."""
        fabric.observe = self
        self.bind(fabric)
        return self

    def detach(self, fabric) -> None:
        if fabric.observe is self:
            fabric.observe = None

    def bind(self, fabric) -> None:
        """Capture geometry and counter baselines; idempotent per fabric."""
        if self._fabric is fabric:
            return
        self._fabric = fabric
        cfg = fabric.cfg
        w, h = cfg.mesh_width, cfg.mesh_height
        self.link_heat = LinkHeatmap(w, h)
        self.llc_heat = Heatmap('llc bank occupancy', w, 2, unit='lines')
        self.inet_heat = Heatmap('inet backpressure', w, h, unit='cycles')
        self._bp_base = [t.stats.stall_backpressure for t in fabric.tiles]
        # pre-resolved geometry and label children: drain/take touch
        # these per record, so resolving them here keeps label-dict
        # construction and coordinate math out of the per-snapshot cost
        self._tile_xy = [tile_coords(t.core_id, w) for t in fabric.tiles]
        nbanks = cfg.llc_banks
        self._bank_xy = [bank_coords(i, nbanks, w, h) for i in range(nbanks)]
        self._bank_acc = [self._m_llc_acc.labels(bank=i)
                          for i in range(nbanks)]
        self._bank_miss = [self._m_llc_miss.labels(bank=i)
                           for i in range(nbanks)]
        self._bank_lines = [self._g_llc_lines.labels(bank=i)
                            for i in range(nbanks)]
        self._kind_req = {k: self._m_req.labels(kind=k)
                          for k in ('load', 'store', 'wide')}
        self._last_cycle = fabric.cycle
        self.next_due = (fabric.cycle + self.interval if self.interval
                         else _INF)
        if self.metrics_out and self._sink is None:
            self._sink = open(self.metrics_out,
                              'a' if self.append else 'w')

    # ----------------------------------------------------------------- routing
    def _route(self, src: int, dst: int, to_bank: bool):
        key = (src, dst, to_bank)
        links = self._routes.get(key)
        if links is None:
            noc = self._fabric.noc
            a = tile_coords(src, noc.width)
            if to_bank:
                b = bank_coords(dst, noc.num_banks, noc.width, noc.height)
            else:
                b = tile_coords(dst, noc.width)
            from ..manycore.noc import route_xy
            links = self._routes[key] = route_xy(a, b)
        return links

    # ------------------------------------------------------------------- drain
    def drain(self) -> None:
        """Fold queued hot-path records into the registry and heatmaps.

        Records are first aggregated into word counts per *flow*
        ``(src, dst, to_bank)`` and per label child, so route walking
        and labeled-counter updates happen once per distinct flow/label
        rather than once per record — drain cost tracks the traffic
        *pattern*, not the traffic volume, which is what keeps the <5%
        overhead gate honest on wide-access-heavy workloads.
        """
        fabric = self._fabric
        if fabric is None:
            return
        lw = fabric.cfg.line_words
        nbanks = fabric.cfg.llc_banks
        heat = self.link_heat
        if self._mem_reqs:
            flows = {}
            kinds = {'load': 0, 'store': 0, 'wide': 0}
            words_total = 0
            for req in self._mem_reqs:
                bank = (req.addr // lw) % nbanks
                kinds[_KIND_NAME.get(req.kind, 'wide')] += 1
                # request packet toward the bank (+ response for loads)
                words = 2 if req.kind == KIND_LOAD else 1
                key = (req.core, bank, True)
                flows[key] = flows.get(key, 0) + words
                words_total += words
                if req.chunks is not None:  # wide: per-chunk responses
                    for (_, count, dest_core, _) in req.chunks:
                        key = (dest_core, bank, True)
                        flows[key] = flows.get(key, 0) + count
                        words_total += count
            del self._mem_reqs[:]
            for (src, dst, to_bank), words in flows.items():
                heat.add_route(self._route(src, dst, to_bank), words)
            for kind, n in kinds.items():
                if n:
                    self._kind_req[kind].inc(n)
            self._m_words.inc(words_total)
        if self._remote:
            flows = {}
            for src, dst in self._remote:
                flows[(src, dst)] = flows.get((src, dst), 0) + 1
            self._m_words.inc(len(self._remote))
            self._m_remote.inc(len(self._remote))
            del self._remote[:]
            for (src, dst), words in flows.items():
                heat.add_route(self._route(src, dst, False), words)
        if self._llc_waits:
            per_bank = [0] * nbanks
            observe_wait = self._h_llc_wait.observe
            for bank, wait in self._llc_waits:
                per_bank[bank] += 1
                observe_wait(wait)
            del self._llc_waits[:]
            for bank, n in enumerate(per_bank):
                if n:
                    self._bank_acc[bank].inc(n)
        if self._llc_misses:
            per_bank = [0] * nbanks
            for bank in self._llc_misses:
                per_bank[bank] += 1
            del self._llc_misses[:]
            for bank, n in enumerate(per_bank):
                if n:
                    self._bank_miss[bank].inc(n)
        if self._frames:
            self._m_frames.inc(sum(n for _core, n in self._frames))
            del self._frames[:]

    # ---------------------------------------------------------------- snapshot
    def take(self, now: int) -> None:
        """Stamp a snapshot on a clock boundary; refresh state if watched.

        Snapshot cycle stamps are strictly increasing: when the final
        ``finalize`` call lands on a cycle that a periodic snapshot
        already stamped, state is refreshed but no duplicate JSONL line
        is emitted (the ``final`` record carries the end-of-run metrics
        instead) — guarded by test_observe_snapshots.

        Draining the probe queues and refreshing gauges/heatmaps is only
        worth doing when somebody can look.  With no JSONL sink and no
        ``on_snapshot`` callback the records stay queued (at most
        ``_BACKLOG`` of them) and :meth:`finalize` folds them in one
        batch: the same final registry and heatmaps for far fewer route
        walks and labelled-counter updates, which is what keeps an
        attached-but-unwatched plane inside the <5% overhead gate.
        """
        fabric = self._fabric
        if fabric is None:
            return
        if self.interval:
            self.next_due = now - now % self.interval + self.interval
        duplicate = self.snapshots and now == self._last_cycle
        if (self._sink is not None or self.on_snapshot is not None
                or len(self._frames) + len(self._mem_reqs) > _BACKLOG):
            self.refresh(now)
        self._last_cycle = now
        if duplicate:
            return
        self.snapshots += 1
        if self._sink is not None:
            self._sink.write(json.dumps(
                {'cycle': now, 'metrics': self.registry.snapshot()}) + '\n')
        if self.on_snapshot is not None:
            self.on_snapshot(self, now)

    def refresh(self, now: int) -> None:
        """Drain the probe queues and bring gauges/heatmaps to ``now``."""
        fabric = self._fabric
        self.drain()
        for b in fabric.banks:
            lines = b.resident_lines()
            self._bank_lines[b.bank_id].set(lines)
            col, row = self._bank_xy[b.bank_id]
            self.llc_heat.set(col, 0 if row < 0 else 1, lines)
        depth = 0
        pushes = 0
        active = 0
        for t in fabric.tiles:
            depth += len(t.inet_in)
            pushes += t.inet_in.pushes
            if t.job is not None and not t.job.finished:
                active += 1
            x, y = self._tile_xy[t.core_id]
            self.inet_heat.set(
                x, y, t.stats.stall_backpressure - self._bp_base[t.core_id])
        self._g_inet.set(depth)
        self._g_inet_msgs.set(pushes)
        self._g_tiles.set(active)
        self._g_cycle.set(now)

    def finalize(self, now: int) -> None:
        """Closing snapshot + heatmap summary; flushes the JSONL sink.

        The trailing ``final`` record carries the end-of-run metrics
        snapshot (identical to the in-memory registry state after the
        run) alongside the heatmap summary.
        """
        if self._fabric is None:
            return
        self.take(now)
        self.refresh(now)  # an unwatched take() left the queues full
        if self._sink is not None:
            self._sink.write(json.dumps(
                {'cycle': now, 'final': True,
                 'metrics': self.registry.snapshot(),
                 'heatmaps': self.heatmaps_dict(),
                 'provenance': self.provenance_dict()}) + '\n')
            self._sink.close()
            self._sink = None

    # ------------------------------------------------------------ serve events
    def on_request_state(self, req, now: int, scheduler=None) -> None:
        """A request changed state (rare; called by the scheduler)."""
        self._c_req_state.labels(state=req.state).inc()
        if scheduler is not None:
            self._g_queue.set(len(scheduler.queue))
            self._g_running.set(len(scheduler.running))
        row = {'req_id': req.req_id, 'kernel': req.kernel,
               'state': req.state, 'tiles': req.tiles_needed,
               'priority': req.priority, 'arrival': req.arrival,
               'since': now}
        if req.state in ('queued', 'running'):
            self.inflight[req.req_id] = row
        else:
            self.inflight.pop(req.req_id, None)
            if req.latency is not None:
                self._h_latency.observe(req.latency)
            if req.queue_wait is not None:
                self._h_wait.observe(req.queue_wait)
            if req.service_cycles is not None:
                self._h_service.observe(req.service_cycles)

    # ----------------------------------------------------------------- export
    def provenance_dict(self) -> dict:
        """The same ``code_version_hash`` + machine-hash pair that
        BENCH_*/CALIB_* artifacts carry, so heatmap and metrics-snapshot
        files are cross-checkable against ``repro version``."""
        from ..jobs.spec import code_version_hash, machine_hash
        cfg = self._fabric.cfg if self._fabric is not None else None
        return {'code_version_hash': code_version_hash(),
                'machine_hash': machine_hash(cfg)}

    def heatmaps_dict(self) -> dict:
        self.drain()
        return {'noc': self.link_heat.to_dict() if self.link_heat else {},
                'llc': self.llc_heat.to_dict() if self.llc_heat else {},
                'inet': self.inet_heat.to_dict() if self.inet_heat else {},
                'provenance': self.provenance_dict()}

    def render_heatmaps(self) -> str:
        self.drain()
        parts = []
        if self.link_heat is not None:
            parts.append(self.link_heat.to_grid().render())
        if self.llc_heat is not None:
            parts.append(self.llc_heat.render())
        if self.inet_heat is not None:
            parts.append(self.inet_heat.render())
        return '\n\n'.join(parts)

    def report_dict(self) -> dict:
        """The ``observability`` section of a serving report."""
        self.drain()
        return {'snapshots': self.snapshots,
                'metrics': self.registry.snapshot(),
                'heatmaps': self.heatmaps_dict()}
