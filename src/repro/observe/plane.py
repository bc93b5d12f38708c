"""The observability plane: probes -> registry + heatmaps + snapshots.

:class:`ObservePlane` is the one clocked consumer of the machine's probe
plane (:mod:`repro.manycore.probes`) and the one metric store;
:class:`~repro.telemetry.Telemetry` is a subclass that adds what needs
whole-run order (the frame/microthread/wide-access replay, its spans,
the interval samples of the run report).  The plane is cheap enough to
stay attached by default:

* it declares five facts (:attr:`ObservePlane.facts`); the sites that
  record them append one small tuple — no route walking, no dict
  lookups, no label formatting on the hot path — and an unattached
  fabric pays one attribute read per site;
* everything expensive (XY route enumeration, per-bank labeling,
  histogram bucketing, JSONL serialization) happens when the probe
  plane drains; snapshots ride the fabric's clock (:meth:`take` runs
  when the run loop crosses ``next_due``; no events are posted, so the
  barrier memory-fence check and therefore simulated cycle counts are
  bit-identical with the plane attached — enforced by test).

The plane owns a :class:`~repro.observe.metrics.MetricsRegistry`, the
three congestion heatmaps (NoC link words, LLC bank occupancy, inet
backpressure), an optional JSONL time-series sink (``--metrics-out``),
and an ``on_snapshot`` callback that `repro top` uses to refresh its
dashboard.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Callable, Dict, List, Optional

from ..manycore.fabric import Fabric
from ..manycore.llc import KIND_LOAD, KIND_STORE
from ..manycore.noc import bank_coords, route_xy, tile_coords
from ..manycore.probes import INF, Consumer
from ..manycore.stats import STALL_CAUSES
from .heatmap import Heatmap, LinkHeatmap
from .metrics import MetricsRegistry

_KIND_NAME = {KIND_LOAD: 'load', KIND_STORE: 'store'}
#: the per-core counters an interval sample takes deltas of
_CORE_GET = attrgetter('instrs', *STALL_CAUSES)


class ObservePlane(Consumer):
    """Attachable, side-effect-free observer of one fabric."""

    facts = ('mem_req', 'remote_store', 'llc_access', 'frame_words',
             'request_state')
    lap = 'observe'

    def __init__(self, interval: int = 5000,
                 metrics_out: Optional[str] = None,
                 on_snapshot: Optional[Callable] = None,
                 append: bool = False):
        self.registry = MetricsRegistry()
        self.interval = interval  # snapshot period; 0: finalize only
        self.metrics_out = metrics_out
        self.on_snapshot = on_snapshot
        # append mode lets several successive fabrics (fleet shard
        # batches) share one JSONL stream per shard
        self.append = append
        self.snapshots = 0
        self._fabric = None
        self._sink = None
        self._last_cycle = 0
        self._bp_base: List[int] = []  # per-tile backpressure baseline

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
        # serving-side families (the scheduler's `request_state` fact)
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
    def attach(self, machine) -> 'ObservePlane':
        """Subscribe to ``machine``'s probes; on a fabric, also capture
        geometry and counter baselines and open the sink (idempotent per
        machine).

        ``machine`` is a fabric or the GPU comparator.  The GPU has no
        tiles, banks or run-loop clock to read, so there only the facts
        are folded (Telemetry's ``gpu_mem_service``).
        """
        machine.probes.attach(self)
        if self._fabric is machine:
            return self
        self._fabric = fabric = machine
        if not isinstance(fabric, Fabric):
            return self
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
        self._prev = self._counters()  # the first sample's baseline
        self.next_due = (fabric.cycle + self.interval if self.interval
                         else INF)
        if self.metrics_out and self._sink is None:
            self._sink = open(self.metrics_out,
                              'a' if self.append else 'w')
        return self

    def detach(self, fabric) -> None:
        fabric.probes.detach(self)

    # ----------------------------------------------------------------- routing
    def _route(self, src: int, dst: int, to_bank: bool):
        key = (src, dst, to_bank)
        links = self._routes.get(key)
        if links is None:
            ends = self._bank_xy if to_bank else self._tile_xy
            links = self._routes[key] = route_xy(self._tile_xy[src],
                                                 ends[dst])
        return links

    # -------------------------------------------------------------------- fold
    def drain(self) -> None:
        """Have the probe plane fold everything recorded so far."""
        if self._fabric is not None:
            self._fabric.probes.drain()

    def fold(self, batches: Dict[str, list]) -> None:
        """Fold drained probe records into the registry and heatmaps.

        Records are first aggregated into word counts per *flow*
        ``(src, dst, to_bank)`` and per label child, so route walking
        and labeled-counter updates happen once per distinct flow/label
        rather than once per record — fold cost tracks the traffic
        *pattern*, not the traffic volume, which is what keeps the <5%
        overhead gate honest on wide-access-heavy workloads.
        """
        heat = self.link_heat
        mem_reqs = batches.get('mem_req')
        if mem_reqs:
            flows = {}
            kinds = {'load': 0, 'store': 0, 'wide': 0}
            words_total = 0
            for _now, kind, core, bank, _delay, chunks in mem_reqs:
                kinds[_KIND_NAME.get(kind, 'wide')] += 1
                # request packet toward the bank (+ response for loads)
                words = 2 if kind == KIND_LOAD else 1
                key = (core, bank, True)
                flows[key] = flows.get(key, 0) + words
                words_total += words
                if chunks is not None:  # wide: per-chunk responses
                    for (_, count, dest_core, _) in chunks:
                        key = (dest_core, bank, True)
                        flows[key] = flows.get(key, 0) + count
                        words_total += count
            for (src, dst, to_bank), words in flows.items():
                heat.add_route(self._route(src, dst, to_bank), words)
            for kind, n in kinds.items():
                if n:
                    self._kind_req[kind].inc(n)
            self._m_words.inc(words_total)
        remote = batches.get('remote_store')
        if remote:
            flows = {}
            for _now, src, dst in remote:
                flows[(src, dst)] = flows.get((src, dst), 0) + 1
            self._m_words.inc(len(remote))
            self._m_remote.inc(len(remote))
            for (src, dst), words in flows.items():
                heat.add_route(self._route(src, dst, False), words)
        accesses = batches.get('llc_access')
        if accesses:
            nbanks = self._fabric.cfg.llc_banks
            acc = [0] * nbanks
            misses = [0] * nbanks
            observe_wait = self._h_llc_wait.observe
            for bank, _start, wait, miss, _job in accesses:
                acc[bank] += 1
                misses[bank] += miss
                observe_wait(wait)
            for bank in range(nbanks):
                if acc[bank]:
                    self._bank_acc[bank].inc(acc[bank])
                if misses[bank]:
                    self._bank_miss[bank].inc(misses[bank])
        frames = batches.get('frame_words')
        if frames:
            self._m_frames.inc(sum(rec[3] for rec in frames))
        for record in batches.get('request_state', ()):
            self._request_state(*record)

    # ---------------------------------------------------------------- snapshot
    def take(self, now: int) -> None:
        """Stamp a snapshot at cycle ``now``: the clock crossed ``next_due``.

        The run loop's clock jumps over quiet stretches, so one take may
        cover several boundaries: it is one snapshot (and one
        delta-encoded Telemetry sample) for the whole jump.  Stamps are
        strictly increasing: when :meth:`finalize` lands on a cycle that
        a periodic snapshot already stamped, state is read but no
        duplicate snapshot, sample or JSONL line is made (the ``final``
        record carries the end-of-run metrics instead) — guarded by
        test_observe_snapshots.

        Tile and bank state (gauges, heatmaps, a sample's resident lines
        and inet depths) is read once per take.  Draining the probe
        queues is only worth doing when somebody can look: with no JSONL
        sink and no ``on_snapshot`` callback the records stay queued
        (the probe plane bounds the backlog) and :meth:`finalize` folds
        the rest in one batch — the same final registry and heatmaps for
        far fewer route walks and labelled-counter updates, which is
        what keeps an attached-but-unwatched plane inside the <5%
        overhead gate.
        """
        if self.interval:
            self.next_due = now - now % self.interval + self.interval
        if self._sink is not None or self.on_snapshot is not None:
            self.drain()
        lines, depths = self._read(now)
        if now == self._last_cycle:
            return
        self._sample(now, lines, depths)
        self._last_cycle = now
        self.snapshots += 1
        if self._sink is not None:
            self._sink.write(json.dumps(
                {'cycle': now, 'metrics': self.registry.snapshot()}) + '\n')
        if self.on_snapshot is not None:
            self.on_snapshot(self, now)

    def _read(self, now: int):
        """Bring gauges and heatmaps to ``now`` in one walk over banks and
        tiles; returns ``(resident lines, per-tile inet depths)``."""
        fabric = self._fabric
        resident = 0
        for b in fabric.banks:
            lines = b.resident_lines()
            resident += lines
            self._bank_lines[b.bank_id].set(lines)
            col, row = self._bank_xy[b.bank_id]
            self.llc_heat.set(col, 0 if row < 0 else 1, lines)
        depths = []
        pushes = 0
        active = 0
        for t in fabric.tiles:
            depths.append(len(t.inet_in))
            pushes += t.inet_in.pushes
            if t.job is not None and not t.job.finished:
                active += 1
            x, y = self._tile_xy[t.core_id]
            self.inet_heat.set(
                x, y, t.stats.stall_backpressure - self._bp_base[t.core_id])
        self._g_inet.set(sum(depths))
        self._g_inet_msgs.set(pushes)
        self._g_tiles.set(active)
        self._g_cycle.set(now)
        return resident, depths

    def _counters(self):
        """Per-core ``(instrs, stalls...)`` tuples and the memory-system
        counters: what an interval sample takes deltas of."""
        m = self._fabric.run_stats.mem
        return ([_CORE_GET(t.stats) for t in self._fabric.tiles],
                [m.llc_accesses, m.llc_misses, m.dram_lines_read,
                 m.dram_lines_written])

    def _sample(self, now: int, lines: int, depths: List[int]) -> None:
        """Record an interval sample; a plain plane keeps none (see
        :class:`~repro.telemetry.Telemetry`)."""

    def finalize(self, now: int) -> None:
        """Closing snapshot + heatmap summary; flushes the JSONL sink.

        The trailing ``final`` record carries the end-of-run metrics
        snapshot (identical to the in-memory registry state after the
        run) alongside the heatmap summary.
        """
        self.drain()  # an unwatched take() left the queues full
        self.take(now)
        if self._sink is not None:
            self._sink.write(json.dumps(
                {'cycle': now, 'final': True,
                 'metrics': self.registry.snapshot(),
                 'heatmaps': self.heatmaps_dict(),
                 'provenance': self.provenance_dict()}) + '\n')
            self._sink.close()
            self._sink = None

    # ------------------------------------------------------------ serve events
    def _request_state(self, now: int, req, state: str, queue_depth: int,
                       running: int) -> None:
        """A request changed state (rare; recorded by the scheduler)."""
        self._c_req_state.labels(state=state).inc()
        self._g_queue.set(queue_depth)
        self._g_running.set(running)
        row = {'req_id': req.req_id, 'kernel': req.kernel,
               'state': state, 'tiles': req.tiles_needed,
               'priority': req.priority, 'arrival': req.arrival,
               'since': now}
        if state in ('queued', 'running'):
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
