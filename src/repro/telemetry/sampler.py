"""Interval sampling of fabric state: CPI stacks as time series.

The fabric's event-assisted clock jumps over quiet stretches, so the
sampler cannot tick on its own — posting wake-up events would perturb
the barrier memory-fence check (which waits for an *empty* event heap)
and destroy the disabled-path guarantee that telemetry never changes
cycle counts.  Instead the fabric's probe plane calls :meth:`Sampler.take`
whenever the run loop's clock crosses the next sample boundary.  When the clock
fast-forwards across several boundaries at once the sampler emits one
delta-encoded sample covering the whole jump; cumulative counters stay
exact because every sample stores *deltas* since the previous one.

Stall attribution is lazy (a gap is charged when the blocked
instruction finally issues), so a long stall can land entirely in the
sample where it resolves; interval CPI stacks are therefore exact in
aggregate and at-most-one-sample smeared in time.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional

from ..manycore.probes import Consumer
from ..manycore.stats import STALL_CAUSES

#: CoreStats fields snapshotted per interval, in serialization order.
STALL_FIELDS = STALL_CAUSES
_CORE_FIELDS = ('instrs',) + STALL_FIELDS
_CORE_GET = attrgetter(*_CORE_FIELDS)


class Sample:
    """One delta-encoded snapshot of fabric-wide activity."""

    __slots__ = ('cycle', 'dcycles', 'issued', 'stalls', 'llc_lines',
                 'llc_accesses', 'llc_misses', 'dram_lines_read',
                 'dram_lines_written', 'dram_backlog', 'inet_depth_total',
                 'inet_depth_max', 'per_core')

    def __init__(self, cycle: int, dcycles: int):
        self.cycle = cycle
        self.dcycles = dcycles
        self.issued = 0
        self.stalls = {}           # cause -> delta cycles (aggregate)
        self.llc_lines = 0         # absolute occupancy at sample time
        self.llc_accesses = 0
        self.llc_misses = 0
        self.dram_lines_read = 0
        self.dram_lines_written = 0
        self.dram_backlog = 0.0    # channel busy-time beyond "now"
        self.inet_depth_total = 0
        self.inet_depth_max = 0
        self.per_core = None       # optional core -> [instrs, stalls...]

    def to_dict(self) -> dict:
        doc = {
            'cycle': self.cycle,
            'dcycles': self.dcycles,
            'issued': self.issued,
            'stalls': dict(self.stalls),
            'llc_lines': self.llc_lines,
            'llc_accesses': self.llc_accesses,
            'llc_misses': self.llc_misses,
            'dram_lines_read': self.dram_lines_read,
            'dram_lines_written': self.dram_lines_written,
            'dram_backlog': self.dram_backlog,
            'inet_depth_total': self.inet_depth_total,
            'inet_depth_max': self.inet_depth_max,
        }
        if self.per_core is not None:
            doc['per_core'] = {str(c): list(v)
                               for c, v in self.per_core.items()}
        return doc


class Sampler(Consumer):
    """Snapshots per-core stall taxonomy and memory pressure every N cycles.

    A probe-plane consumer that folds no fact: it only rides the plane's
    sample clock (``next_due`` / ``take``) and its ``finalize``.
    """

    lap = 'telemetry'

    def __init__(self, interval: int = 1000, per_core: bool = False,
                 limit: int = 1_000_000):
        if interval <= 0:
            raise ValueError('sample interval must be positive')
        self.interval = interval
        self.per_core = per_core
        self.limit = limit
        self.samples: List[Sample] = []
        self.dropped = 0
        self.next_due = interval
        self._fabric = None
        self._last_cycle = 0
        self._prev_core: List[tuple] = []
        self._prev_totals: List[int] = []
        self._prev_mem: List[int] = []

    # ------------------------------------------------------------------- bind
    def bind(self, fabric) -> None:
        """Capture counter baselines; idempotent per fabric."""
        if self._fabric is fabric:
            return
        self._fabric = fabric
        self._last_cycle = fabric.cycle
        self.next_due = fabric.cycle + self.interval
        self._prev_core = [_CORE_GET(t.stats) for t in fabric.tiles]
        self._prev_totals = [sum(col) for col in zip(*self._prev_core)]
        self._prev_mem = self._mem_snapshot(fabric)

    @staticmethod
    def _mem_snapshot(fabric) -> List[int]:
        m = fabric.run_stats.mem
        return [m.llc_accesses, m.llc_misses, m.dram_lines_read,
                m.dram_lines_written]

    # ------------------------------------------------------------------- take
    def take(self, now: int) -> None:
        """Record one sample at cycle ``now`` (the plane's clock is due)."""
        fabric = self._fabric
        # advance past every boundary the clock jumped over
        self.next_due = now - now % self.interval + self.interval
        if len(self.samples) >= self.limit:
            self.dropped += 1
            self._last_cycle = now
            return
        s = Sample(now, now - self._last_cycle)
        self._last_cycle = now

        tiles = fabric.tiles
        curs = [_CORE_GET(t.stats) for t in tiles]
        if self.per_core:
            per_core = {}
            for t, cur, prev in zip(tiles, curs, self._prev_core):
                if cur != prev:  # idle tiles cost one tuple compare
                    per_core[t.core_id] = [c - p for c, p in zip(cur, prev)]
            s.per_core = per_core
        totals = [sum(col) for col in zip(*curs)]
        d = [c - p for c, p in zip(totals, self._prev_totals)]
        self._prev_core = curs
        self._prev_totals = totals
        s.issued = d[0]
        s.stalls = {f[len('stall_'):]: v
                    for f, v in zip(STALL_FIELDS, d[1:]) if v}
        depths = [len(t.inet_in.entries) for t in tiles]
        depth_total = sum(depths)
        depth_max = max(depths)

        cur_mem = self._mem_snapshot(fabric)
        dm = [c - p for c, p in zip(cur_mem, self._prev_mem)]
        self._prev_mem = cur_mem
        s.llc_accesses, s.llc_misses = dm[0], dm[1]
        s.dram_lines_read, s.dram_lines_written = dm[2], dm[3]
        s.llc_lines = sum(b.resident_lines() for b in fabric.banks)
        s.dram_backlog = fabric.dram.backlog(now)
        s.inet_depth_total = depth_total
        s.inet_depth_max = depth_max
        self.samples.append(s)

    def finalize(self, now: int) -> None:
        """Emit a closing partial sample so delta sums match final counters."""
        if self._fabric is not None and now > self._last_cycle:
            self.take(now)

    # --------------------------------------------------------------- serialize
    def to_dicts(self) -> List[dict]:
        return [s.to_dict() for s in self.samples]

    def __len__(self):
        return len(self.samples)
