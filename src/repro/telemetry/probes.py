"""The run report's observer: the observe plane plus its ordered replay.

A :class:`Telemetry` is an :class:`~repro.observe.ObservePlane` — one
clock, one :class:`~repro.observe.MetricsRegistry`, the same folds,
gauges and heatmaps — that adds only what needs the whole run in order:
the frame / microthread / wide-access replay, the spans it produces, the
histograms paired from it, and the delta-encoded interval samples of
the run report.  Like every consumer of the machine's probe plane
(:mod:`repro.manycore.probes`) it **never changes simulated timing** —
cycle counts are bit-identical with telemetry attached or not (tested),
and a run without it pays one attribute read per site.  Wall-clock
overhead stays low (<5%, tested) because nothing is matched inside the
run: histogram-only facts are bucketed when the plane drains, and the
pairing facts are parked as plain tuples and matched into histograms
and spans **lazily**, in one ordered replay on the first access to
:attr:`hists` or :attr:`spans`.  Pairing is keyed (per ``(core,
frame-slot seq)`` or per expander core); only the four frame facts need
their chronological order restored.

Histograms (the ISSUE's four latency histograms plus the GPU
comparator's memory path), each a family of :attr:`registry`, and the
facts they fold:

* ``vload_issue_to_last_word`` — ``wide_served``: a wide access from
  ``vload`` issue to the arrival of its last response word;
* ``frame_fill_to_start`` — ``frame_cfg`` / ``frame_words`` /
  ``frame_free`` / ``frame_start``: slack between a DAE frame becoming
  full and the ``frame_start`` that consumes it (per core);
* ``llc_queue_wait_cycles`` — ``llc_access``: request-port queueing
  delay (the plane's own family);
* ``noc_traversal`` — ``mem_req`` / ``load_reply`` / ``wide_served``:
  one-way NoC delay of request and response packets;
* ``gpu_mem_service`` — ``gpu_mem``: coalesced access service time.

Span inventory: microthread lifetimes (``mt_launch`` → ``mt_end``),
frame occupancy (first word arrival → ``remem``), and wide-access
service windows at the LLC bank.
"""

from __future__ import annotations

from heapq import merge
from operator import itemgetter
from typing import Dict, List, Optional

from ..manycore.llc import KIND_WIDE
from ..manycore.stats import STALL_CAUSES
from ..observe.histogram import Log2Histogram
from ..observe.plane import ObservePlane
from ..spans import (KIND_FRAME, KIND_MICROTHREAD, KIND_WIDE_ACCESS,
                     core_track, make_span)

HIST_VLOAD = 'vload_issue_to_last_word'
HIST_FRAME = 'frame_fill_to_start'
HIST_LLC_QUEUE = 'llc_queue_wait_cycles'  # registered by ObservePlane
HIST_NOC = 'noc_traversal'
HIST_GPU_MEM = 'gpu_mem_service'

HISTOGRAM_NAMES = (HIST_VLOAD, HIST_FRAME, HIST_LLC_QUEUE, HIST_NOC,
                   HIST_GPU_MEM)

#: spans kept per run; later ones are only counted (``spans_dropped``)
MAX_SPANS = 1_000_000


class Telemetry(ObservePlane):
    """Low-overhead instrumentation attached to one fabric (or GPU) run."""

    #: pairing facts: parked as drained, matched by :meth:`_replay`
    PARKED = ('frame_words', 'frame_cfg', 'frame_free', 'frame_start',
              'mt_launch', 'mt_end', 'wide_served')
    # `frame_words` twice: the plane counts it, the replay parks it
    facts = ObservePlane.facts + PARKED + ('load_reply', 'gpu_mem')
    lap = 'telemetry'

    def __init__(self, interval: int = 1000,
                 per_core_samples: bool = False):
        super().__init__(interval)
        self.per_core_samples = per_core_samples
        #: delta-encoded interval samples (``repro-run-report`` layout)
        self.samples: List[dict] = []
        self._spans: List[dict] = []
        self.spans_dropped = 0
        reg = self.registry
        self._h_vload = reg.histogram(
            HIST_VLOAD, 'vload issue to its last response word').labels()
        self._h_frame = reg.histogram(
            HIST_FRAME, 'DAE frame full to the frame_start that consumes '
            'it').labels()
        self._h_noc = reg.histogram(
            HIST_NOC, 'one-way NoC delay of request and response '
            'packets').labels()
        self._h_gpu = reg.histogram(
            HIST_GPU_MEM, 'GPU coalesced access service time').labels()
        self._parked: Dict[str, list] = {fact: [] for fact in self.PARKED}
        self._final_cycle: Optional[int] = None
        # pairing state, persistent across replays
        self._mt_open: Dict[int, tuple] = {}      # core -> (start, mt_pc)
        self._frame_cfg: Dict[int, tuple] = {}    # core -> (base, fsz, slots)
        self._slot_fill: Dict[tuple, list] = {}   # (core, slot) -> [n, first]
        self._slot_uses: Dict[tuple, int] = {}    # (core, slot) -> frees
        self._frame_full: Dict[tuple, int] = {}   # (core, seq) -> cycle

    def finalize(self, now: int) -> None:
        """Close the run: open spans are truncated here on first access;
        the plane's closing take records the last, partial sample."""
        self._final_cycle = now
        super().finalize(now)

    # ----------------------------------------------------------------- sample
    def _sample(self, now: int, lines: int, depths: List[int]) -> None:
        """One sample of the deltas since the previous one (or attach):
        issued instructions and stall cycles by cause, memory traffic,
        plus resident LLC lines, DRAM backlog and inet depths at ``now``.

        Stall attribution is lazy (a gap is charged when the blocked
        instruction finally issues), so a long stall can land entirely
        in the sample where it resolves: CPI stacks are exact in
        aggregate and at most one sample smeared in time.
        """
        if not self.interval:  # unclocked: not even a closing sample
            return
        fabric = self._fabric
        curs, mem = self._counters()
        prev_curs, prev_mem = self._prev
        self._prev = curs, mem
        # fabric-wide deltas: instrs, then one per stall cause
        d = [sum(c) - sum(p) for c, p in zip(zip(*curs), zip(*prev_curs))]
        dm = [c - p for c, p in zip(mem, prev_mem)]
        sample = {
            'cycle': now,
            'dcycles': now - self._last_cycle,
            'issued': d[0],
            'stalls': {f[len('stall_'):]: v
                       for f, v in zip(STALL_CAUSES, d[1:]) if v},
            'llc_lines': lines,
            'llc_accesses': dm[0],
            'llc_misses': dm[1],
            'dram_lines_read': dm[2],
            'dram_lines_written': dm[3],
            'dram_backlog': fabric.dram.backlog(now),
            'inet_depth_total': sum(depths),
            'inet_depth_max': max(depths),
        }
        if self.per_core_samples:
            # idle tiles cost one tuple compare
            sample['per_core'] = {
                str(t.core_id): [c - p for c, p in zip(cur, prev)]
                for t, cur, prev in zip(fabric.tiles, curs, prev_curs)
                if cur != prev}
        self.samples.append(sample)

    # -------------------------------------------------------------------- fold
    def fold(self, batches: Dict[str, list]) -> None:
        """The plane's folds; then bucket the NoC and GPU facts and park
        the pairing ones."""
        super().fold(batches)
        noc = self._h_noc.record
        for _now, kind, _core, _bank, delay, _ in batches.get('mem_req', ()):
            if kind != KIND_WIDE:  # a wide's packets: see wide_served
                noc(delay)
        for rec in batches.get('load_reply', ()):
            noc(rec[3])
        record = self._h_gpu.record
        for rec in batches.get('gpu_mem', ()):
            record(rec[1])
        for fact, parked in self._parked.items():
            parked.extend(batches.get(fact, ()))

    @property
    def hists(self) -> Dict[str, Log2Histogram]:
        """The run report's histograms by name, replayed up to now."""
        self._replay()
        return {name: self.registry.get(name).labels()
                for name in HISTOGRAM_NAMES}

    @property
    def spans(self) -> List[dict]:
        """The run's span records (:mod:`repro.spans`), one per core track."""
        self._replay()
        return self._spans

    def _replay(self) -> None:
        """Match everything recorded so far into histograms and spans."""
        self.drain()
        parked = self._parked
        spans = self._spans

        def span_add(kind, core, start, end, attrs):
            if len(spans) < MAX_SPANS:
                spans.append(make_span(None, None, kind, kind,
                                       core_track(core), start, end,
                                       attrs=attrs))
            else:
                self.spans_dropped += 1

        # frame occupancy spans + fill -> start slack: replay delivery,
        # start and free records against per-slot arrival counts.
        # Slots are reused round-robin from sequence 0, so a slot's
        # current sequence is uses*num_slots + slot; replay is in
        # chronological order (the four queues merged on their cycle;
        # deliveries are events, so they precede the same cycle's tile
        # steps), hence `uses` is exact at each delivery and a
        # frame_start meets the fill of its own configuration.
        streams = [[(rec[0], fact, rec) for rec in parked[fact]]
                   for fact in ('frame_words', 'frame_cfg', 'frame_free',
                                'frame_start')]
        if any(streams):
            hist_frame = self._h_frame.record
            frame_full = self._frame_full
            cfg = self._frame_cfg
            fill = self._slot_fill
            uses = self._slot_uses
            for now, fact, rec in merge(*streams, key=itemgetter(0)):
                core, a = rec[1], rec[2]
                if fact == 'frame_cfg':  # reset this core's replay
                    cfg[core] = rec[2:]
                    for d in (fill, uses, frame_full):
                        for key in [k for k in d if k[0] == core]:
                            del d[key]
                    continue
                if fact == 'frame_start':
                    # pop: a re-issued frame_start on one frame counts once
                    full = frame_full.pop((core, a), None)
                    if full is not None:
                        hist_frame(now - full)
                    continue
                c = cfg.get(core)
                if c is None:
                    continue
                base, fsize, nslots = c
                if fact == 'frame_free':  # remem freed frame sequence `a`
                    key = (core, a % nslots)
                    uses[key] = a // nslots + 1
                    st = fill.pop(key, None)
                    if st is not None:
                        span_add(KIND_FRAME, core, st[1], now, {'seq': a})
                    continue
                n = rec[3]
                rel = a - base  # delivery of n words, may span slots
                while n > 0 and 0 <= rel < fsize * nslots:
                    slot = rel // fsize
                    take = min(n, (slot + 1) * fsize - rel)
                    key = (core, slot)
                    st = fill.get(key)
                    if st is None:
                        st = fill[key] = [0, now]
                    st[0] += take
                    if st[0] >= fsize:
                        seq = uses.get(key, 0) * nslots + slot
                        frame_full[(core, seq)] = now
                    rel += take
                    n -= take

        # microthreads: launches and vends strictly alternate per core
        if parked['mt_launch'] or parked['mt_end']:
            opens: Dict[int, List[tuple]] = {}
            for core, prev in self._mt_open.items():
                opens[core] = [prev]
            for now, core, mt_pc in parked['mt_launch']:
                opens.setdefault(core, []).append((now, mt_pc))
            ends: Dict[int, List[int]] = {}
            for now, core in parked['mt_end']:
                ends.setdefault(core, []).append(now)
            self._mt_open.clear()
            for core, launches in opens.items():
                core_ends = ends.get(core, ())
                for (start, mt_pc), end in zip(launches, core_ends):
                    span_add(KIND_MICROTHREAD, core, start, end + 1,
                             {'mt_pc': mt_pc})
                if len(launches) > len(core_ends):  # still running
                    self._mt_open[core] = launches[-1]

        # wide accesses: vload latency histogram + bank service spans +
        # derived NoC traversal samples (the request packet plus one
        # sample per serialized response packet; delays are a pure
        # function of (core, bank), so nothing was recorded in-run)
        if parked['wide_served']:
            hist_vload = self._h_vload.record
            hist_noc = self._h_noc.record
            noc = self._fabric.noc
            noc_w = self._fabric.cfg.noc_width_words
            for (ready, last_emit, last_arrival, bank, core, t_issue,
                 nwords, chunks) in parked['wide_served']:
                if t_issue is not None:
                    hist_vload(last_arrival - t_issue)
                hist_noc(noc.bank_delay(core, bank))
                for addr, count, dest_core, dest_off in chunks:
                    delay = noc.delay_for_hops(
                        noc.bank_hops(dest_core, bank))
                    for _ in range(-(-count // noc_w)):
                        hist_noc(delay)
                # per-core word counts are derived from the raw chunk
                # list at export time (repro.spans.to_chrome_trace)
                span_add(KIND_WIDE_ACCESS, core, ready, last_emit + 1,
                         {'bank': bank, 'words': nwords, 'chunks': chunks})
        for records in parked.values():
            del records[:]

        if self._final_cycle is not None and self._mt_open:
            for core, (start, mt_pc) in self._mt_open.items():
                span_add(KIND_MICROTHREAD, core, start, self._final_cycle,
                         {'mt_pc': mt_pc, 'truncated': True})
            self._mt_open.clear()

    # --------------------------------------------------------------- serialize
    def to_dict(self) -> dict:
        """The ``telemetry`` section of a ``repro-run-report``."""
        counts: Dict[str, int] = {}
        for s in self.spans:
            counts[s['kind']] = counts.get(s['kind'], 0) + 1
        return {
            'sample_interval': self.interval,
            'samples': self.samples,
            'histograms': {name: h.to_dict()
                           for name, h in self.hists.items()},
            'spans': counts,
            'spans_dropped': self.spans_dropped,
        }
