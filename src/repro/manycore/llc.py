"""Shared last-level cache banks with wide-access support.

Each bank (paper: 16 banks, 256 kB total, 4-way, pseudo-LRU, write-back)
owns a stripe of the global address space (``line % num_banks``).  Banks
accept one request per cycle and emit one response packet per cycle per
port; a response packet carries up to ``noc_width_words`` words to a single
destination core.  This response serialization is the paper's Section 3.4
counter mechanism: a wide access hit initializes a counter and the bank
generates per-chunk responses serially.

The cache stores *timing* state only (tags, dirtiness); data always lives in
the fabric's flat memory and is read at response-emission time.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

KIND_LOAD = 0
KIND_STORE = 1
KIND_WIDE = 2


class MemRequest:
    """One request from a core to an LLC bank."""

    __slots__ = ('kind', 'addr', 'nwords', 'core', 'chunks', 'on_data',
                 'value', 'is_frame', 't_issue', 'job')

    def __init__(self, kind: int, addr: int, nwords: int, core: int,
                 chunks=None, on_data: Optional[Callable] = None,
                 value=None, is_frame: bool = False):
        self.kind = kind
        self.addr = addr
        self.nwords = nwords
        self.core = core
        self.chunks = chunks  # [(addr, count, dest_core, dest_spad_off)]
        self.on_data = on_data
        self.value = value
        self.is_frame = is_frame
        self.t_issue = None  # issue cycle (wide accesses)
        self.job = None  # issuing FabricJob, set by Fabric.send_to_bank


class LLCBank:
    """One LLC bank: tag array, MSHRs, request and response ports."""

    def __init__(self, bank_id: int, fabric, cfg, stats):
        self.bank_id = bank_id
        self.fabric = fabric
        self.probes = fabric.probes
        self.cfg = cfg
        self.stats = stats
        self.line_words = cfg.line_words
        self.num_sets = cfg.llc_sets_per_bank
        self.ways = cfg.llc_ways
        self.hit_latency = cfg.llc_hit_latency
        self.noc_width = cfg.noc_width_words
        # per-set MRU-ordered list of line ids (front = most recent)
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self._resident = 0  # total lines across sets (occupancy telemetry)
        self._dirty = set()
        self._mshr: Dict[int, List[MemRequest]] = {}
        self._req_free = 0.0
        self._resp_free = 0.0

    # -- tag array ------------------------------------------------------------
    def _set_of(self, line: int) -> int:
        return (line // self.cfg.llc_banks) % self.num_sets

    def _lookup(self, line: int) -> bool:
        s = self._sets[self._set_of(line)]
        if line in s:
            s.remove(line)
            s.insert(0, line)
            return True
        return False

    def _insert(self, line: int, now: int) -> None:
        s = self._sets[self._set_of(line)]
        if line in s:
            return
        if len(s) >= self.ways:
            victim = s.pop()
            if victim in self._dirty:
                self._dirty.discard(victim)
                self.fabric.dram.write_line(now)
        else:
            self._resident += 1
        s.insert(0, line)

    def resident_lines(self) -> int:
        return self._resident

    # -- request handling -------------------------------------------------------
    def access(self, req: MemRequest, arrive: int) -> None:
        """Accept a request; the bank port serializes at 1/cycle."""
        start = max(float(arrive), self._req_free)
        self._req_free = start + 1.0
        t = int(math.ceil(start)) + self.hit_latency
        self.stats.llc_accesses += 1
        if req.kind == KIND_WIDE:
            self.stats.wide_requests += 1
        line = req.addr // self.line_words
        hit = self._lookup(line)
        q = self.probes.llc_access
        if q is not None:
            q((self.bank_id, start, start - arrive, not hit, req.job))
        if hit:
            self._complete(req, t)
        else:
            self.stats.llc_misses += 1
            waiting = self._mshr.get(line)
            if waiting is None:
                self._mshr[line] = [req]
                self.fabric.dram.read_line(
                    t, self.fabric, lambda now, ln=line: self._filled(ln, now))
            else:
                waiting.append(req)

    def _filled(self, line: int, now: int) -> None:
        self._insert(line, now)
        for req in self._mshr.pop(line, []):
            self._complete(req, now)

    def _complete(self, req: MemRequest, ready: int) -> None:
        mem = self.fabric.memory
        noc = self.fabric.noc
        if req.kind == KIND_STORE:
            mem[req.addr] = req.value
            self._dirty.add(req.addr // self.line_words)
            self.stats.llc_word_writes += 1
            self.fabric.job_op_done(req.job, ready)
            return
        if req.kind == KIND_LOAD:
            self.stats.llc_word_reads += 1
            emit = self._emit_slot(ready)
            value = mem[req.addr]
            hops = noc.bank_hops(req.core, self.bank_id)
            delay = noc.delay_for_hops(hops)
            arrival = emit + delay
            self.fabric.count_hops(hops)
            q = self.probes.load_reply
            if q is not None:
                q((emit, req.core, self.bank_id, delay))
            fabric = self.fabric

            def reply(now, r=req, v=value):
                r.on_data(v, now)  # the data lands, then the op counts done
                fabric.job_op_done(r.job, now)

            fabric.post(arrival, reply)
            return
        # wide access: serialized response packets per chunk.  Their NoC
        # traversals are *derived* by whoever folds `wide_served` from
        # the chunk list (delays are a pure function of (dest core,
        # bank)), so the hot loop carries no probes.
        last_emit = ready
        last_arrival = ready
        for (addr, count, dest_core, dest_off) in req.chunks:
            self.stats.llc_word_reads += count
            sent = 0
            while sent < count:
                n = min(self.noc_width, count - sent)
                emit = self._emit_slot(ready)
                values = mem[addr + sent:addr + sent + n]
                hops = noc.bank_hops(dest_core, self.bank_id)
                delay = noc.delay_for_hops(hops)
                arrival = emit + delay
                self.fabric.count_hops(hops * n)
                self.fabric.post_spad_delivery(
                    arrival, dest_core, dest_off + sent, values,
                    req.is_frame)
                sent += n
                if emit > last_emit:
                    last_emit = emit
                if arrival > last_arrival:
                    last_arrival = arrival
        self.fabric.wide_done(last_arrival, req.job)
        q = self.probes.wide_served
        if q is not None:
            q((ready, last_emit, last_arrival, self.bank_id, req.core,
               req.t_issue, req.nwords, req.chunks))

    def _emit_slot(self, ready: int) -> int:
        """Claim one cycle of the response port; returns the emit cycle."""
        self.stats.response_packets += 1
        if self.cfg.ideal_llc_ports:
            return ready
        emit = max(float(ready), self._resp_free)
        self._resp_free = emit + 1.0
        return int(math.ceil(emit))
