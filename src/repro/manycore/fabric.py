"""The manycore fabric: tiles + NoC + LLC banks + DRAM + the event loop.

Simulation is cycle-stepped but event-assisted: tiles report the next cycle
at which they can make progress, memory completions are scheduled on an
event heap, and the clock jumps straight to the earliest interesting time.
This keeps pure-Python simulation fast through long memory stalls while
preserving cycle-granular interleaving where it matters.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence

from ..core.vgroup import (GroupDescriptor, ROLE_EXPANDER, ROLE_SCALAR,
                           ROLE_VECTOR)
from ..isa.assembler import Program
from .config import DEFAULT_CONFIG, MachineConfig
from .dram import Dram
from .execute import bind_program
from .llc import KIND_STORE, LLCBank, MemRequest
from .noc import NocModel
from .probes import Probes
from .stats import RunStats
from .tile import HALTED, INF, RUN, Tile, WAIT_BARRIER, WAIT_VCONFIG

_MAX_DEFAULT = 200_000_000

# FabricJob lifecycle states
JOB_RUNNING = 'running'
JOB_DRAINING = 'draining'  # tiles halted/killed, memory ops still in flight
JOB_DONE = 'done'
JOB_KILLED = 'killed'

#: first line of :meth:`Fabric.wait_state_dump`; a served request killed
#: in a wedge carries the dump as its ``error``
DEADLOCK_HEADLINE = 'deadlock: no runnable tile and no pending events'


class DeadlockError(Exception):
    """No tile can make progress and no events are pending."""


class SimulationTimeout(Exception):
    """The run exceeded its cycle budget."""


class FabricJob:
    """One program's lifecycle on a set of the fabric's tiles.

    Every program runs as a job: ``load_program`` launches one for a
    kernel run, ``launch_job`` one per served request on a live fabric.
    A job scopes barriers, the memory fence, halt detection, and stats
    attribution to its own tiles so several kernels can share the fabric.
    ``pending_ops`` counts in-flight memory operations issued by the job's
    tiles; the job's tiles (and its mesh region) must not be reused until
    it drains to zero, or late completions would corrupt the successor's
    state.
    """

    __slots__ = ('job_id', 'name', 'tiles', 'core_ids', 'state',
                 'pending_ops', 'fence_waiting', 'launched_at',
                 'finished_at', 'on_complete', '_drain_kind')

    def __init__(self, job_id: int, name: str, tiles: List[Tile],
                 on_complete: Optional[Callable] = None):
        self.job_id = job_id
        self.name = name
        self.tiles = tiles
        self.core_ids = [t.core_id for t in tiles]
        self.state = JOB_RUNNING
        self.pending_ops = 0
        self.fence_waiting = False
        self.launched_at = 0
        self.finished_at: Optional[int] = None
        self.on_complete = on_complete
        self._drain_kind = JOB_DONE  # final state once pending ops land

    @property
    def finished(self) -> bool:
        return self.state in (JOB_DONE, JOB_KILLED)

    def __repr__(self):
        return (f'<FabricJob {self.job_id} {self.name!r} {self.state} '
                f'cores={self.core_ids[0]}..{self.core_ids[-1]} '
                f'pending={self.pending_ops}>')


class Fabric:
    """A W x H tiled machine with shared LLC banks and DRAM."""

    def __init__(self, cfg: MachineConfig = DEFAULT_CONFIG):
        self.cfg = cfg
        #: the two observer attributes: every fact the machine reports
        #: goes through ``probes`` (see manycore.probes); ``profiler`` is
        #: the optional HostProfiler (see repro.perf) timing the run loop
        self.probes = Probes()
        self.profiler = None
        self.run_stats = RunStats()
        self.noc = NocModel(cfg.mesh_width, cfg.mesh_height, cfg.llc_banks,
                            cfg.router_hop_latency)
        self.dram = Dram(cfg.dram_latency,
                         cfg.dram_bandwidth_words_per_cycle,
                         cfg.line_words, self.run_stats.mem)
        self.banks = [LLCBank(b, self, cfg, self.run_stats.mem)
                      for b in range(cfg.llc_banks)]
        self.tiles = [Tile(i, self, cfg) for i in range(cfg.num_cores)]
        self.run_stats.cores = {t.core_id: t.stats for t in self.tiles}

        self.memory: List = []
        self._alloc_ptr = 0
        self.cycle = 0
        self._heap: list = []
        self._seq = 0
        self._pending_events: set = set()  # seqs of live (uncancelled) events
        # same-cycle scratchpad delivery batches: arrival time -> list of
        # (core, offset, values, is_frame), drained by one posted event;
        # the jobs whose wide accesses complete with that batch ride it
        self._delivery_batches: Dict[int, list] = {}
        self._delivery_done: Dict[int, list] = {}
        self.group_descs: Dict[int, GroupDescriptor] = {}
        self.num_groups = 0
        self._active: List[Tile] = []
        self._active_dirty = False
        #: the earliest wake_tile since the run loop's last walk; every
        #: lowering of a tile's next_wake goes through wake_tile (or marks
        #: _active_dirty), so the loop never recomputes the minimum
        self._woke = INF
        self._next_job_id = 0
        #: the serving scheduler's hook: called with the current cycle when
        #: no tile can progress and no events are pending; return True
        #: after freeing a wedged job to keep the fabric alive instead of
        #: raising
        self._stall_handler: Optional[Callable[[int], bool]] = None

    # ------------------------------------------------------------- memory setup
    def alloc(self, data_or_size) -> int:
        """Allocate a line-aligned global array; returns its word address.

        Line 0 is reserved as a guard so that one-word-shifted (unaligned)
        stencil loads never index below zero.
        """
        lw = self.cfg.line_words
        base = ((max(len(self.memory), lw) + lw - 1) // lw) * lw
        if isinstance(data_or_size, int):
            values = [0.0] * data_or_size
        else:
            values = [float(v) for v in data_or_size]
        self.memory.extend([0.0] * (base - len(self.memory)))
        self.memory.extend(values)
        # pad to a line boundary plus one trailing guard line, so shifted
        # (unaligned) loads one word past an array stay in bounds
        pad = (lw - len(self.memory) % lw) % lw + lw
        self.memory.extend([0.0] * pad)
        return base

    def read_array(self, base: int, n: int) -> List:
        return self.memory[base:base + n]

    # ------------------------------------------------------------- group setup
    def register_group(self, desc: GroupDescriptor) -> int:
        """Register a vector-group descriptor; returns its vconfig handle."""
        handle = len(self.group_descs)
        self.group_descs[handle] = desc
        self.num_groups = len(self.group_descs)
        return handle

    # ----------------------------------------------------------------- events
    def post(self, time: int, fn) -> int:
        """Schedule ``fn(now)``; returns a token usable with :meth:`cancel`."""
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._pending_events.add(self._seq)
        return self._seq

    def cancel(self, token: int) -> bool:
        """Cancel a posted event; harmless if it already fired."""
        if token in self._pending_events:
            self._pending_events.discard(token)
            return True
        return False

    def _peek_live(self) -> Optional[int]:
        """Time of the earliest live event, discarding cancelled heads."""
        heap = self._heap
        pending = self._pending_events
        while heap and heap[0][1] not in pending:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def wake_tile(self, tile: Tile, time: int) -> None:
        t = max(time, self.cycle)
        if t < tile.next_wake:
            tile.next_wake = t
            if t < self._woke and not tile.halted:
                self._woke = t

    def count_hops(self, word_hops: int) -> None:
        self.run_stats.noc_word_hops += word_hops

    # ------------------------------------------------------------ memory traffic
    def send_to_bank(self, req: MemRequest, now: int) -> None:
        req.job = self.tiles[req.core].job
        req.job.pending_ops += 1
        bank_id = (req.addr // self.cfg.line_words) % self.cfg.llc_banks
        hops = self.noc.bank_hops(req.core, bank_id)
        self.count_hops(hops)
        delay = self.noc.bank_delay(req.core, bank_id)
        q = self.probes.mem_req
        if q is not None:
            q((now, req.kind, req.core, bank_id, delay, req.chunks))
        self.banks[bank_id].access(req, now + delay)

    def send_store(self, core: int, addr: int, value, now: int) -> None:
        req = MemRequest(KIND_STORE, addr, 1, core, value=value)
        self.send_to_bank(req, now)

    def send_remote_store(self, src: int, dest: int, offset: int, value,
                          now: int) -> None:
        delay = self.noc.core_delay(src, dest)
        self.count_hops(delay - 1)
        job = self.tiles[src].job
        job.pending_ops += 1
        q = self.probes.remote_store
        if q is not None:
            q((now, src, dest))

        def deliver(at, d=dest, o=offset, v=value, j=job):
            self.spad_deliver(d, o, [v], False)
            self.job_op_done(j, at)

        self.post(now + delay, deliver)

    def post_spad_delivery(self, time: int, core: int, offset: int,
                           values: Sequence, is_frame: bool) -> None:
        """Schedule a scratchpad delivery, coalescing same-cycle packets.

        A wide LLC response emits one packet per NoC-width chunk, and on
        frame-heavy kernels many packets land on the same cycle; one
        heap event per packet is measurable host overhead.  Packets for
        the same arrival cycle share a single posted event and drain in
        append (= post) order, so sim-visible behaviour is unchanged:
        the run loop fires every event due at a cycle before any tile
        steps, and deliveries are never cancelled.
        """
        batch = self._delivery_batches.get(time)
        if batch is None:
            self._delivery_batches[time] = batch = []

            def fire(now, w=time):
                for core, offset, values, is_frame in \
                        self._delivery_batches.pop(w):
                    self.spad_deliver(core, offset, values, is_frame)
                for job in self._delivery_done.pop(w, ()):
                    self.job_op_done(job, now)

            self.post(time, fire)
        batch.append((core, offset, values, is_frame))

    def wide_done(self, time: int, job: FabricJob) -> None:
        """Count one of ``job``'s wide accesses done once its last packet
        lands at ``time``: after every packet of that cycle's delivery
        batch, in the batch's own event (no heap entry of its own)."""
        done = self._delivery_done.get(time)
        if done is None:
            self._delivery_done[time] = done = []
        done.append(job)

    def spad_deliver(self, core: int, offset: int, values: Sequence,
                     is_frame: bool) -> None:
        tile = self.tiles[core]
        tile.spad.deliver(offset, values, is_frame)
        q = self.probes.frame_words
        if q is not None and is_frame:
            q((self.cycle, core, offset, len(values), tile.job))
        self.wake_tile(tile, self.cycle)

    # --------------------------------------------------------------- formation
    def vconfig_arrive(self, tile: Tile, handle: int, now: int) -> None:
        desc = self.group_descs.get(handle)
        if desc is None:
            raise DeadlockError(f'vconfig with unknown handle {handle}')
        if tile.core_id not in desc.tiles:
            raise DeadlockError(
                f'core {tile.core_id} ran vconfig for group '
                f'{desc.group_id} it does not belong to')
        tile.state = WAIT_VCONFIG
        q = self.probes.formation_wait
        if q is not None and tile is tile.job.tiles[0]:
            # the job's lead tile begins a formation wait; these cycles
            # are the request's "launch" phase (they land in idle() and
            # in no stall bucket, so the carve-out is exact)
            q((now, tile.job))
        desc._arrived.add(tile.core_id)
        if len(desc._arrived) == len(desc.tiles):
            desc._arrived.clear()
            self._form_group(desc, now)

    def _form_group(self, desc: GroupDescriptor, now: int) -> None:
        q = self.probes.formation
        for i, cid in enumerate(desc.tiles):
            t = self.tiles[cid]
            t.group = desc
            if i == 0:
                t.mode = ROLE_SCALAR
                t.lane_idx = -1
            elif i == 1:
                t.mode = ROLE_EXPANDER
                t.lane_idx = 0
            else:
                t.mode = ROLE_VECTOR
                t.lane_idx = i - 1
            nxt = desc.successor(cid)
            t.successor = self.tiles[nxt] if nxt != -1 else None
            t.group_id_csr = desc.group_id
            t.ngroups_csr = (desc.total_groups if desc.total_groups
                             is not None else self.num_groups)
            t.state = RUN
            t.in_mt = False
            t.pred = True
            t._ready_at = now + 1
            self.wake_tile(t, now + 1)
            if q is not None and t is t.job.tiles[0]:
                q((now, t.job))

    # ----------------------------------------------------------------- barrier
    def barrier_arrive(self, tile: Tile, now: int) -> None:
        tile.state = WAIT_BARRIER
        self._check_job_barrier(tile.job, now)

    def on_halt(self, tile: Tile, now: int) -> None:
        self._active_dirty = True
        tile.next_wake = INF
        # the halting tile may be the last one its job-mates wait for
        self._check_job_barrier(tile.job, now)
        self._check_job_halt(tile.job, now)

    # ------------------------------------------------------------ job lifecycle
    def load_program(self, program: Program,
                     active_cores: Optional[Sequence[int]] = None) -> None:
        """Launch ``program`` as one job on ``active_cores`` (default:
        every core), ranked in the order given, for :meth:`run`.

        Its tiles first step at the current cycle; a job launched with
        :meth:`launch_job` on a live fabric waits until the next one.
        """
        if active_cores is None:
            active_cores = range(self.cfg.num_cores)
        self._launch('program', program, active_cores, None, self.cycle)

    def launch_job(self, name: str, program: Program,
                   core_ids: Sequence[int],
                   on_complete: Optional[Callable] = None) -> FabricJob:
        """Start ``program`` on ``core_ids`` while the fabric keeps running.

        Ranks (thread id / ncores CSRs) are the positions in ``core_ids``,
        so a job sees the same SPMD shape regardless of where its region
        sits on the mesh.  ``on_complete(job, now)`` fires once every tile
        halted (or the job was killed) *and* its in-flight memory
        operations drained — only then is it safe to reuse the tiles.
        The tiles first step at the next cycle: simulated time never
        moves backwards for a launch made mid-cycle.
        """
        return self._launch(name, program, core_ids, on_complete,
                            self.cycle + 1)

    def _launch(self, name: str, program: Program, core_ids: Sequence[int],
                on_complete: Optional[Callable], start: int) -> FabricJob:
        bind_program(program)
        tiles = []
        for cid in core_ids:
            t = self.tiles[cid]
            if t.job is not None and not t.job.finished:
                raise ValueError(f'core {cid} still owned by {t.job!r}')
            tiles.append(t)
        job = FabricJob(self._next_job_id, name, tiles, on_complete)
        self._next_job_id += 1
        job.launched_at = self.cycle
        for rank, t in enumerate(tiles):
            t.reset_for_job(program, rank, len(tiles), job, start)
            if t not in self._active:
                self._active.append(t)
        self._active_dirty = True
        return job

    def kill_job(self, job: FabricJob, now: int) -> None:
        """Forcibly halt a job's tiles (timeout / wedged group).

        The job moves to ``draining`` until its in-flight memory operations
        land, then ``killed``; ``on_complete`` fires at that point.  Killed
        tiles keep their architectural junk — ``reset_for_job`` scrubs it
        when the region is reused.
        """
        if job.finished or job.state == JOB_DRAINING:
            return
        for t in job.tiles:
            if t.group is not None:
                t.group._arrived.discard(t.core_id)
            t.halted = True
            t.state = HALTED
            t.next_wake = INF
        self._active_dirty = True
        if job.pending_ops:
            job.state = JOB_DRAINING
            job._drain_kind = JOB_KILLED
        else:
            self._finish_job(job, now, JOB_KILLED)

    def job_op_done(self, job: FabricJob, now: int) -> None:
        """One of the job's in-flight memory operations completed."""
        job.pending_ops -= 1
        if job.pending_ops:
            return
        if job.fence_waiting:
            # the fence releases one cycle after the last operation lands
            job.fence_waiting = False
            self.post(now + 1,
                      lambda at, j=job: self._check_job_barrier(j, at))
        if job.state == JOB_DRAINING:
            self._finish_job(job, now, job._drain_kind)

    def _check_job_barrier(self, job: FabricJob, now: int) -> None:
        waiting = [t for t in job.tiles if not t.halted]
        if not waiting:
            return
        if not all(t.state == WAIT_BARRIER for t in waiting):
            return
        # The barrier is also a memory fence: the job's in-flight stores
        # and fills must land before its next phase starts (the paper
        # separates dependent kernels with a barrier, Section 6.1).  Other
        # jobs keep the event heap busy, so the fence waits for *this
        # job's* op counter to drain.
        if job.pending_ops:
            job.fence_waiting = True
            return
        for t in waiting:
            t.state = RUN
            t._ready_at = now + 1
            self.wake_tile(t, now + 1)

    def _check_job_halt(self, job: FabricJob, now: int) -> None:
        if job.finished or job.state == JOB_DRAINING:
            return
        if not all(t.halted for t in job.tiles):
            return
        if job.pending_ops:
            job.state = JOB_DRAINING
            job._drain_kind = JOB_DONE
            return
        self._finish_job(job, now, JOB_DONE)

    def _finish_job(self, job: FabricJob, now: int, state: str) -> None:
        job.state = state
        job.finished_at = now
        if job.on_complete is not None:
            job.on_complete(job, now)

    # --------------------------------------------------------------------- run
    def run(self, max_cycles: int = _MAX_DEFAULT) -> RunStats:
        """Run until no tile is active and no event is pending.

        Jobs launched from event callbacks (completion-driven dispatch)
        keep the loop alive; a wedged job is routed to ``_stall_handler``
        when one is set, instead of raising :class:`DeadlockError`.
        """
        prof = self.profiler
        if prof is not None:
            prof.begin_run()
        try:
            self._run_loop(max_cycles)
            self.run_stats.cycles = self.cycle
            for t in self.tiles:
                # a core issuing at the final cycle index C occupies cycle
                # slot C, so the per-core elapsed count is C+1 slots; this
                # keeps cycles == instrs + stall_total() + idle() exact
                # (the headline run_stats.cycles keeps the last-index form)
                t.stats.cycles = self.cycle + 1
            return self.run_stats
        finally:
            # also when the loop raised: consumers get their closing
            # sample and final record, and sinks are flushed and closed
            self.probes.finalize(self.cycle)
            if prof is not None:
                prof.lap('finish')
                prof.end_run()

    def _run_loop(self, max_cycles: int) -> None:
        # The one event loop, profiled or not.  With a HostProfiler
        # attached, `lap(name)` credits the host time since the previous
        # lap to a component (see repro.perf.profiler); detached, each
        # timing point costs one local `is not None` test.
        lap = classify = None
        if self.profiler is not None:
            lap = self.profiler.lap
            classify = self.profiler.classify
        probes = self.probes
        next_due = probes.next_due  # the one sample deadline (INF if bare)
        heap = self._heap
        active = [t for t in self._active if not t.halted]
        self._active_dirty = False
        soon = min([t.next_wake for t in active] + [INF])
        self._woke = INF
        while True:
            if self._active_dirty:
                active = [t for t in self._active if not t.halted]
                self._active_dirty = False
                soon = min([t.next_wake for t in active] + [INF])
                self._woke = INF
            if not active and not self._pending_events:
                break
            # `soon` is min(next_wake over active): the last walk's values
            # and every wake_tile since (`_woke`), which only lowers them
            now = min(soon, self._woke)
            head = self._peek_live()
            if head is not None and head < now:
                now = head
            if now >= INF:  # no tile can progress and no event pends
                if (self._stall_handler is not None
                        and self._stall_handler(self.cycle)):
                    if lap is not None:
                        lap('serve')
                    continue  # the handler freed a wedged job
                raise DeadlockError(self.wait_state_dump())
            if now > max_cycles:
                raise SimulationTimeout(
                    f'exceeded {max_cycles} cycles at cycle {self.cycle}')
            self.cycle = now
            if lap is not None:
                lap('sched')
            if now >= next_due:
                next_due = probes.tick(now, lap)
            pending = self._pending_events
            while heap and heap[0][0] <= now:
                _, seq, fn = heapq.heappop(heap)
                if seq in pending:
                    pending.discard(seq)
                    fn(now)
                    if lap is not None:
                        lap(classify(fn))
            # every event due at `now` has fired; a tile one of them
            # launched is not in this snapshot and wakes at now + 1
            self._woke = soon = INF
            for t in active:
                w = t.next_wake
                if w <= now and not t.halted:
                    w = t.step(now)
                    if w <= now:
                        w = now + 1
                    t.next_wake = w
                if w < soon:
                    soon = w
            if lap is not None:
                lap('tile_step')

    def wait_state_dump(self, tiles: Optional[Sequence[Tile]] = None) -> str:
        """Describe every stuck tile: role, blocked instruction, frame and
        inet occupancy — the first thing one needs when a group wedges."""
        if tiles is None:
            tiles = self._active
        lines = [DEADLOCK_HEADLINE]
        for t in tiles:
            if not t.halted:
                lines.append('  ' + t.describe_wait_state())
        return '\n'.join(lines)
