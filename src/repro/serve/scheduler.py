"""Multi-tenant kernel scheduler: admission queue + dispatcher.

The scheduler drives one live :class:`~repro.manycore.Fabric` through
:meth:`~repro.manycore.Fabric.run`, each request one
:class:`~repro.manycore.fabric.FabricJob` (the lifecycle a kernel run's
program has too):

* **admission** — request arrivals are fabric events; an arriving request
  either enters the priority queue or is rejected outright when its group
  shape can never fit the mesh.  The queue is the backpressure mechanism:
  an over-subscribed trace *waits*, it does not fail.
* **dispatch** — on every admission and every completion the queue is
  scanned in (priority, arrival, id) order and each request whose region
  first-fit-allocates is launched: its program is built against the
  allocated tiles (:class:`~repro.kernels.base.VectorParams` ``tiles``),
  and the group forms mid-simulation through the ordinary ``vconfig``
  path.  Requests that do not fit yet stay queued (smaller later requests
  may backfill around a blocked large one).
* **reclamation** — a job's ``on_complete`` fires only after its tiles
  halted *and* its in-flight memory operations drained, so freed regions
  are immediately reusable.
* **timeouts / wedges** — per-request timeouts are cancellable fabric
  events that kill the job (or drop the queued request); a wedged group
  with no timeout is caught by the fabric's stall handler, killed, and
  reported with its wait-state dump while unrelated groups keep running.

Dispatch itself is free in simulated time (programs are built host-side);
launched tiles begin executing on the next cycle.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.vgroup import plan_groups_in
from ..kernels import registry
from ..kernels.base import VectorParams
from ..manycore import Fabric, RunStats
from ..manycore.fabric import JOB_DONE, FabricJob
from ..manycore.probes import Consumer
from ..observe import RequestTrace, build_breakdown
from ..spans import KIND_REQUEST, core_track, make_span
from .allocator import Region, RegionAllocator
from .request import (DONE, FAILED, KernelRequest, QUEUED, REJECTED,
                      RUNNING, TIMED_OUT)

_MAX_DEFAULT = 200_000_000


@dataclass
class ServeResult:
    """Everything one serving run produced."""

    requests: List[KernelRequest]
    makespan: int
    fabric_stats: RunStats
    alloc_stats: object  # AllocStats
    peak_queue_depth: int
    peak_concurrent_jobs: int
    merged_stats: Optional[RunStats] = None  # RunStats.merge over requests
    num_tiles: int = 0  # mesh size, for tile-utilization SLOs
    #: each request's occupancy of each core it owned (repro.spans
    #: records, launch order); trace_id ties them to the fleet trace
    spans: List[dict] = field(default_factory=list)

    def by_state(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.requests:
            counts[r.state] = counts.get(r.state, 0) + 1
        return counts

    @property
    def completed(self) -> List[KernelRequest]:
        return [r for r in self.requests if r.state == DONE]


class ServeScheduler(Consumer):
    """Schedules a stream of kernel requests onto one live fabric.

    It is also the probe-plane consumer that routes per-job facts to the
    owning request's :class:`~repro.observe.RequestTrace`.
    """

    facts = ('llc_access', 'frame_words', 'wide_issue', 'formation_wait',
             'formation')

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        cfg = fabric.cfg
        self.allocator = RegionAllocator(cfg.mesh_width, cfg.mesh_height)
        self.queue: List[KernelRequest] = []
        self.running: Dict[int, Tuple[KernelRequest, Region, FabricJob]] = {}
        self.finished: List[KernelRequest] = []
        self.peak_queue_depth = 0
        self.peak_concurrent_jobs = 0
        self.spans: List[dict] = []
        self._open: Dict[int, List[dict]] = {}  # job_id -> its open spans
        self._rtraces: Dict[FabricJob, RequestTrace] = {}  # live jobs
        fabric._stall_handler = self._on_stall
        fabric.probes.attach(self)

    # -------------------------------------------------------------- admission
    def _admit(self, req: KernelRequest, now: int) -> None:
        if req.tiles_needed > self.allocator.num_tiles:
            req.state = REJECTED
            req.finished_at = now
            req.error = (f'needs {req.tiles_needed} tiles, mesh has '
                         f'{self.allocator.num_tiles}')
            self.finished.append(req)
            self._notify(req, now)
            return
        if req.timeout is not None:
            req._timeout_token = self.fabric.post(
                now + req.timeout,
                lambda at, r=req: self._on_timeout(r, at))
        self.queue.append(req)
        if len(self.queue) > self.peak_queue_depth:
            self.peak_queue_depth = len(self.queue)
        self._notify(req, now)
        self._dispatch(now)

    def _notify(self, req: KernelRequest, now: int) -> None:
        """Report a request's state change (rare)."""
        q = self.fabric.probes.request_state
        if q is not None:
            q((now, req, req.state, len(self.queue), len(self.running)))

    def fold(self, batches) -> None:
        """Credit each job-tagged record to its request's causal trace."""
        traces = self._rtraces
        for _bank, _start, wait, miss, job in batches.get('llc_access', ()):
            rt = traces.get(job)
            if rt is not None:
                rt.llc_wait += wait
                rt.llc_accesses += 1
                rt.llc_misses += miss
        for rec in batches.get('frame_words', ()):
            rt = traces.get(rec[4])
            if rt is not None:
                rt.frame_words += rec[3]
        for _now, _core, job in batches.get('wide_issue', ()):
            rt = traces.get(job)
            if rt is not None:
                rt.wide_issued += 1
        # the lead tile's waits and the formations ending them alternate,
        # so each formation closes the oldest open wait, however the two
        # facts interleave inside one batch
        for now, job in batches.get('formation_wait', ()):
            rt = traces.get(job)
            if rt is not None:
                rt.lead_waits.append(now)
        for now, job in batches.get('formation', ()):
            rt = traces.get(job)
            if rt is not None:
                rt.launch_cycles += now - rt.lead_waits.pop(0)
                rt.formations += 1

    # --------------------------------------------------------------- dispatch
    def _dispatch(self, now: int) -> None:
        self.queue = [r for r in self.queue if r.state == QUEUED]
        self.queue.sort(key=lambda r: (-r.priority, r.arrival, r.req_id))
        still_waiting: List[KernelRequest] = []
        for req in self.queue:
            region = self.allocator.alloc(req.tiles_needed)
            if region is None:
                still_waiting.append(req)
                continue
            self._launch(req, region, now)
        self.queue = still_waiting

    def _launch(self, req: KernelRequest, region: Region, now: int) -> None:
        fabric = self.fabric
        bench = registry.make(req.kernel)
        ws = bench.setup(fabric, req.params)
        vp = VectorParams(lanes=req.lanes, max_groups=req.groups,
                          tiles=region.core_ids)
        prog = bench.build_vector(fabric, ws, req.params, vp)
        job = fabric.launch_job(f'req{req.req_id}:{req.kernel}', prog,
                                region.core_ids,
                                on_complete=self._on_complete)
        # the job rides into wide-access issue, LLC queue entries, frame
        # fills and group formation; `fold` maps it back to this trace
        self._rtraces[job] = req._rtrace = RequestTrace(req.req_id)
        req.state = RUNNING
        req.launched_at = now
        req._bench = bench
        req._ws = ws
        req._stats0 = {t.core_id: copy.copy(t.stats) for t in job.tiles}
        self._notify(req, now)
        self.running[job.job_id] = (req, region, job)
        if len(self.running) > self.peak_concurrent_jobs:
            self.peak_concurrent_jobs = len(self.running)
        groups, _ = plan_groups_in(region.core_ids, req.lanes, req.groups)
        cores = {cid: g.group_id for g in groups for cid in g.tiles}
        spans = [make_span(req.trace_id, f'request-{req.req_id}-c{cid}',
                           f'req{req.req_id}:{req.kernel} g{gid}',
                           KIND_REQUEST, core_track(cid), now,
                           attrs={'request': req.req_id, 'job': job.job_id,
                                  'kernel': req.kernel, 'group': gid})
                 for cid, gid in sorted(cores.items())]
        self._open[job.job_id] = spans
        self.spans += spans

    # ------------------------------------------------------------- completion
    def _on_complete(self, job: FabricJob, now: int) -> None:
        self.fabric.probes.drain()  # the breakdown reads the folded trace
        del self._rtraces[job]
        req, region, _ = self.running.pop(job.job_id)
        for span in self._open.pop(job.job_id, ()):
            span['end'] = now
        if req._timeout_token is not None:
            self.fabric.cancel(req._timeout_token)
            req._timeout_token = None
        req.finished_at = now
        req.stats = self._request_stats(req, job, now)
        req.instrs = req.stats.total_instrs
        if job.state == JOB_DONE:
            req.state = DONE
            try:
                req._bench.verify(self.fabric, req._ws, req.params)
            except AssertionError as exc:
                req.state = FAILED
                req.error = f'output mismatch: {exc}'
        else:  # killed
            req.state = (TIMED_OUT if req._kill_reason == 'timeout'
                         else FAILED)
            if req.error is None:
                req.error = req._kill_reason or 'killed'
        req.breakdown = build_breakdown(req)
        self.finished.append(req)
        self._notify(req, now)
        self.allocator.free(region)
        self._dispatch(now)

    def _request_stats(self, req: KernelRequest, job: FabricJob,
                       now: int) -> RunStats:
        """Per-request counter deltas, shaped as a RunStats so several
        requests aggregate with :meth:`RunStats.merge`."""
        import dataclasses
        from ..manycore.stats import CoreStats
        out = RunStats()
        out.cycles = now - (req.launched_at or 0)
        names = [f.name for f in dataclasses.fields(CoreStats)]
        for t in job.tiles:
            base = req._stats0[t.core_id]
            delta = CoreStats()
            for name in names:
                setattr(delta, name,
                        getattr(t.stats, name) - getattr(base, name))
            delta.cycles = out.cycles
            out.cores[t.core_id] = delta
        return out

    # ------------------------------------------------------ timeouts / wedges
    def _on_timeout(self, req: KernelRequest, now: int) -> None:
        if req.state == QUEUED:
            req.state = TIMED_OUT
            req.finished_at = now
            req.error = (f'timed out after {req.timeout} cycles '
                         f'in the admission queue')
            self.finished.append(req)
            self._notify(req, now)
            return
        if req.state == RUNNING:
            req._kill_reason = 'timeout'
            req.error = f'timed out after {req.timeout} cycles'
            for _, (r, _, job) in list(self.running.items()):
                if r is req:
                    self.fabric.kill_job(job, now)
                    break

    def _on_stall(self, now: int) -> bool:
        """Fabric stall handler: free wedged jobs instead of aborting.

        When no tile can progress and no events are pending, every
        running job is wedged (a job waiting on memory would imply a
        pending event); kill them all, attach their wait-state dumps,
        and let queued requests take the freed tiles.
        """
        if not self.running:
            return False
        for job_id in list(self.running):
            req, _, job = self.running[job_id]
            req._kill_reason = 'deadlock'
            req.error = self.fabric.wait_state_dump(job.tiles)
            self.fabric.kill_job(job, now)
        return True

    # -------------------------------------------------------------------- run
    def run(self, requests: List[KernelRequest],
            max_cycles: int = _MAX_DEFAULT) -> ServeResult:
        """Replay a request trace to completion and collect the result."""
        fabric = self.fabric
        for req in sorted(requests, key=lambda r: (r.arrival, r.req_id)):
            fabric.post(req.arrival,
                        lambda now, r=req: self._admit(r, now))
        fabric_stats = fabric.run(max_cycles)
        for req in requests:  # should be unreachable; never lose a request
            if req.state in (QUEUED, RUNNING):
                req.state = FAILED
                req.error = req.error or 'stranded at end of serving run'
                req.finished_at = fabric.cycle
                self.finished.append(req)
        for spans in self._open.values():  # those jobs end with the run
            for span in spans:
                span['end'] = fabric.cycle
        ordered = sorted(requests, key=lambda r: r.req_id)
        with_stats = [r.stats for r in ordered if r.stats is not None]
        merged = RunStats.merge(with_stats) if with_stats else None
        return ServeResult(requests=ordered, makespan=fabric.cycle,
                           fabric_stats=fabric_stats,
                           alloc_stats=self.allocator.stats,
                           peak_queue_depth=self.peak_queue_depth,
                           peak_concurrent_jobs=self.peak_concurrent_jobs,
                           merged_stats=merged,
                           num_tiles=fabric.cfg.num_cores,
                           spans=self.spans)
