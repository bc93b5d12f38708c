"""Shard execution: one fabric per batch, in a crash-isolated worker.

A **shard** is one simulated fabric owned by the fleet.  The router
hands a shard its backlog as a :class:`ShardBatch` — a pickle- and
JSON-safe spec naming the requests (rebased to local arrival 0) — and a
worker process executes it end to end: fresh
:class:`~repro.manycore.Fabric`, :class:`~repro.serve.ServeScheduler`,
full schema-checked serve report, plus a sha256 **output digest** per
completed request.  Digests are what make fleet fault tolerance
*checkable*: PR 3's co-scheduling guarantee (job-ranked CSRs) means a
request's outputs are bit-identical no matter which shard runs it next
to which strangers, so a re-routed request after a shard crash must
reproduce the exact digest of the crash-free run.

The worker ships back only that report, the digests and its stats, all
on the shard's local clock.  The router moves them onto the fleet clock;
the flight recorder's per-shard launch/complete/deadlock events are
derived from the records the router built, so a batch carries no
separate event stream.

Batches run through :class:`ShardPool`, a thin skin over
:class:`~repro.jobs.SweepEngine` with dict passthrough as the wire
format and ``retries=0``: a worker that dies (including the fleet's own
injected ``SIGKILL``) surfaces as a ``crashed`` outcome for the router
to re-route, instead of being silently retried on the same shard.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..jobs.engine import JobOutcome, SweepEngine
from ..jobs.serialize import stats_to_dict

#: shard lifecycle states (router-side)
ACTIVE = 'active'        # routable: accepts new requests
DRAINING = 'draining'    # scale-down target: finishes its work, no new work
DEAD = 'dead'            # crashed: its requests were re-routed
RETIRED = 'retired'      # drained cleanly after scale-down


@dataclass(frozen=True)
class ShardBatch:
    """One busy period of one shard: requests rebased to local cycle 0."""

    shard_id: int
    epoch: int
    requests: Tuple[dict, ...]  # KernelRequest.to_dict() forms, arrival 0
    crash: bool = False  # fault injection: worker SIGKILLs itself
    max_cycles: int = 200_000_000
    #: per-shard observe-plane JSONL stream (append mode, shared across
    #: this shard's batches); None disables the plane entirely
    metrics_out: Optional[str] = None
    snapshot_interval: int = 5000

    def key(self) -> str:
        canon = json.dumps(
            {'shard': self.shard_id, 'epoch': self.epoch,
             'requests': list(self.requests), 'crash': self.crash},
            sort_keys=True)
        digest = hashlib.sha256(canon.encode()).hexdigest()[:16]
        return f'fleet-{digest}'

    def label(self) -> str:
        return (f'shard{self.shard_id}@e{self.epoch} '
                f'({len(self.requests)} request(s))')


def output_digest(outputs: Dict[str, object]) -> str:
    """sha256 over a request's named output arrays, bit-exact."""
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode())
        h.update(outputs[name].tobytes())
    return h.hexdigest()


def run_shard_batch(batch: ShardBatch) -> dict:
    """Worker entry: serve one batch on a fresh fabric, return a dict.

    The return value is the shard's complete story for this busy period:
    the schema-checked serve report (local timeline, per-request
    breakdowns), per-request output digests, and the batch's merged
    :class:`~repro.manycore.RunStats` in lossless dict form so the
    parent can :meth:`~repro.manycore.RunStats.merge` across the fleet.
    """
    if batch.crash:
        # fault injection: die the way a real OOM-killed worker dies —
        # no result, no traceback, just a SIGKILL exit code for the
        # engine's crash detector
        os.kill(os.getpid(), signal.SIGKILL)
    from ..manycore import Fabric
    from ..serve import (DONE, KernelRequest, ServeScheduler,
                         build_serve_report, request_outputs)
    requests = [KernelRequest.from_dict(d) for d in batch.requests]
    fabric = Fabric()
    if batch.metrics_out is not None:
        # the run's own finalize writes the `final` line and closes the sink
        from ..observe import ObservePlane
        ObservePlane(interval=batch.snapshot_interval,
                     metrics_out=batch.metrics_out,
                     append=True).attach(fabric)
    scheduler = ServeScheduler(fabric)
    result = scheduler.run(requests, max_cycles=batch.max_cycles)
    report = build_serve_report(result)
    digests: Dict[str, str] = {}
    for req in result.requests:
        if req.state == DONE:
            outs = request_outputs(fabric, req)
            if outs is not None:
                digests[str(req.req_id)] = output_digest(outs)
    return {
        'shard_id': batch.shard_id,
        'epoch': batch.epoch,
        'makespan': result.makespan,
        'num_tiles': result.num_tiles,
        'report': report,
        'digests': digests,
        'stats': (stats_to_dict(result.merged_stats)
                  if result.merged_stats is not None else None),
    }


class ShardPool:
    """Parallel shard-batch execution on the SweepEngine worker farm.

    Reuses the engine's pipe protocol, per-batch timeout, and
    crashed-worker detection verbatim; substitutes dict passthrough for
    the RunResult wire format and disables retries so every crash is
    the *router's* decision to handle (re-route), not the engine's
    (silent same-shard retry).
    """

    def __init__(self, workers: int = 4, timeout: Optional[float] = None):
        self.engine = SweepEngine(
            jobs=workers, timeout=timeout, retries=0, store=None,
            job_fn=run_shard_batch,
            encode=lambda doc: doc, decode=lambda doc: doc)

    @property
    def launched(self) -> int:
        return self.engine.launched

    def run_batches(self,
                    batches: Sequence[ShardBatch]) -> List[JobOutcome]:
        """Execute one epoch's batches in parallel; outcomes in order."""
        if not batches:
            return []
        return self.engine.execute(batches)
