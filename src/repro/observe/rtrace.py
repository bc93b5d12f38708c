"""Per-request causal tracing: from request id to a cycle breakdown.

The serving scheduler keeps a :class:`RequestTrace` per launched
:class:`~repro.manycore.fabric.FabricJob`.  The job travels wherever the
request's work already travels — into wide-access issue (the ``vload``
executor of ``manycore.execute``), LLC queue entries
(:meth:`LLCBank.access` reads ``req.job``), frame fills
(:meth:`Fabric.spad_deliver`), and group formation
(:meth:`Fabric.vconfig_arrive`) — whose probe records carry it, and the
scheduler (a probe-plane consumer) folds each record into a plain
integer on the owning trace.  Recording is observation-only: no events
are posted and no simulated state is read back, so cycle counts are
bit-identical with tracing on or off (tested).

At completion the trace plus the request's per-tile counter deltas
become a **phase breakdown** that sums *exactly* to the request's
end-to-end latency:

* ``queue``  — arrival to launch (wall-clock, exact);
* ``launch`` — cycles the request's lead (rank-0) tile spent waiting in
  ``vconfig`` for its group to form (wall-clock, exact; these cycles
  are attributed nowhere else — they land in per-tile *idle* time);
* the remaining service cycles are apportioned across ``execute``,
  ``frame_stall``, ``llc``, ``inet``, and ``unattributed`` in
  proportion to the per-tile attributed cycle categories (instruction
  issue, frame stalls, load-queue stalls + per-request LLC bank-port
  queueing, inet input/backpressure stalls, and everything else),
  rounded with the largest-remainder method so the integer phases sum
  exactly to the service window.

Conservation — ``queue + launch + execute + frame_stall + llc + inet +
unattributed == latency`` — is enforced by test for every completed
request, and the serving report surfaces the ``unattributed`` residual
instead of silently dropping cycles no category covers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: breakdown phase names, in presentation order
BREAKDOWN_PHASES = ('queue', 'launch', 'execute', 'frame_stall', 'llc',
                    'inet', 'unattributed')


class RequestTrace:
    """Causal counters for one in-flight request (keyed by its job)."""

    __slots__ = ('req_id', 'launch_cycles', 'lead_waits', 'llc_wait',
                 'llc_accesses', 'llc_misses', 'frame_words',
                 'wide_issued', 'formations')

    def __init__(self, req_id: int):
        self.req_id = req_id
        #: cycles the rank-0 tile spent waiting for group formation
        self.launch_cycles = 0
        #: cycles the rank-0 tile entered WAIT_VCONFIG, formation pending
        self.lead_waits: List[int] = []
        #: summed LLC bank-port queueing delay of this request's accesses
        self.llc_wait = 0.0
        self.llc_accesses = 0
        self.llc_misses = 0
        #: DAE frame words delivered into this request's scratchpads
        self.frame_words = 0
        #: wide accesses (vloads) issued by this request's tiles
        self.wide_issued = 0
        #: vector-group formations completed for this request
        self.formations = 0

    @property
    def lead_wait_from(self) -> Optional[int]:
        """Start of the open formation-wait episode, if one is open."""
        return self.lead_waits[0] if self.lead_waits else None

    def to_dict(self) -> dict:
        return {'req_id': self.req_id,
                'launch_cycles': self.launch_cycles,
                'llc_wait_cycles': int(self.llc_wait),
                'llc_accesses': self.llc_accesses,
                'llc_misses': self.llc_misses,
                'frame_words': self.frame_words,
                'wide_issued': self.wide_issued,
                'formations': self.formations}


def apportion(total: int, weights: Dict[str, float]) -> Dict[str, int]:
    """Split ``total`` across ``weights`` proportionally and *exactly*.

    Largest-remainder rounding: every share is the floored proportional
    amount, and the leftover units go to the largest fractional
    remainders (ties broken by key order, so the split is
    deterministic).  The returned integers always sum to ``total``.
    """
    keys = list(weights)
    if total <= 0:
        return {k: 0 for k in keys}
    wsum = float(sum(weights.values()))
    if wsum <= 0:
        out = {k: 0 for k in keys}
        out[keys[-1]] = total
        return out
    shares = {}
    remainders = []
    floor_sum = 0
    for k in keys:
        exact = total * weights[k] / wsum
        fl = int(exact)
        shares[k] = fl
        floor_sum += fl
        remainders.append((-(exact - fl), keys.index(k), k))
    leftover = total - floor_sum
    for _, _, k in sorted(remainders)[:leftover]:
        shares[k] += 1
    return shares


def build_breakdown(req) -> Optional[dict]:
    """The phase breakdown for a finished request; None if never launched.

    ``req`` is a :class:`~repro.serve.request.KernelRequest` whose
    ``stats`` (per-tile counter deltas) and ``_rtrace`` have been filled
    by the scheduler.  See the module docstring for phase semantics.
    """
    if req.launched_at is None or req.finished_at is None \
            or req.stats is None:
        return None
    queue = req.launched_at - req.arrival
    service = req.finished_at - req.launched_at
    rt = req._rtrace
    launch = min(rt.launch_cycles, service) if rt is not None else 0
    body = service - launch

    execute = frame = inet = loadq = sched = 0
    for cs in req.stats.cores.values():
        execute += cs.instrs
        frame += cs.stall_frame
        inet += cs.stall_inet_input + cs.stall_backpressure
        loadq += cs.stall_loadq
        sched += cs.stall_scoreboard + cs.stall_branch + cs.stall_other
    ntiles = len(req.stats.cores)
    idle = ntiles * service - (execute + frame + inet + loadq + sched)
    idle = max(0, idle - launch)  # formation waits already carved out
    llc_wait = int(rt.llc_wait) if rt is not None else 0

    shares = apportion(body, {
        'execute': execute,
        'frame_stall': frame,
        'llc': loadq + llc_wait,
        'inet': inet,
        'unattributed': sched + idle,
    })
    out = {'queue': queue, 'launch': launch}
    out.update(shares)
    return out


def breakdown_total(breakdown: dict) -> int:
    """Sum of every phase — equals the request's latency by construction."""
    return sum(breakdown[p] for p in BREAKDOWN_PHASES)


def merge_breakdowns(breakdowns) -> Dict[str, int]:
    """Aggregate several per-request breakdowns phase-by-phase."""
    out = {p: 0 for p in BREAKDOWN_PHASES}
    for b in breakdowns:
        for p in BREAKDOWN_PHASES:
            out[p] += b.get(p, 0)
    return out
