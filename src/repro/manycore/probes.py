"""The probe plane: the machine reports each fact once, into one queue.

Every microarchitectural fact the paper's results are explained through
is named once in :data:`FACTS`, with the layout of the plain tuple its
one site appends.  ``machine.probes`` (a :class:`Probes`, always there)
holds one queue per fact and exposes that queue's bound ``append`` as
``probes.<fact>`` — ``None`` until an attached consumer declares the
fact — so every site in the machine reads::

    q = self.probes.llc_access
    if q is not None:
        q((bank, start, wait, miss, job))

An undeclared fact costs its site that attribute read and no call; a
declared one is recorded once however many consumers fold it.  Sites
only observe: nothing is posted to the event heap, so simulated cycles
are identical with any set of consumers attached (tested).

Consumers (:class:`Consumer`: telemetry, the observe plane, the serve
scheduler's request traces, the tracer, the test-side monitors) are
handed every drained batch.  :meth:`Probes.drain` runs when somebody
needs folded state, and from :meth:`Probes.tick` once the backlog
outgrows :data:`BACKLOG`.  ``HostProfiler.lap`` is not a fact: it
attributes *host* time to the run loop's own segments and stays
``fabric.profiler``.
"""

from __future__ import annotations

from typing import Dict, List

from .tile import INF

#: fact -> the layout of the tuple its one site appends (that site named
#: beside it; what each fact means and who folds it: DESIGN.md, "The probe
#: plane").  Records are plain data: none keeps a ``MemRequest`` alive.
FACTS: Dict[str, tuple] = {
    'mem_req': ('now', 'kind', 'core', 'bank', 'noc_delay', 'chunks'),
    #                                                 Fabric.send_to_bank
    'remote_store': ('now', 'src', 'dest'),    # Fabric.send_remote_store
    'frame_words': ('now', 'core', 'offset', 'n', 'job'),  # .spad_deliver
    'frame_cfg': ('now', 'core', 'base', 'frame_size', 'num_slots'),
    #                                                 Tile._csr_write
    'frame_start': ('now', 'core', 'seq'),          # execute frame_start
    'frame_free': ('now', 'core', 'seq'),           # execute remem
    'llc_access': ('bank', 'start', 'wait', 'miss', 'job'),  # LLCBank.access
    'load_reply': ('emit', 'core', 'bank', 'noc_delay'),  # LLCBank._complete
    'wide_issue': ('now', 'core', 'job'),           # execute vload
    'wide_served': ('ready', 'last_emit', 'last_arrival', 'bank', 'core',
                    't_issue', 'nwords', 'chunks'),   # LLCBank._complete
    'mt_launch': ('now', 'core', 'mt_pc'),          # Tile._await_launch
    'mt_end': ('now', 'core'),                      # Tile._step_expander
    'formation_wait': ('now', 'job'),               # Fabric.vconfig_arrive
    'formation': ('now', 'job'),                    # Fabric._form_group
    'issue': ('now', 'core', 'inst', 'mode'),       # Tile._commit_issue
    'inet_push': ('now', 'core', 'depth', 'capacity'),
    #                                 Tile.push_inet, Tile._forward
    'gpu_mem': ('now', 'service'),                  # GpuMachine._mem_access
    'request_state': ('now', 'req', 'state', 'queue_depth', 'running'),
    #                                                 ServeScheduler._notify
}

#: queued records beyond which the next tick folds them
BACKLOG = 1 << 12
#: cycles between backlog checks while any fact is declared
SWEEP = 256


class Consumer:
    """What the plane asks of a subscriber; override what applies."""

    facts: tuple = ()   # the facts it folds
    lap = 'events'      # HostProfiler component its tick time goes to
    next_due = INF      # cycle of its next `take`

    def take(self, now: int) -> None:
        """The clock crossed ``next_due``; must advance it."""

    def fold(self, batches: Dict[str, list]) -> None:
        """Fold drained records (``fact -> list``, non-empty facts only)."""

    def finalize(self, now: int) -> None:
        """The run ended or raised; everything queued is already folded."""


class Probes:
    """One queue per declared fact, one sample clock, one drain."""

    __slots__ = tuple(FACTS) + ('consumers', '_queues', '_sweep')

    def __init__(self):
        self.consumers: List[Consumer] = []
        self._queues: Dict[str, list] = {}
        self._rebind()

    def attach(self, consumer: Consumer) -> None:
        """Subscribe ``consumer`` to the facts it declares (idempotent)."""
        if consumer not in self.consumers:
            unknown = set(consumer.facts) - set(FACTS)
            if unknown:
                raise ValueError(f'unknown facts {sorted(unknown)}')
            self.consumers.append(consumer)
            self._rebind()

    def detach(self, consumer: Consumer) -> None:
        if consumer in self.consumers:
            self.drain()
            self.consumers.remove(consumer)
            self._rebind()

    def _rebind(self) -> None:
        declared = {f for c in self.consumers for f in c.facts}
        for fact in FACTS:
            if fact not in declared:
                self._queues.pop(fact, None)
                setattr(self, fact, None)
            elif fact not in self._queues:
                q = self._queues[fact] = []
                setattr(self, fact, q.append)
        self._sweep = 0 if declared else INF  # first tick aligns it

    @property
    def next_due(self) -> int:
        """The one sample deadline the run loop holds its clock against."""
        return min([c.next_due for c in self.consumers] + [self._sweep])

    def tick(self, now: int, lap=None) -> int:
        """The clock reached :attr:`next_due`: run the consumers that are
        due, fold an outgrown backlog; returns the next deadline."""
        if self._queues:
            self._sweep = now - now % SWEEP + SWEEP
            if sum(map(len, self._queues.values())) > BACKLOG:
                self.drain()
        for c in self.consumers:
            if now >= c.next_due:
                c.take(now)
                if lap is not None:
                    lap(c.lap)
        return self.next_due

    def drain(self) -> None:
        """Hand every queued record to every consumer, emptying the queues
        in place (the bound appends the sites hold stay valid)."""
        batches = {}
        for fact, q in self._queues.items():
            if q:
                batches[fact] = q[:]
                del q[:]
        if batches:
            for c in self.consumers:
                c.fold(batches)

    def finalize(self, now: int) -> None:
        """Close the run for every consumer — also when the loop raised."""
        self.drain()
        for c in self.consumers:
            c.finalize(now)
