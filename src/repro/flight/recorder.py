"""Black-box flight recorder: a bounded ring of structured events.

Modeled on an aircraft flight data recorder: the router continuously
records the decisions that matter for a post-mortem — admissions,
rejections, dispatches, crashes, re-routes, autoscaler actions with the
signal values that drove them, SLO warn/fail transitions, anomalies,
and each shard worker's launches, completions and deadlock dumps as
derived from the batch records it absorbs — into a
``deque(maxlen=capacity)``.  Steady-state cost is O(capacity) memory
and O(1) per event; when something dies, the last N events *are* the
story, already ordered and already bounded.

Alongside the event ring, a smaller ring of recent metric snapshots
(the observe plane's counter/gauge/histogram dict) gives the
post-mortem quantitative context: what latency_p99 and queue depth
looked like in the epochs leading up to the trigger.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

#: event kinds the recorder understands (free-form data rides along)
EVENT_KINDS = (
    'admit',          # request accepted into the router queue
    'reject',         # admission control said no
    'dispatch',       # batch handed to a shard worker
    'batch_done',     # batch absorbed back into global records
    'crash',          # shard worker died
    'reroute',        # orphaned request re-queued after a crash
    'reroute_exhausted',  # orphan exceeded max_reroutes -> failed
    'replace',        # replacement shard spawned to restore the floor
    'autoscale',      # autoscaler up/down decision with signal values
    'slo_transition',  # SLO status changed (pass -> warn -> fail ...)
    'anomaly',        # detector flagged a signal excursion
    # a shard worker's, derived from its batch's records (origin shard<N>)
    'deadlock',       # request killed in a wedge, with the wait-state dump
    'launch',         # request launched onto the shard's fabric
    'complete',       # request reached a terminal state in the shard
)


class FlightRecorder:
    """Bounded ring buffer of structured events plus metric snapshots."""

    def __init__(self, capacity: int = 256, source: str = 'router',
                 snapshot_capacity: int = 16):
        if capacity < 1:
            raise ValueError('capacity must be >= 1')
        self.capacity = capacity
        self.source = source
        self._seq = 0
        self._dropped = 0
        self._ring: Deque[dict] = deque(maxlen=capacity)
        self._snapshots: Deque[dict] = deque(maxlen=snapshot_capacity)

    def record(self, kind: str, t: int, **data) -> dict:
        """Append one event; returns the stored record."""
        if kind not in EVENT_KINDS:
            raise ValueError(f'unknown event kind {kind!r}')
        ev = {'seq': self._seq, 'kind': kind, 't': int(t),
              'source': self.source}
        if data:
            ev.update(data)
        self._seq += 1
        if len(self._ring) == self.capacity:
            self._dropped += 1
        self._ring.append(ev)
        return ev

    def record_snapshot(self, t: int, metrics: dict) -> None:
        """Remember one observe-plane metrics snapshot for context."""
        self._snapshots.append({'t': int(t), 'metrics': metrics})

    @property
    def seq(self) -> int:
        return self._seq

    @property
    def dropped(self) -> int:
        """Events that aged out of the ring (recorded - retained)."""
        return self._dropped

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """Ring contents, oldest first; optionally filtered by kind."""
        if kind is None:
            return list(self._ring)
        return [e for e in self._ring if e['kind'] == kind]

    def snapshots(self) -> List[dict]:
        return list(self._snapshots)

    def __len__(self) -> int:
        return len(self._ring)
