"""The instruction forwarding network (inet), paper Section 3.2.

The inet is a static network of direct 1-cycle links between mesh-adjacent
tiles.  Within a vector group the links form a single path:

    scalar -> expander -> vector_1 -> vector_2 -> ... -> vector_{N-1}

Each receiving core has a small input queue (2 entries in the paper).  A
sender stalls when the receiver's queue is full — this bounded queueing is
what makes the paper's compiler-driven implicit synchronization sound.

Messages are tagged tuples:

* ``('inst', Instr)``   — a forwarded vector instruction
* ``('launch', pc)``    — a ``vissue`` microthread launch
* ``('devec', pc)``     — disband; resume MIMD execution at ``pc``
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

MSG_INST = 'inst'
MSG_LAUNCH = 'launch'
MSG_DEVEC = 'devec'


class InetQueue:
    """One tile's inet input queue: bounded, with a 1-cycle link delay.

    ``push``/``peek``/``pop`` enforce the two protocol invariants (the
    sender checks capacity; only a message that has crossed the link is
    popped).  The tile's per-instruction forwarding path works on
    ``entries`` directly — it has just made the same two checks as part
    of its stall rules — and keeps ``pushes``/``peak_depth`` itself.
    """

    __slots__ = ('capacity', 'hop_latency', 'entries', 'peak_depth',
                 'pushes')

    def __init__(self, capacity: int = 2, hop_latency: int = 1):
        self.capacity = capacity
        self.hop_latency = hop_latency
        #: (ready_cycle, kind, payload), oldest first
        self.entries = deque()
        #: high-water mark; the fabric-invariant tests hold it to
        #: ``capacity`` (nothing else reads it)
        self.peak_depth = 0
        self.pushes = 0  # lifetime messages accepted (observability)

    def __len__(self):
        return len(self.entries)

    def can_accept(self) -> bool:
        return len(self.entries) < self.capacity

    def push(self, now: int, kind: str, payload) -> None:
        if not self.can_accept():
            raise RuntimeError('inet queue overflow (sender must check)')
        self.entries.append((now + self.hop_latency, kind, payload))
        self.pushes += 1
        if len(self.entries) > self.peak_depth:
            self.peak_depth = len(self.entries)

    def peek(self, now: int) -> Optional[Tuple[str, object]]:
        """Head message if it has traversed the link, else None."""
        if self.entries and self.entries[0][0] <= now:
            _, kind, payload = self.entries[0]
            return kind, payload
        return None

    def pop(self, now: int) -> Tuple[str, object]:
        ready, kind, payload = self.entries[0]
        if ready > now:
            raise RuntimeError('popping an in-flight inet message')
        self.entries.popleft()
        return kind, payload

    def next_ready_cycle(self) -> Optional[int]:
        """Cycle at which the head message becomes visible (for wakeups)."""
        if self.entries:
            return self.entries[0][0]
        return None

    def clear(self) -> None:
        """Drop queued messages (tile handed to a new job)."""
        self.entries.clear()
