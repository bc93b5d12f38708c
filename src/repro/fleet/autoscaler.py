"""SLO-driven fleet sizing with hysteresis.

The autoscaler watches the two signals the serving SLOs gate on —
**p99 global latency** over a sliding window of completed requests, and
**tile utilization** of recent shard busy periods — and turns them into
scale decisions at epoch boundaries:

* p99 above ``latency_p99_up`` for ``up_consecutive`` boundaries in a
  row grows the fleet by one shard (up to ``max_shards``);
* p99 below ``latency_p99_down`` *and* utilization below ``util_down``
  for ``down_consecutive`` boundaries shrinks it by one (down to
  ``min_shards``) — the router then *drains* the chosen shard: it
  finishes its in-flight batch and backlog, takes no new work, and
  retires without dropping anything.

Both signals are **time-windowed** (the last ``window_epochs`` epoch
boundaries), not count-windowed: a quiet tail after a burst must let
the burst-era latencies age out, or the fleet would keep scaling up on
stale pain.  An empty window reads as p99 0 / utilization 0 — an idle,
over-provisioned fleet legitimately shrinks — except before the very
first completion, so a cold fleet is never drained while its first
batches are still in flight.

Hysteresis is three-fold — separate up/down thresholds, consecutive-
breach streaks, and a post-action cooldown — so a bursty arrival
process cannot make the fleet flap.  Every decision is recorded as an
event dict (epoch, action, reason, both signal values) that lands in
the fleet report for auditability.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..serve.report import percentile

UP = 'up'
DOWN = 'down'
REPLACE = 'replace'  # crash replacement, not a policy decision


def scale_event(epoch: int, action: str, before: int, after: int,
                p99: float, util: float, reason: str) -> dict:
    """One fleet-size change, as the fleet report's ``events`` carry it."""
    return {'epoch': epoch, 'action': action, 'reason': reason,
            'shards_before': before, 'shards_after': after,
            'latency_p99': p99, 'tile_utilization': util}


@dataclass
class AutoscalePolicy:
    """Thresholds and hysteresis for fleet sizing."""

    min_shards: int = 1
    max_shards: int = 8
    latency_p99_up: float = 60_000.0    # scale up above this p99
    latency_p99_down: float = 20_000.0  # may scale down below this p99
    util_down: float = 0.25             # ... and below this utilization
    window_epochs: int = 6              # signal look-back, in epochs
    up_consecutive: int = 1
    down_consecutive: int = 3
    cooldown_epochs: int = 2

    def __post_init__(self):
        if self.min_shards < 1:
            raise ValueError('min_shards must be >= 1')
        if self.max_shards < self.min_shards:
            raise ValueError('max_shards must be >= min_shards')
        if self.latency_p99_down > self.latency_p99_up:
            raise ValueError('latency_p99_down must not exceed '
                             'latency_p99_up (hysteresis band)')

    @classmethod
    def from_dict(cls, doc: dict) -> 'AutoscalePolicy':
        known = {f for f in cls.__dataclass_fields__}
        bad = set(doc) - known
        if bad:
            raise ValueError(f'unknown autoscale key(s): '
                             f'{", ".join(sorted(bad))}; choose from '
                             f'{", ".join(sorted(known))}')
        return cls(**doc)

    @classmethod
    def load(cls, path: str) -> 'AutoscalePolicy':
        with open(path) as f:
            return cls.from_dict(json.load(f))


class Autoscaler:
    """Streak/cooldown state machine over the policy's two signals."""

    def __init__(self, policy: AutoscalePolicy):
        self.policy = policy
        self.latencies: Deque[tuple] = deque()  # (epoch, latency)
        self.utils: Deque[tuple] = deque()      # (epoch, utilization)
        self.events: List[dict] = []
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown = 0
        self._now = 0
        self._seen_completion = False

    # ------------------------------------------------------------- signals
    def observe_completion(self, epoch: int, latency: int) -> None:
        self.latencies.append((epoch, latency))
        self._seen_completion = True

    def observe_utilization(self, epoch: int, util: float) -> None:
        self.utils.append((epoch, util))

    def _prune(self, epoch: int) -> None:
        horizon = epoch - self.policy.window_epochs
        while self.latencies and self.latencies[0][0] < horizon:
            self.latencies.popleft()
        while self.utils and self.utils[0][0] < horizon:
            self.utils.popleft()

    @property
    def latency_p99(self) -> float:
        return percentile([v for _, v in self.latencies], 0.99)

    @property
    def tile_utilization(self) -> float:
        if not self.utils:
            return 0.0
        return sum(v for _, v in self.utils) / len(self.utils)

    # ------------------------------------------------------------ decision
    def decide(self, epoch: int, fleet_size: int) -> Optional[str]:
        """One boundary's verdict: ``'up'``, ``'down'`` or ``None``.

        ``fleet_size`` counts routable (active) shards.  A returned
        action is already bounds-checked, recorded in :attr:`events`,
        and starts the cooldown; the router only has to execute it.
        """
        pol = self.policy
        self._now = epoch
        self._prune(epoch)
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        p99 = self.latency_p99
        util = self.tile_utilization
        if self.latencies and p99 > pol.latency_p99_up:
            self._up_streak += 1
        else:
            self._up_streak = 0
        if (self._seen_completion and p99 < pol.latency_p99_down
                and util < pol.util_down):
            self._down_streak += 1
        else:
            self._down_streak = 0
        if (self._up_streak >= pol.up_consecutive
                and fleet_size < pol.max_shards):
            self._record(epoch, UP, fleet_size, fleet_size + 1, p99, util,
                         f'latency_p99 {p99:.0f} > {pol.latency_p99_up:g} '
                         f'for {self._up_streak} epoch(s)')
            return UP
        if (self._down_streak >= pol.down_consecutive
                and fleet_size > pol.min_shards):
            self._record(epoch, DOWN, fleet_size, fleet_size - 1, p99, util,
                         f'latency_p99 {p99:.0f} < '
                         f'{pol.latency_p99_down:g} and utilization '
                         f'{util:.2f} < {pol.util_down:g} '
                         f'for {self._down_streak} epoch(s)')
            return DOWN
        return None

    def record_replace(self, epoch: int, fleet_size: int,
                       reason: str) -> None:
        """Log a crash replacement (bypasses streaks and cooldown)."""
        self._record(epoch, REPLACE, fleet_size, fleet_size + 1,
                     self.latency_p99, self.tile_utilization, reason)

    def _record(self, epoch, action, before, after, p99, util,
                reason) -> None:
        self.events.append(scale_event(epoch, action, before, after, p99,
                                       util, reason))
        self._up_streak = 0
        self._down_streak = 0
        self._cooldown = self.policy.cooldown_epochs
