"""Log2-bucketed latency histograms.

Latencies in a cycle-level simulator span five orders of magnitude (a
scratchpad hit is 2 cycles, a DRAM-bound vload hundreds), so linear
buckets are useless and exact reservoirs are too expensive for a probe
that fires on every memory request.  A :class:`Log2Histogram` keeps one
counter per power-of-two bucket: ``record()`` is two integer ops and an
increment, and the lossy part (within-bucket position) is bounded to a
factor of two, which is plenty for the queueing/latency distributions
the telemetry reports care about (gem5's distribution stats make the
same trade).

Bucket ``0`` holds values ``<= 0`` (e.g. zero queueing delay); bucket
``i >= 1`` holds values in ``[2**(i-1), 2**i)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

_MAX_BUCKETS = 64  # covers any latency a 2**60-cycle-capped sim can produce


class Log2Histogram:
    """Fixed-cost histogram over non-negative latencies."""

    __slots__ = ('name', 'unit', 'count', 'total', 'min', 'max', '_buckets')

    def __init__(self, name: str, unit: str = 'cycles'):
        self.name = name
        self.unit = unit
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: List[int] = [0] * _MAX_BUCKETS

    # ------------------------------------------------------------------ record
    def record(self, value) -> None:
        """Record one observation (clamped to bucket 0 when ``<= 0``)."""
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        idx = int(value).bit_length() if value > 0 else 0
        self._buckets[idx] += 1

    # ----------------------------------------------------------------- queries
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> Dict[int, int]:
        """Non-empty buckets as ``{lower_bound: count}``."""
        out = {}
        for i, c in enumerate(self._buckets):
            if c:
                out[0 if i == 0 else 1 << (i - 1)] = c
        return out

    def percentile(self, p: float) -> float:
        """Upper-bound estimate of the ``p``-th percentile (0..100)."""
        if not self.count:
            return 0.0
        target = self.count * p / 100.0
        seen = 0
        for i, c in enumerate(self._buckets):
            seen += c
            if seen >= target:
                upper = 0 if i == 0 else (1 << i) - 1
                return float(min(upper, self.max))
        return float(self.max)

    # --------------------------------------------------------------- serialize
    def to_dict(self) -> dict:
        return {
            'name': self.name,
            'unit': self.unit,
            'count': self.count,
            'min': float(self.min) if self.min is not None else 0.0,
            'max': float(self.max) if self.max is not None else 0.0,
            'mean': self.mean,
            'p50': self.percentile(50),
            'p99': self.percentile(99),
            'buckets': {str(k): v for k, v in self.buckets().items()},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> 'Log2Histogram':
        h = cls(doc['name'], doc.get('unit', 'cycles'))
        h.count = doc['count']
        h.total = doc['mean'] * doc['count']
        h.min = doc['min'] if doc['count'] else None
        h.max = doc['max'] if doc['count'] else None
        for lo, c in doc.get('buckets', {}).items():
            lo = int(lo)
            idx = 0 if lo == 0 else lo.bit_length()
            h._buckets[idx] += c
        return h

    def render(self, width: int = 40) -> str:
        """ASCII rendering for terminal reports."""
        lines = [f'{self.name} ({self.unit}): n={self.count} '
                 f'mean={self.mean:.1f} p50={self.percentile(50):.0f} '
                 f'p99={self.percentile(99):.0f} '
                 f'max={self.max if self.max is not None else 0:.0f}']
        bk = self.buckets()
        if bk:
            peak = max(bk.values())
            for lo, c in bk.items():
                bar = '#' * max(1, round(width * c / peak))
                lines.append(f'  {lo:>10d}+ {c:>8d} {bar}')
        return '\n'.join(lines)

    def __repr__(self):
        return (f'{type(self).__name__}({self.name!r}, n={self.count}, '
                f'mean={self.mean:.1f})')
