"""Host-speed probe and the statistics the ladder reports.

The shared host drifts: the same 10 s body was measured at 8.4-10.1 s
back to back and at 15.4 s in a slow phase, with CPU time inflating
equally (host speed, not preemption).  A fixed pure-Python loop is
therefore timed around and inside every body, and a body's wall time is
scaled to a reference host::

    host_s = raw_s * PROBE_REF_MS / median(probe_ms)

Two probe samples make this worse than nothing, so at least
:data:`PROBE_BURST` samples are taken before and after every body, plus
one between in-process units.  Bodies that run two worker processes are
not scaled (see ``PassResult.normalise`` and the README's noise section).
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Sequence

#: median probe time on the quiet reference host (2-core sandbox,
#: CPython 3.11); only ratios against it matter
PROBE_REF_MS = 17.0
#: samples taken before and after every body
PROBE_BURST = 9
_PROBE_ITERS = 150_000


def probe_ms() -> float:
    """Time one fixed interpreter-bound loop, in milliseconds."""
    t0 = perf_counter()
    x = 1
    d: Dict[int, int] = {}
    for i in range(_PROBE_ITERS):
        x = (x * 1103515245 + 12345) & 0x7fffffff
        d[i & 255] = x
    return (perf_counter() - t0) * 1e3


def probe_burst() -> List[float]:
    return [probe_ms() for _ in range(PROBE_BURST)]


def normalise(raw_s: float, probes_ms: Sequence[float]) -> float:
    """Scale a wall time to the reference host by the median probe."""
    return raw_s * PROBE_REF_MS / statistics.median(probes_ms)


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and count of a sample list.

    Quartiles are ``statistics.quantiles(values, n=4)`` (what the driver
    uses); with fewer than two samples they collapse to the one value.
    """
    vs = list(values)
    med = statistics.median(vs)
    if len(vs) >= 2:
        q1, _, q3 = statistics.quantiles(vs, n=4)
    else:
        q1 = q3 = med
    return {'median': med, 'q1': q1, 'q3': q3, 'min': min(vs),
            'max': max(vs), 'n': len(vs)}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 if one value)."""
    q = quartiles(values)
    return abs(q['q3'] - q['q1']) / abs(q['median']) if q['median'] else 0.0
