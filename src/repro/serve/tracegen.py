"""Deterministic seeded request-trace generation.

The generator is the serving counterpart of the figure sweeps: a seed
fully determines the kernels, shapes, priorities, and arrival process,
so a trace can be named in CI ("seed 3, 6 requests") and replayed
bit-identically anywhere.  Arrivals follow a geometric interarrival
process (the discrete analogue of Poisson arrivals); shapes are drawn
from the configured (lanes, groups) menu.

:func:`open_loop_trace` extends this to *realistic* open-loop traffic
for the fleet (``repro.fleet``): the arrival rate is modulated by a
seeded **diurnal wave** (a sinusoid over a configurable "day"), seeded
**bursts** (short windows of near-simultaneous arrivals, the discrete
analogue of a Markov-modulated Poisson process), and request sizes are
drawn **heavy-tailed** — most requests take the smallest shape/problem
size, a Pareto-distributed minority take the larger ones.  It is a
*streaming generator*: requests are produced one at a time with O(1)
state, so traces of millions of requests can be routed without ever
being materialized, and the same ``(seed, n)`` prefix is bit-identical
in any process (only ``random.Random`` is consulted, never the
platform hash seed).
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, Iterator, List, Optional, Sequence

from ..kernels import registry
from .request import KernelRequest

#: default kernel menu: heterogeneous, small at test scale, and all
#: verifiable against their numpy references
DEFAULT_KERNELS = ('mvt', 'gesummv', 'atax')

#: group-shape menu: (lanes, groups), ordered by tile count
DEFAULT_SHAPES = ((4, 1), (4, 2), (4, 3))

#: request priorities, drawn uniformly
PRIORITIES = (0, 1, 2)

#: Pareto exponent of the heavy-tailed shape and problem-size picks
TAIL_ALPHA = 1.3

#: traffic patterns understood by :func:`open_loop_trace`
PATTERNS = ('steady', 'diurnal', 'bursty', 'mixed')


def mint_trace_id(seed: int, req_id: int) -> str:
    """Deterministic distributed-tracing id for request ``req_id`` of a
    seeded trace — stable across processes and replays, so a trace can
    be named in a bug report the same way the trace file is."""
    return f'{seed & 0xffffffff:08x}-{req_id:08x}'

#: per-kernel problem-size ladders for heavy-tailed request sizes; every
#: rung is compatible with each shape in DEFAULT_SHAPES (all are
#: power-of-two matvec widths, so vector spans always fit them)
SIZE_LADDERS: Dict[str, List[Dict[str, int]]] = {
    'mvt': [{'n': 16}, {'n': 32}, {'n': 64}],
    'gesummv': [{'n': 16}, {'n': 32}, {'n': 64}],
    'atax': [{'n': 16}, {'n': 32}, {'n': 64}],
}


def generate_trace(seed: int, n_requests: int,
                   kernels: Sequence[str] = DEFAULT_KERNELS,
                   scale: str = 'test',
                   mean_interarrival: int = 2000,
                   timeout: Optional[int] = None) -> List[KernelRequest]:
    """Build a deterministic request trace from a seed."""
    rng = random.Random(seed)
    requests = []
    arrival = 0
    for i in range(n_requests):
        kernel = rng.choice(list(kernels))
        lanes, groups = rng.choice(DEFAULT_SHAPES)
        params = registry.make(kernel).params_for(scale)
        requests.append(KernelRequest(
            req_id=i, kernel=kernel, params=params, lanes=lanes,
            groups=groups, priority=rng.choice(PRIORITIES),
            arrival=arrival, timeout=timeout,
            trace_id=mint_trace_id(seed, i)))
        # geometric interarrival with the requested mean, never zero so
        # admission order is stable under queue sorting
        arrival += 1 + int(rng.expovariate(1.0 / max(1, mean_interarrival)))
    return requests


def _heavy_tail_index(rng: random.Random, n: int) -> int:
    """Pareto-distributed rung pick: index 0 dominates, tail reaches n-1.

    A unit-Pareto draw ``x >= 1`` is mapped to ``floor(log2(x))`` so the
    probability of rung *k* decays geometrically with exponent
    ``TAIL_ALPHA`` — the classic heavy-tailed size mix (many mice, few
    elephants) — then clamped to the ladder.
    """
    x = rng.paretovariate(TAIL_ALPHA)
    return min(n - 1, int(math.log2(x) + 1e-12) if x >= 1 else 0)


def open_loop_trace(seed: int, n_requests: int,
                    pattern: str = 'mixed',
                    kernels: Sequence[str] = DEFAULT_KERNELS,
                    scale: str = 'test',
                    mean_interarrival: int = 2000,
                    timeout: Optional[int] = None,
                    day_cycles: int = 200_000,
                    diurnal_amplitude: float = 0.8,
                    burst_every: int = 40_000,
                    burst_len: int = 8,
                    burst_compression: int = 50) -> Iterator[KernelRequest]:
    """Stream an open-loop request trace (arrivals independent of service).

    Yields ``n_requests`` :class:`KernelRequest`\\ s one at a time — O(1)
    generator state, so million-request traces need no materialization.
    ``pattern`` selects the arrival process:

    * ``steady``  — the plain geometric process of
      :func:`generate_trace`;
    * ``diurnal`` — the instantaneous rate follows a seeded sinusoid
      with period ``day_cycles`` and the given amplitude (a "day" of
      peak and trough load);
    * ``bursty``  — geometrically spaced bursts (mean gap
      ``burst_every``) of ``burst_len`` requests whose interarrivals
      are compressed by ``burst_compression``;
    * ``mixed``   — diurnal base rate plus bursts (the default; this is
      what the fleet router and autoscaler are tested under).

    Request *sizes* are heavy-tailed on two axes: the group shape is
    drawn Pareto-style from ``DEFAULT_SHAPES`` (ordered by tile count),
    and the problem size from the kernel's ``SIZE_LADDERS`` rung (when the
    kernel has one and ``scale`` is ``test``; at bench scale the
    registered bench params are used unmodified).
    """
    if pattern not in PATTERNS:
        raise ValueError(f'unknown traffic pattern {pattern!r}; choose '
                         f'from {", ".join(PATTERNS)}')
    rng = random.Random(seed)
    kernel_menu = list(kernels)
    diurnal = pattern in ('diurnal', 'mixed')
    bursty = pattern in ('bursty', 'mixed')
    arrival = 0
    burst_left = 0
    next_burst = (1 + int(rng.expovariate(1.0 / max(1, burst_every)))
                  if bursty else None)
    for i in range(n_requests):
        kernel = rng.choice(kernel_menu)
        lanes, groups = DEFAULT_SHAPES[
            _heavy_tail_index(rng, len(DEFAULT_SHAPES))]
        ladder = SIZE_LADDERS.get(kernel)
        if scale == 'test' and ladder:
            params = dict(ladder[_heavy_tail_index(rng, len(ladder))])
        else:
            params = registry.make(kernel).params_for(scale)
        yield KernelRequest(
            req_id=i, kernel=kernel, params=params, lanes=lanes,
            groups=groups, priority=rng.choice(PRIORITIES),
            arrival=arrival, timeout=timeout,
            trace_id=mint_trace_id(seed, i))
        # ---- advance the arrival clock (open loop: never waits on us)
        rate_scale = 1.0
        if diurnal:
            phase = 2.0 * math.pi * (arrival % day_cycles) / day_cycles
            rate_scale = 1.0 + diurnal_amplitude * math.sin(phase)
            rate_scale = max(rate_scale, 0.05)
        gap_mean = max(1.0, mean_interarrival / rate_scale)
        if bursty:
            if burst_left > 0:
                burst_left -= 1
                gap_mean = max(1.0, gap_mean / burst_compression)
            elif arrival >= next_burst:
                burst_left = burst_len - 1
                next_burst = arrival + 1 + int(
                    rng.expovariate(1.0 / max(1, burst_every)))
                gap_mean = max(1.0, gap_mean / burst_compression)
        arrival += 1 + int(rng.expovariate(1.0 / gap_mean))


def save_trace(path: str, requests: List[KernelRequest]) -> None:
    with open(path, 'w') as f:
        json.dump({'kind': 'repro-serve-trace',
                   'requests': [r.to_dict() for r in requests]}, f, indent=1)


def load_trace(path: str) -> List[KernelRequest]:
    with open(path) as f:
        doc = json.load(f)
    if doc.get('kind') != 'repro-serve-trace':
        raise ValueError(f'{path} is not a serve trace file')
    return [KernelRequest.from_dict(d) for d in doc['requests']]
