"""repro.perf — host-side performance observability for the simulator.

:mod:`~repro.perf.profiler` holds :class:`HostProfiler`, the
self-profiler the fabric's one event loop credits at its segment
boundaries, attributing host wall time to named components (tile step,
LLC, DRAM, frames, inet, telemetry/observe overhead, ...), with
collapsed-stack flamegraph export and an optional cProfile deep mode
(see docs/perf.md).  Whether a change made the simulator faster is
measured outside the package, on the bench ladder
(``benchmarks/ladder/README.md``).
"""

from .profiler import LOOP_COMPONENTS, HostProfiler, ProfileScope

__all__ = ['HostProfiler', 'ProfileScope', 'LOOP_COMPONENTS']
