"""repro.perf — host-side performance observability for the simulator.

Three pieces (see docs/perf.md):

* :mod:`~repro.perf.profiler` — :class:`HostProfiler`, the self-profiler
  the fabric's one event loop credits at its segment boundaries,
  attributing host wall time to named components (tile step, LLC, DRAM,
  frames, inet, telemetry/observe overhead, ...), with collapsed-stack
  flamegraph export and an optional cProfile deep mode;
* :mod:`~repro.perf.bench` — the curated benchmark suite behind
  ``repro bench run``: deterministic MIMD/vector/serve workloads,
  median/IQR wall-time statistics, peak RSS, and the schema-checked
  ``BENCH_<label>.json`` artifact carrying code-version + machine-hash
  provenance from :mod:`repro.jobs`;
* :mod:`~repro.perf.gate` — ``repro bench compare [--gate]``, the
  noise-aware regression gate CI runs so every perf PR has a mechanical
  before/after verdict.
"""

from .bench import (BENCH_KIND, BENCH_SCHEMA, BENCH_SCHEMA_VERSION,
                    BENCH_SUITE, BenchCase, BenchValidationError,
                    bench_path, build_bench_report, load_bench_report,
                    peak_rss_kb, render_bench_report, run_case, run_suite,
                    save_bench_report, suite_cases, validate_bench_report)
from .gate import (DEFAULT_NOISE_MULT, DEFAULT_RSS_THRESHOLD,
                   DEFAULT_THRESHOLD, compare_bench)
from .profiler import LOOP_COMPONENTS, HostProfiler, ProfileScope

__all__ = [
    'HostProfiler', 'ProfileScope', 'LOOP_COMPONENTS',
    'BenchCase', 'BENCH_SUITE', 'BENCH_KIND', 'BENCH_SCHEMA',
    'BENCH_SCHEMA_VERSION', 'BenchValidationError', 'bench_path',
    'build_bench_report', 'load_bench_report', 'peak_rss_kb',
    'render_bench_report', 'run_case', 'run_suite', 'save_bench_report',
    'suite_cases', 'validate_bench_report',
    'compare_bench', 'DEFAULT_THRESHOLD', 'DEFAULT_NOISE_MULT',
    'DEFAULT_RSS_THRESHOLD',
]
