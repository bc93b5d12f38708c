"""The curated host-performance benchmark suite (``repro bench run``).

A bench run answers "how fast is the *simulator* on this machine, right
now" with numbers stable enough to gate on:

* a fixed set of small deterministic workloads spanning the simulator's
  modes — MIMD, software-defined vector groups, and multi-tenant
  serving — so a change to any subsystem moves at least one case;
* every case runs ``repeats`` times; wall time is summarized as
  **median + IQR** (robust against scheduler noise on shared CI
  runners), and the simulated figures of merit (cycles, instructions)
  are asserted identical across repeats — the suite doubles as a
  determinism check;
* the artifact is a schema-checked ``BENCH_<label>.json`` carrying
  host info and :mod:`repro.jobs` provenance (the code-version salt,
  its hash, and the machine-config hash), so two files are only ever
  gated against each other when they describe comparable simulators.

The regression gate over two of these files lives in
:mod:`repro.perf.gate`; the host-time profiler that explains *why* a
case got slower lives in :mod:`repro.perf.profiler`.
"""

from __future__ import annotations

import os
import platform
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from ..artifact import Artifact, ReportValidationError

BENCH_SCHEMA_VERSION = 1
BENCH_KIND = 'repro-bench-report'

DEFAULT_REPEATS = 3
FAST_REPEATS = 1


# ---------------------------------------------------------------------- cases
@dataclass(frozen=True)
class BenchCase:
    """One curated workload; ``fast`` cases form the smoke subset."""

    name: str
    kind: str  # 'mimd' | 'vector' | 'serve'
    workload: Dict[str, object] = field(default_factory=dict)
    fast: bool = True


BENCH_SUITE: List[BenchCase] = [
    BenchCase('mimd-gemm', 'mimd',
              {'benchmark': 'gemm', 'config': 'NV_PF', 'scale': 'test'}),
    BenchCase('vector-gemm', 'vector',
              {'benchmark': 'gemm', 'config': 'V4_PCV', 'scale': 'test'}),
    BenchCase('vector-mvt-v16', 'vector',
              {'benchmark': 'mvt', 'config': 'V16', 'scale': 'test'},
              fast=False),
    BenchCase('vector-fdtd', 'vector',
              {'benchmark': 'fdtd-2d', 'config': 'V4', 'scale': 'test'},
              fast=False),
    BenchCase('serve-mixed', 'serve',
              {'seed': 8, 'requests': 6, 'scale': 'test'}),
]


def suite_cases(fast: bool = False,
                names: Optional[Sequence[str]] = None) -> List[BenchCase]:
    """Select suite cases; unknown names raise ``ValueError``."""
    cases = [c for c in BENCH_SUITE if not fast or c.fast]
    if names:
        by_name = {c.name: c for c in BENCH_SUITE}
        missing = [n for n in names if n not in by_name]
        if missing:
            raise ValueError(
                f'unknown bench case(s): {", ".join(missing)} '
                f'(known: {", ".join(sorted(by_name))})')
        cases = [by_name[n] for n in names]
    return cases


# ------------------------------------------------------------------ execution
def _run_case_once(case: BenchCase, profiler=None) -> Dict[str, int]:
    """Execute one case; returns its simulated figures of merit."""
    if case.kind in ('mimd', 'vector'):
        from ..harness import run_benchmark
        from ..kernels import registry
        w = case.workload
        bench = registry.make(w['benchmark'])
        params = bench.params_for(w['scale'])
        r = run_benchmark(bench, w['config'], params, profiler=profiler)
        return {'cycles': r.cycles, 'instrs': r.stats.total_instrs}
    if case.kind == 'serve':
        from ..manycore import Fabric
        from ..serve import FAILED, ServeScheduler, generate_trace
        w = case.workload
        requests = generate_trace(seed=w['seed'], n_requests=w['requests'],
                                  scale=w['scale'])
        fabric = Fabric()
        if profiler is not None:
            profiler.attach(fabric)
        result = ServeScheduler(fabric).run(requests)
        failed = [r for r in result.requests if r.state == FAILED]
        if failed:
            raise RuntimeError(f'bench serve case {case.name}: '
                               f'{len(failed)} request(s) failed')
        return {'cycles': result.makespan,
                'instrs': fabric.run_stats.total_instrs}
    raise ValueError(f'unknown bench case kind {case.kind!r}')


def peak_rss_kb() -> int:
    """Process peak resident set size in KiB (0 where unsupported).

    ``ru_maxrss`` is a lifetime high-water mark, so per-case values are
    monotone over a suite run; the per-case number still localizes which
    case first pushed the peak up.
    """
    try:
        import resource
    except ImportError:  # non-POSIX
        return 0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == 'Darwin':  # bytes on macOS, KiB on Linux
        rss //= 1024
    return int(rss)


@dataclass(frozen=True, eq=False)
class _IsolatedRepeat:
    """One isolated repeat: a :mod:`repro.jobs` spec for a bench case."""

    case_name: str
    kind: str
    workload: Dict[str, object]
    repeat: int

    def key(self) -> str:
        return f'bench-iso-{self.case_name}-r{self.repeat}'

    def label(self) -> str:
        return f'{self.case_name}[r{self.repeat}]'


def _isolated_repeat_job(spec: _IsolatedRepeat) -> dict:
    """Worker entry: time one repeat inside a pristine interpreter."""
    case = BenchCase(spec.case_name, spec.kind, dict(spec.workload))
    t0 = perf_counter()
    sim = _run_case_once(case)
    return {'wall': perf_counter() - t0, 'sim': sim,
            'peak_rss_kb': peak_rss_kb()}


def _run_case_isolated(case: BenchCase, repeats: int,
                       timeout: Optional[float]) -> tuple:
    """Run each repeat in its own worker process, one at a time.

    Process isolation removes in-process cross-talk between repeats
    (allocator reuse, reference-cache warmth, GC debt from the previous
    repeat) at fork/exec cost; repeats stay sequential so they never
    contend for cores.  Child peak RSS replaces the parent's lifetime
    high-water mark, which makes the per-case RSS figure meaningful
    again instead of monotone over the suite.
    """
    from ..jobs.engine import DONE, SweepEngine
    specs = [_IsolatedRepeat(case.name, case.kind, dict(case.workload), i)
             for i in range(max(1, repeats))]
    eng = SweepEngine(jobs=1, retries=0, store=None, timeout=timeout,
                      job_fn=_isolated_repeat_job,
                      encode=lambda d: d, decode=lambda d: d)
    outcomes = eng.execute(specs)
    bad = [o for o in outcomes if o.status != DONE]
    if bad:
        raise RuntimeError(
            f'bench case {case.name}: {len(bad)} isolated repeat(s) '
            f'{bad[0].status}: {bad[0].error}')
    walls = [o.result['wall'] for o in outcomes]
    sims = [o.result['sim'] for o in outcomes]
    rss = max(o.result['peak_rss_kb'] for o in outcomes)
    return walls, sims, rss


def run_case(case: BenchCase, repeats: int = DEFAULT_REPEATS,
             profile: bool = False, deep: bool = False,
             isolate: bool = False,
             isolate_timeout: Optional[float] = None) -> dict:
    """Run one case ``repeats`` times; returns its report section.

    When ``profile`` is set, one *extra* profiled repeat runs after the
    timing repeats (an attached profiler costs a few percent, so it is
    kept out of the wall-time statistics) and its component attribution
    is embedded under ``profile``.  ``isolate`` runs every timing repeat
    in its own worker process (see :func:`_run_case_isolated`).
    """
    if isolate:
        walls, sims, rss = _run_case_isolated(case, repeats,
                                              isolate_timeout)
    else:
        walls = []
        sims = []
        for _ in range(max(1, repeats)):
            t0 = perf_counter()
            sims.append(_run_case_once(case))
            walls.append(perf_counter() - t0)
        rss = peak_rss_kb()
    deterministic = all(s == sims[0] for s in sims)
    sim = sims[0]
    med = statistics.median(walls)
    if len(walls) >= 2:
        q = statistics.quantiles(walls, n=4, method='inclusive')
        iqr = q[2] - q[0]
    else:
        iqr = 0.0
    doc = {
        'name': case.name,
        'kind': case.kind,
        'workload': dict(case.workload),
        'repeats': len(walls),
        'wall_seconds': {
            'median': med,
            'iqr': iqr,
            'min': min(walls),
            'max': max(walls),
            'runs': walls,
        },
        'sim': {
            'cycles': sim['cycles'],
            'instrs': sim['instrs'],
            'cycles_per_host_second': sim['cycles'] / med if med else 0.0,
            'instrs_per_host_second': sim['instrs'] / med if med else 0.0,
        },
        'peak_rss_kb': rss,
        'deterministic': deterministic,
        'isolated': isolate,
    }
    if profile:
        from .profiler import HostProfiler
        prof = HostProfiler(deep=deep)
        _run_case_once(case, profiler=prof)
        doc['profile'] = prof.to_dict()
    return doc


def run_suite(fast: bool = False, repeats: Optional[int] = None,
              names: Optional[Sequence[str]] = None, label: str = 'local',
              profile: bool = False, deep: bool = False,
              isolate: bool = False,
              isolate_timeout: Optional[float] = None,
              progress: Optional[Callable] = None) -> dict:
    """Run the (selected) suite and build the bench report document."""
    cases = suite_cases(fast=fast, names=names)
    if repeats is None:
        repeats = FAST_REPEATS if fast else DEFAULT_REPEATS
    out = []
    for i, case in enumerate(cases):
        doc = run_case(case, repeats=repeats, profile=profile, deep=deep,
                       isolate=isolate, isolate_timeout=isolate_timeout)
        out.append(doc)
        if progress is not None:
            progress(doc, i + 1, len(cases))
    return build_bench_report(out, label=label, fast=fast, repeats=repeats)


# -------------------------------------------------------------------- report
_COUNTER = {'type': 'integer', 'minimum': 0}
_NUMBER = {'type': 'number'}
_NONNEG = {'type': 'number', 'minimum': 0}

CASE_SCHEMA = {
    'type': 'object',
    'required': ['name', 'kind', 'workload', 'repeats', 'wall_seconds',
                 'sim', 'peak_rss_kb', 'deterministic'],
    'properties': {
        'name': {'type': 'string'},
        'kind': {'type': 'string'},
        'workload': {'type': 'object'},
        'repeats': {'type': 'integer', 'minimum': 1},
        'wall_seconds': {
            'type': 'object',
            'required': ['median', 'iqr', 'min', 'max', 'runs'],
            'properties': {
                'median': _NONNEG, 'iqr': _NONNEG,
                'min': _NONNEG, 'max': _NONNEG,
                'runs': {'type': 'array', 'items': _NONNEG},
            },
        },
        'sim': {
            'type': 'object',
            'required': ['cycles', 'instrs', 'cycles_per_host_second',
                         'instrs_per_host_second'],
            'properties': {
                'cycles': _COUNTER,
                'instrs': _COUNTER,
                'cycles_per_host_second': _NONNEG,
                'instrs_per_host_second': _NONNEG,
            },
        },
        'peak_rss_kb': _COUNTER,
        'deterministic': {'type': 'boolean'},
        'isolated': {'type': 'boolean'},
        'profile': {
            'type': 'object',
            'required': ['total_seconds', 'components', 'residual_seconds',
                         'coverage'],
            'properties': {
                'total_seconds': _NONNEG,
                'components': {'type': 'object'},
                'residual_seconds': _NONNEG,
                'coverage': _NONNEG,
            },
        },
    },
}

_BODY_SCHEMA = {
    'required': ['host', 'suite', 'cases'],
    'properties': {
        'host': {
            'type': 'object',
            'required': ['platform', 'machine', 'python_impl'],
            'properties': {
                'platform': {'type': 'string'},
                'machine': {'type': 'string'},
                'python_impl': {'type': 'string'},
                'cpu_count': _COUNTER,
            },
        },
        'suite': {
            'type': 'object',
            'required': ['fast', 'repeats'],
            'properties': {
                'fast': {'type': 'boolean'},
                'repeats': {'type': 'integer', 'minimum': 1},
            },
        },
        'cases': {'type': 'array', 'items': CASE_SCHEMA},
    },
}


def build_bench_report(cases: List[dict], label: str = 'local',
                       fast: bool = False,
                       repeats: int = DEFAULT_REPEATS) -> dict:
    return BENCH_REPORT.stamp({
        'host': {
            'platform': platform.platform(),
            'machine': platform.machine(),
            'python_impl': platform.python_implementation(),
            'cpu_count': os.cpu_count() or 0,
        },
        'suite': {'fast': fast, 'repeats': repeats},
        'cases': cases,
    }, label=label)


# -------------------------------------------------------------------- render
def render_bench_report(doc: dict) -> str:
    prov = doc['provenance']
    lines = [f"bench {doc['label']}  (schema v{doc['schema_version']}, "
             f"git {doc['generated']['git_sha'][:12]}, "
             f"code-version {prov['code_version']} "
             f"[{prov['code_version_hash'][:8]}], "
             f"machine {prov['machine_hash'][:8]})",
             f"  host: {doc['host']['platform']} "
             f"({doc['host']['python_impl']} "
             f"{doc['generated']['python']})",
             f'  {"case":<16s} {"median":>9s} {"iqr":>8s} '
             f'{"cycles":>10s} {"cyc/s":>10s} {"RSS MiB":>8s}']
    for c in doc['cases']:
        w = c['wall_seconds']
        s = c['sim']
        det = '' if c['deterministic'] else '  NONDETERMINISTIC'
        lines.append(
            f'  {c["name"]:<16s} {w["median"]:>8.3f}s {w["iqr"]:>7.3f}s '
            f'{s["cycles"]:>10d} {s["cycles_per_host_second"]:>10.0f} '
            f'{c["peak_rss_kb"] / 1024:>8.1f}{det}')
        prof = c.get('profile')
        if prof:
            from .profiler import LOOP_COMPONENTS
            top = sorted(((k, v) for k, v in prof['components'].items()
                          if k in LOOP_COMPONENTS),
                         key=lambda kv: -kv[1])[:4]
            parts = ', '.join(f'{k} {v / (prof["total_seconds"] or 1):.0%}'
                              for k, v in top)
            lines.append(f'    profile: {prof["coverage"]:.1%} attributed '
                         f'({parts}; residual '
                         f'{prof["residual_seconds"]:.3f}s)')
    return '\n'.join(lines)


BENCH_REPORT = Artifact(BENCH_KIND, BENCH_SCHEMA_VERSION, _BODY_SCHEMA,
                        render_bench_report, file_prefix='BENCH')
BENCH_SCHEMA = BENCH_REPORT.schema
BenchValidationError = ReportValidationError
validate_bench_report = BENCH_REPORT.validate
bench_path = BENCH_REPORT.path
save_bench_report = BENCH_REPORT.save
load_bench_report = BENCH_REPORT.load
