"""JSON experiment descriptions (paper artifact, Appendix A.7).

The original artifact drives gem5 sweeps from JSON files naming benchmarks,
software settings and hardware settings.  This module provides the same
interface against our simulator:

```json
{
  "name": "small",
  "benchmarks": ["bicg", "gemm"],
  "configs": ["NV", "NV_PF", "V4"],
  "scale": "bench",
  "machine": {"dram_bandwidth_words_per_cycle": 8.0},
  "metrics": ["cycles", "icache", "energy"]
}
```

Run with :func:`run_experiment` (or ``python -m repro experiment FILE``).
Results come back as a :class:`ExperimentResult` that renders a per-metric
table; every simulated point is verified against the numpy reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..kernels import registry
from ..manycore import DEFAULT_CONFIG, MachineConfig
from .figures import ResultCache, Series

VALID_METRICS = ('cycles', 'speedup', 'icache', 'energy', 'instrs',
                 'miss_rate')


@dataclass
class ExperimentSpec:
    """A parsed experiment description."""

    name: str
    benchmarks: List[str]
    configs: List[str]
    scale: str = 'bench'
    machine: Dict[str, object] = field(default_factory=dict)
    metrics: List[str] = field(default_factory=lambda: ['cycles'])
    verify: bool = True

    @classmethod
    def from_dict(cls, d: Dict) -> 'ExperimentSpec':
        unknown = set(d) - {'name', 'benchmarks', 'configs', 'scale',
                            'machine', 'metrics', 'verify'}
        if unknown:
            raise ValueError(f'unknown experiment keys: {sorted(unknown)}')
        spec = cls(
            name=d.get('name', 'experiment'),
            benchmarks=list(d.get('benchmarks', [])) or
            [c.name for c in registry.POLYBENCH],
            configs=list(d.get('configs', ['NV', 'NV_PF', 'V4'])),
            scale=d.get('scale', 'bench'),
            machine=dict(d.get('machine', {})),
            metrics=list(d.get('metrics', ['cycles'])),
            verify=bool(d.get('verify', True)),
        )
        for b in spec.benchmarks:
            if b not in registry.BY_NAME:
                raise ValueError(f'unknown benchmark {b!r}')
        for m in spec.metrics:
            if m not in VALID_METRICS:
                raise ValueError(f'unknown metric {m!r} '
                                 f'(valid: {VALID_METRICS})')
        return spec

    @classmethod
    def load(cls, path: Union[str, Path]) -> 'ExperimentSpec':
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def machine_config(self) -> Optional[MachineConfig]:
        if not self.machine:
            return None
        return DEFAULT_CONFIG.scaled(**self.machine)


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    tables: Dict[str, Series]

    def render(self) -> str:
        parts = [f'experiment: {self.spec.name} '
                 f'(scale={self.spec.scale}, machine overrides='
                 f'{self.spec.machine or "none"})']
        for metric in self.spec.metrics:
            parts.append('')
            parts.append(self.tables[metric].render())
        return '\n'.join(parts)


def _metric_value(result, metric: str, baseline):
    if metric == 'cycles':
        return float(result.cycles)
    if metric == 'speedup':
        return baseline.cycles / result.cycles
    if metric == 'icache':
        return float(result.icache_accesses)
    if metric == 'instrs':
        return float(result.instrs)
    if metric == 'energy':
        return result.energy.on_chip_total if result.energy else 0.0
    if metric == 'miss_rate':
        return result.stats.mem.miss_rate
    raise ValueError(metric)


def run_experiment(spec: Union[ExperimentSpec, Dict, str, Path],
                   jobs: int = 1, store=None,
                   progress=None) -> ExperimentResult:
    """Execute an experiment spec; returns per-metric result tables.

    ``jobs > 1`` farms the (benchmark x config) points across a
    :class:`repro.jobs.SweepEngine` worker pool first and then fills the
    tables from the primed cache — results are bit-identical to the
    serial path because workers run the very same ``run_job``.  ``store``
    (a :class:`repro.jobs.ResultStore`) persists results across runs.
    """
    if isinstance(spec, (str, Path)):
        spec = ExperimentSpec.load(spec)
    elif isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    cache = ResultCache(scale=spec.scale, verify=spec.verify, store=store)
    machine = spec.machine_config()

    if jobs and jobs > 1:
        from ..jobs import JobSpec, SweepEngine
        points = [JobSpec.make(b, cfg, scale=spec.scale, verify=spec.verify,
                               machine=machine)
                  for b in spec.benchmarks for cfg in spec.configs]
        engine = SweepEngine(jobs=jobs, store=cache.store,
                             progress=progress)
        for outcome in engine.execute(points):
            if outcome.result is not None:
                cache.prime(outcome.spec, outcome.result)
        # failed points (if any) re-raise naturally in the serial fill
        # below, with the same exception the worker saw.

    tables: Dict[str, Series] = {}
    fmt = {'cycles': '{:.0f}', 'icache': '{:.0f}', 'instrs': '{:.0f}',
           'energy': '{:.3e}', 'speedup': '{:.2f}', 'miss_rate': '{:.3f}'}
    for metric in spec.metrics:
        tables[metric] = Series(
            f'{spec.name}: {metric}', list(spec.configs),
            mean_kind='geomean' if metric == 'speedup' else 'amean',
            value_format=fmt.get(metric, '{:.2f}'))

    for b in spec.benchmarks:
        baseline = None
        for cfg in spec.configs:
            r = cache.run(b, cfg, machine=machine)
            if baseline is None:
                baseline = r
            for metric in spec.metrics:
                tables[metric].add(b, cfg, _metric_value(r, metric,
                                                         baseline))
    return ExperimentResult(spec, tables)
