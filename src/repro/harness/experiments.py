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
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..kernels import registry
from ..manycore import DEFAULT_CONFIG, MachineConfig
from .configs import CONFIGS, META_CONFIGS
from .figures import ResultCache, Series, table

#: metric -> table format; ``speedup`` is the first config's cycles over
#: each config's
_FORMATS = {'cycles': '{:.0f}', 'speedup': '{:.2f}', 'icache': '{:.0f}',
            'energy': '{:.3e}', 'instrs': '{:.0f}', 'miss_rate': '{:.3f}'}
VALID_METRICS = tuple(_FORMATS)


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
        if not isinstance(d, dict):
            raise ValueError('an experiment is a JSON object')
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
        if not spec.configs:
            raise ValueError('no configs')
        for c in spec.configs:
            if c not in CONFIGS and c not in META_CONFIGS:
                raise ValueError(f'unknown configuration {c!r}')
        unknown = set(spec.machine) - {f.name for f in fields(MachineConfig)}
        if unknown:
            raise ValueError(f'unknown machine fields: {sorted(unknown)}')
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


def run_experiment(spec: Union[ExperimentSpec, Dict, str, Path],
                   jobs: int = 1, store=None,
                   progress=None) -> ExperimentResult:
    """Execute an experiment spec; returns per-metric result tables.

    ``jobs > 1`` farms the (benchmark x config) points across a
    :class:`repro.jobs.SweepEngine` worker pool straight into the result
    cache, then fills the tables from it — results are bit-identical to
    the serial path because workers run the very same ``run_job``.  A
    failed point raises ``RuntimeError`` with the farm's summary and is
    not simulated again in-process.  ``store`` (a
    :class:`repro.jobs.ResultStore`) persists results across runs.
    """
    if isinstance(spec, (str, Path)):
        spec = ExperimentSpec.load(spec)
    elif isinstance(spec, dict):
        spec = ExperimentSpec.from_dict(spec)
    cache = ResultCache(scale=spec.scale, verify=spec.verify, store=store)
    machine = spec.machine_config()

    if jobs > 1:
        from ..jobs import JobSpec, SweepEngine, any_failed, render_summary
        points = [JobSpec.make(b, cfg, scale=spec.scale, verify=spec.verify,
                               machine=machine)
                  for b in spec.benchmarks for cfg in spec.configs]
        outcomes = SweepEngine(jobs=jobs, store=cache,
                               progress=progress).execute(points)
        if any_failed(outcomes):
            raise RuntimeError(render_summary(outcomes))

    def result(bench, cfg):
        return cache.run(bench, cfg, machine=machine)
    tables = {}
    for metric in spec.metrics:
        speedup = metric == 'speedup'
        tables[metric] = table(
            f'{spec.name}: {metric}', spec.benchmarks, spec.configs, result,
            'cycles' if speedup else metric,
            baseline=spec.configs[0] if speedup else None, speedup=speedup,
            mean_kind='geomean' if speedup else 'amean',
            value_format=_FORMATS[metric])
    return ExperimentResult(spec, tables)
